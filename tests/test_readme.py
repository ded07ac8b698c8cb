"""The README's library example runs, and each commented expression in it
shows what it evaluates to."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def _is_expression(code: str) -> bool:
    try:
        ast.parse(code, mode="eval")
    except SyntaxError:
        return False
    return True


def test_library_example_comments_show_each_value():
    namespace: dict = {}
    checked = 0
    for line in _library_block():
        code, _, comment = line.partition(" #")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        if not _is_expression(code):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        if comment:
            assert comment.startswith(repr(value)), (code, repr(value), comment)
            checked += 1
    assert checked > 0
