"""The README's library example runs, and each commented expression in it
shows what it evaluates to; each constant it cites has the cited value."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import frobloc

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


def test_cited_constants_exist_with_their_values():
    # `NAME = 6` or `NAME = 2^17`: a retired or retuned bound fails here
    text = README.read_text(encoding="utf-8")
    cited = re.findall(r"`([A-Z][A-Z0-9_]+) = (\d+)(?:\^(\d+))?`", text)
    assert cited
    modules = [
        importlib.import_module(f"frobloc.{info.name}")
        for info in pkgutil.iter_modules(frobloc.__path__)
    ]
    for name, base, power in cited:
        value = int(base) ** int(power or 1)
        found = [getattr(m, name) for m in modules if hasattr(m, name)]
        assert found and set(found) == {value}, (name, value, found)
