"""Every function of the package is reached by some command.

One command per subcommand and output mode runs under ``sys.setprofile``.
The functions and methods defined in ``src/frobloc`` that none of them
calls must be exactly ``UNREACHED``, so library surface that only tests
call shows up here as a new name, and stays only if it is listed on purpose.
Every name in ``frobloc.__all__`` is bound by a star import.
"""

import contextlib
import importlib
import io
import pkgutil
import sys

import frobloc
from frobloc.cli import EXIT_OK, EXIT_PARSE, main

# reached by no command, each kept for a reason the commands do not show
UNREACHED = {
    "monomials.MonomialIdeal.__repr__",  # debugging and assertion messages
    "monomials.MonomialIdeal.__reduce__",  # pickling
    "monomials.MonomialIdeal.__setattr__",  # the immutability guard
    "monomials.MonomialIdeal.zero",  # the zero ideal for library callers
    # perfbench/layertrace.py wraps both by name
    "monomials.MonomialIdeal.__mul__",
    "monomials.MonomialIdeal.__and__",
}

CHAIN3 = "x1*x2, x2*x3"
# (argv, stdin, exit code): text, --json, --check, stdin and a parse error;
# uprime runs on an infinite and a principal ideal, since only one of them
# instantiates J and only the other is the unit ideal
COMMANDS = [
    (["colon", CHAIN3, "--p", "2", "--e", "2"], None, EXIT_OK),
    (["decompose", CHAIN3, "--p", "2"], None, EXIT_OK),
    (["decompose", CHAIN3, "--p", "3", "--json"], None, EXIT_OK),
    (["classify", "x1*x2*x3", "--p", "2"], None, EXIT_OK),
    (["uprime", CHAIN3, "--p", "2"], None, EXIT_OK),
    (["uprime", "x1*x2", "--p", "2", "--json"], None, EXIT_OK),
    (["locus", CHAIN3, "--p", "2"], None, EXIT_OK),
    (["locus", CHAIN3, "--p", "2", "--check", "--json"], None, EXIT_OK),
    (["oracle", "-", "--p", "2"], CHAIN3, EXIT_OK),
    (["enumerate", "--vars", "3", "--p", "2", "--check"], None, EXIT_OK),
    (["classify", "x1*y2", "--p", "2"], None, EXIT_PARSE),
]


def _defined() -> dict:
    """The code object of each function and method defined in the package,
    mapped to its module-qualified name."""
    root = frobloc.__path__[0]
    names = {}
    for info in pkgutil.iter_modules(frobloc.__path__):
        module = importlib.import_module(f"frobloc.{info.name}")
        holders = [module] + [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        for holder in holders:
            for attr in vars(holder).values():
                if hasattr(attr, "cache_clear"):
                    attr.cache_clear()  # a cached call must reach the body
                for func in (
                    attr,
                    getattr(attr, "__func__", None),  # classmethod
                    getattr(attr, "fget", None),  # property
                    getattr(attr, "func", None),  # cached_property
                    getattr(attr, "__wrapped__", None),  # functools.cache
                ):
                    code = getattr(func, "__code__", None)
                    if code is not None and code.co_filename.startswith(root):
                        names[code] = f"{info.name}.{code.co_qualname}"
    return names


def test_every_function_but_the_listed_is_reached(monkeypatch):
    defined = _defined()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    for argv, stdin, expected in COMMANDS:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        out = io.StringIO()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = main(argv)
        finally:
            sys.setprofile(previous)
        assert code == expected, (argv, out.getvalue())
    unreached = {name for code, name in defined.items() if code not in reached}
    assert unreached == UNREACHED


def test_star_import_binds_every_name_in_all():
    # a name left in __all__ after its definition is gone fails the import
    namespace: dict = {}
    exec("from frobloc import *", namespace)
    assert set(frobloc.__all__) <= namespace.keys()
