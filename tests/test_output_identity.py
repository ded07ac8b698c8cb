"""Output identity of the CLI: stdout, stderr and exit code of a fixed sweep
of commands, hashed per command family against recorded sha256 values.

A refactor that must not change what frobloc prints keeps every hash.  A
change that means to alter an output updates the hash of its family (the
failure message prints the new value) and says why.
"""

import contextlib
import hashlib
import io
import itertools

import pytest

from frobloc.cli import main
from frobloc.enumeration import census


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _text(gens):
    return ", ".join(
        "*".join(f"x{i}" for i, c in enumerate(g, start=1) for _ in range(c))
        for g in gens
    )


def _classes():
    for n in range(1, 5):
        for ideal, _ in census(n).classes:
            yield _text(ideal.generators()), n


def _graphs(ns=range(3, 9)):
    for n in ns:
        path = [f"x{i}*x{i + 1}" for i in range(1, n)]
        yield ", ".join(path), n
        yield ", ".join(path + [f"x1*x{n}"]), n


def _ideal_commands(ideals, primes, commands, json_flags=([], ["--json"])):
    for text, n in ideals:
        for p in primes:
            for command in commands:
                for json_flag in json_flags:
                    argv = [command[0], text, "--vars", str(n), "--p", str(p)]
                    yield argv + list(command[1:]) + json_flag


CLASS_COMMANDS = {
    "decompose": ("decompose",),
    "classify": ("classify",),
    "uprime": ("uprime",),
    "colon": ("colon", "--e", "2"),
    "locus": ("locus",),
    "oracle": ("oracle", "--max-e", "3"),
}

PATH4 = "x1*x2, x2*x3, x3*x4"
ERROR_CASES = [
    (["classify", "x1*y2", "--p", "2"], {}),
    (["classify", "x1*x2,,x2", "--p", "2"], {}),
    (["decompose", "x1 * x1", "--p", "2"], {}),
    (["classify", "x1*x2", "--p", "4"], {}),
    (["colon", "x1*x2", "--p", "2", "--e", "0"], {}),
    (["locus", "x1*x2, x2*x3", "--p", "2", "--check", "--max-e", "0"], {}),
    (["enumerate", "--vars", "3", "--p", "2", "--check", "--max-e", "0"], {}),
    (["oracle", "x1*x2", "--p", "2", "--max-e", "0"], {}),
    (["enumerate", "--vars", "7", "--p", "2"], {}),
    (["decompose", "x1, x1*x2", "--p", "2"], {}),
    (["oracle", "x1", "--p", "2", "--vars", "0"], {}),
    (["oracle", PATH4, "--p", "3", "--max-e", "3"], {"FROBLOC_MAX_GENS": "2"}),
    (["decompose", PATH4, "--p", "2"], {"FROBLOC_MAX_GENS": "2"}),
    (["locus", PATH4, "--p", "2"], {"FROBLOC_MAX_GENS": "2"}),
    (["classify", "x1*x2", "--p", "2"], {"FROBLOC_MAX_GENS": "abc"}),
    (["locus", "x1*x40", "--p", "2"], {}),
    (["locus", PATH4, "--p", "2", "--strict"], {}),
    (["locus", PATH4, "--p", "2", "--ambient", "full"], {}),
    (["enumerate", "--vars", "3", "--p", "2", "--strict"], {}),
    (["uprime", "x1*x40", "--p", "2"], {}),
    (["colon", "x1*x2, x2*x3", "--p", "2", "--e", "61"], {}),
    (["colon", "x1", "--p", "2", "--e", "61"], {}),
    (["classify", "x1*x2", "--p", "1000000000000000003"], {}),
    (["classify", "x1*x2", "--p", str(10**30)], {}),
    (["oracle", "x1*x2, x2*x3", "--p", "2", "--bogus"], {}),
]


def _families():
    for name, command in CLASS_COMMANDS.items():
        yield name, lambda c=command: (
            (argv, {}) for argv in _ideal_commands(_classes(), (2, 3), [c])
        )
    graph_commands = [("decompose",), ("locus",)]
    yield "graphs", lambda: (
        (argv, {}) for argv in _ideal_commands(_graphs(), (2, 5), graph_commands)
    )
    yield "graphs-check", lambda: (
        (argv, {})
        for argv in _ideal_commands(
            _graphs(range(3, 8)), (2, 3), [("locus", "--check")], json_flags=([],)
        )
    )
    yield "locus-check", lambda: (
        (argv, {})
        for argv in _ideal_commands(
            itertools.chain(_classes(), _graphs()), (2,), [("locus", "--check")]
        )
    )
    yield "enumerate", lambda: (
        (["enumerate", "--vars", str(n), "--p", "2"] + json_flag + check, {})
        for n in range(1, 5)
        for json_flag in ([], ["--json"])
        for check in ([], ["--check"])
    )
    yield "enumerate-5", lambda: (
        (["enumerate", "--vars", "5", "--p", "2", "--json"] + check, {})
        for check in ([], ["--check"])
    )
    yield "errors", lambda: iter(ERROR_CASES)


# sha256 of each family's (argv, exit code, stdout, stderr) sequence
EXPECTED = {
    "decompose": "40475b8af943e1e826df2770fa4f1de5a6f1c72429e7932106a045ca054ecbea",
    "classify": "8846b9bfca22645b7436a2d2ab70eaab356a31926453abbfbfd7dede03b19d47",
    "uprime": "3b1eecc298f27fbff0e0c986b0e69ea631cae5c9ba04f5845f86a8cbf7057f71",
    "colon": "ef8cb8085593f6e745073aa32884110613d1376383a288006b2fec175519f0c3",
    "locus": "09743dd786e777ff1dda18fd0d6bc0dd0d2a18b6f7fc09e3a634ee7491820973",
    "graphs": "692b78ff6fdc52bdc25c583cf3438156a504f021456b0f690f2410c30652cf3f",
    "graphs-check": "8b086892f1dc2edd7503a52c4dcceb7f3428d4c1bc52ec65e63a6cb799993319",
    "locus-check": "a373ce9c5500057955e67ed9a6a4f0ef30f1448d733b82f71487bbbc5fb63fe1",
    "enumerate": "ad525bcb13c85b0981f2ee750272f48b6f795da53d42c1cb22c67a6b8ed049a7",
    "enumerate-5": "64c51e64b4efadff00940682b71344b8abe241ae9d2e3b4ec3af927ddbb6aebf",
    "errors": "4a80a7d217cae4f678661d702c46a089acd705a875cd8d5c1ec5b98cef67fc5e",
    "oracle": "f38a51f193c19e050f6023d10e1e87a770ba0501c43068a7d666f1fd916c1223",
}


@pytest.mark.parametrize("family", [name for name, _ in _families()])
def test_output_identity(family, monkeypatch):
    cases = dict(_families())[family]
    digest = hashlib.sha256()
    for argv, env in cases():
        with monkeypatch.context() as patch:
            for key, value in env.items():
                patch.setenv(key, value)
            code, out, err = _run(argv)
        digest.update(repr((argv, code, out, err)).encode())
    got = digest.hexdigest()
    assert got == EXPECTED.get(family), f"family {family!r}: new hash {got}"
