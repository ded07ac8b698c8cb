import fcntl
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from frobloc import cli
from frobloc import locus as locus_module
from frobloc.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DISAGREEMENT,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    ParseError,
    main,
    parse_ideal,
)
from frobloc.enumeration import canonical_squarefree_ideals
from frobloc.errors import AmbientMismatch, InadmissibleStratum
from frobloc.locus import build_locus
from frobloc.monomials import MonomialIdeal
from frobloc.oracle import GenerationProfile, classify_up_to
from frobloc.symbolic import GenerationClass, compute_u_prime, decompose


def _support(ideal):
    return sum(any(g[i] for g in ideal.generators()) for i in range(ideal.n))


def _brute_class(ideal):
    """The permutation-scan key of a square-free ideal on its support."""
    used = [i for i in range(ideal.n) if any(g[i] for g in ideal.generators())]
    masks = [
        sum(1 << k for k, i in enumerate(used) if g[i]) for g in ideal.generators()
    ]
    return len(used), _brute.canonical_key(masks, len(used))[0]


class TestParseIdeal:
    def test_chain3(self):
        assert parse_ideal("x1*x2, x2*x3") == MonomialIdeal([(1, 1, 0), (0, 1, 1)])

    def test_chain4(self):
        expected = MonomialIdeal([(1, 1, 1, 0), (0, 0, 1, 1)])
        assert parse_ideal("x1*x2*x3, x3*x4") == expected

    def test_repeated_variable_gives_square(self):
        assert parse_ideal("x1 * x1") == MonomialIdeal([(2,)])

    def test_whitespace_ignored(self):
        assert parse_ideal(" x1 *x2 ,x2* x3 ") == parse_ideal("x1*x2,x2*x3")

    def test_vars_override(self):
        assert parse_ideal("x1", variables=3) == MonomialIdeal([(1, 0, 0)])

    def test_vars_too_small(self):
        with pytest.raises(ParseError):
            parse_ideal("x3", variables=2)

    @pytest.mark.parametrize(
        "text,position",
        [("x1*y2", 3), ("x1,,x2", 3), ("", 0), ("x1**x2", 3), ("x0", 0)],
    )
    def test_errors_carry_position(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_ideal(text)
        assert info.value.position == position


class TestCommands:
    def test_classify_text(self, capsys):
        assert main(["classify", "x1*x2, x2*x3", "--p", "2"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "InfinitelyGenerated"

    def test_classify_principal_witness(self, capsys):
        assert main(["classify", "x1*x2", "--p", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "PrincipallyGenerated"
        assert "x1^2*x2^2" in out

    def test_colon_json(self, capsys):
        assert main(["colon", "x1*x2, x2*x3", "--p", "2", "--e", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["n", "p", "e", "generators"]
        assert payload["generators"] == [[0, 1, 2], [1, 1, 1], [2, 1, 0]]

    def test_decompose_json_chain5(self, capsys):
        code = main(["decompose", "x1*x2*x3, x3*x4, x4*x5", "--p", "3", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "n",
            "p",
            "generators",
            "frobenius_part",
            "j_part",
            "beta",
            "class",
        ]
        assert payload["beta"] == [1, 1, 1, 1, 1]
        assert payload["class"] == "infinite"
        j = {
            tuple((d["a"], d["b"]) for d in term) for term in payload["j_part"]
        }
        assert j == {
            ((1, -1), (1, -1), (1, 0), (1, -1), (0, 0)),
            ((0, 0), (0, 0), (1, -1), (1, 0), (1, -1)),
        }

    def test_locus_text(self, capsys):
        assert main(["locus", "x1*x2, x2*x3", "--p", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "U^c = V((x1,x2,x3))" in out
        assert "openness of U: Open" in out
        assert "ComplementPattern" in out

    def test_locus_json_schema_and_order(self, capsys):
        assert main(["locus", "x1*x2, x2*x3", "--p", "2", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["n", "p", "generators", "strata", "openness"]
        assert payload["openness"] == "open"
        masks = [
            sum(1 << (i - 1) for i in row["in_prime"]) for row in payload["strata"]
        ]
        assert masks == sorted(masks)
        classes = {tuple(r["in_prime"]): r["class"] for r in payload["strata"]}
        assert classes[(1, 2, 3)] == "infinite"
        assert classes[(2,)] == "principal"
        certs = {r["certificate"] for r in payload["strata"]}
        assert certs <= {"DirectTheorem", "ComplementPattern"}

    def test_json_output_is_stable(self, capsys):
        main(["locus", "x1*x2*x3, x3*x4", "--p", "2", "--json"])
        first = capsys.readouterr().out
        main(["locus", "x1*x2*x3, x3*x4", "--p", "2", "--json"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "ideal",
        ["x1*x2, x2*x3", "x1*x2*x3, x3*x4", "x1*x2*x3, x3*x4, x4*x5"],
        ids=["chain3", "chain4", "chain5"],
    )
    def test_locus_strict_changes_only_the_mode_word(self, capsys, ideal):
        def run(*flags):
            assert main(["locus", ideal, "--p", "2", *flags]) == EXIT_OK
            return capsys.readouterr().out

        assert run("--strict", "--json") == run("--json")
        strict, default = run("--strict"), run()
        assert "mode=strict" in strict and "mode=default" in default
        assert strict.replace("mode=strict", "mode=default") == default

    def test_uprime_text(self, capsys):
        assert main(["uprime", "x1*x2, x2*x3", "--p", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(x2)" in out
        assert "D(x2) ∩ V(I)" in out

    def test_oracle_text(self, capsys):
        assert main(["oracle", "x1*x2, x2*x3", "--p", "2", "--max-e", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "needs new generators at degree 2, 3" in out

    def test_oracle_json(self, capsys):
        assert main(["oracle", "x1*x2", "--p", "2", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["needs_new"] == [True, False, False]
        assert payload["consistent_with_finite"] is True

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("x1*x2, x2*x3"))
        assert main(["classify", "-", "--p", "5"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "InfinitelyGenerated"

    def test_enumerate_check_never_disagrees(self, capsys):
        code = main(["enumerate", "--vars", "3", "--p", "2", "--check", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["disagreements"] == 0
        assert payload["checked_strata"] > 0
        assert payload["counts"]["classes"] == 8
        assert payload["counts"]["ideals"] == 18

    def test_locus_check_agrees(self, capsys):
        code = main(["locus", "x1*x2*x3, x3*x4", "--p", "2", "--check"])
        assert code == EXIT_OK

    def test_locus_check_runs_the_oracle_once_per_base(self, capsys, monkeypatch):
        bases = []
        oracle = cli.classify_up_to

        def counting(ideal, p, max_e):
            bases.append(ideal)
            return oracle(ideal, p, max_e)

        monkeypatch.setattr(cli, "classify_up_to", counting)
        path8 = _path(8)
        assert main(["locus", path8, "--p", "2", "--check"]) == EXIT_OK
        assert "Z={" in capsys.readouterr().out
        # 55 strata and 32 distinct substituted ideals; one oracle run per
        # oracle key, each a relabelling of its ideals on their support
        report = build_locus(parse_ideal(path8), 2)
        local = {v.substituted for v in report.verdicts}
        assert len(report.verdicts) == 55 and len(local) == 32
        assert len(bases) == len(set(bases)) == 10
        assert all(_support(base) == base.n for base in bases)
        for ideal in local:
            key = cli._oracle_key(ideal)
            assert key in bases
            if _support(ideal) <= 6:
                assert _brute_class(key) == _brute_class(ideal)

    def test_relabelled_cycle_shares_more_oracle_runs(self, capsys, monkeypatch):
        # a seeded relabelling of the 10-cycle: ranking variables by their
        # own signature alone left 18 oracle keys, the refined colours 13
        bases = []
        oracle = cli.classify_up_to

        def counting(ideal, p, max_e):
            bases.append(ideal)
            return oracle(ideal, p, max_e)

        monkeypatch.setattr(cli, "classify_up_to", counting)
        rng = random.Random(10)
        perm = rng.sample(range(1, 11), 10)
        cycle = ", ".join(f"x{perm[i]}*x{perm[(i + 1) % 10]}" for i in range(10))
        assert main(["locus", cycle, "--p", "2", "--check", "--json"]) == EXIT_OK
        assert len(bases) == len(set(bases)) == 13

    def test_only_the_locus_text_renders_u(self, capsys, monkeypatch):
        calls = []
        render = locus_module.render_expression

        def counting(members, n):
            calls.append(n)
            return render(members, n)

        monkeypatch.setattr(locus_module, "render_expression", counting)
        argv = ["locus", "x1*x2, x2*x3, x3*x4, x4*x5, x5*x6", "--p", "2"]
        assert main([*argv, "--json"]) == EXIT_OK
        assert main([*argv, "--check", "--json"]) == EXIT_OK
        assert calls == []
        # the text's U and U^c lines are what read them
        assert main(argv) == EXIT_OK
        assert len(calls) == 2

    @pytest.mark.parametrize("ideal,n", [("x1*x18", 18), ("x1*x40", 40)])
    def test_uprime_json_lists_no_strata(self, capsys, ideal, n):
        # too many strata meet V(I) for the text's list, which the JSON lacks
        assert main(["uprime", ideal, "--p", "2", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        annihilator = compute_u_prime(decompose(parse_ideal(ideal), 2))
        assert payload["generators"] == [list(g) for g in annihilator.generators()]
        assert payload["generators"] == [[0] * n]  # x1*x_n is principal: A = (1)

    def test_check_memo_keeps_no_oracle_profile(self):
        # only the verdict and the needs_new flags outlive each oracle run,
        # not the F_e and L_e ideals of its profile
        memo = {}
        report = build_locus(parse_ideal("x1*x2, x2*x3, x3*x4"), 2)
        assert list(cli._disagreements(report.verdicts, 2, 3, memo)) == []
        assert memo
        for value in memo.values():
            assert not isinstance(value, GenerationProfile)
            consistent, needs_new = value
            assert isinstance(consistent, bool) and len(needs_new) == 3

    def test_enumerate_check_runs_the_oracle_once_per_class(self, capsys, monkeypatch):
        bases = []
        oracle = cli.classify_up_to

        def counting(ideal, p, max_e):
            bases.append(ideal)
            return oracle(ideal, p, max_e)

        monkeypatch.setattr(cli, "classify_up_to", counting)
        argv = ["enumerate", "--vars", "4", "--p", "2", "--check", "--json"]
        assert main(argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["disagreements"] == 0 and payload["checked_strata"] > 28
        # each of the 28 classes on four variables is the base of its own
        # full stratum, and every localized base is in one of them
        assert len(bases) == len({_brute_class(b) for b in bases}) == 28
        # in class order: no stratum localizes to a later class
        assert bases == [ideal for ideal, _ in canonical_squarefree_ideals(4)]

    def test_locus_full_ambient(self, capsys):
        assert main(["locus", "x1*x2*x3, x3*x4", "--p", "2", "--ambient", "full"]) == 0
        out = capsys.readouterr().out
        assert "openness of U: NotOpen" in out
        assert "(outside V(I))" in out

    def test_locus_flags_published_discrepancy(self, capsys):
        assert main(["locus", "x1*x2*x3, x3*x4", "--p", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "note:" in out and "D(x1*x3*x4)" in out


@st.composite
def padded_ideals(draw):
    """(ideal on its <= 6 support variables, the same ideal with unused
    variables inserted at random positions, <= 10 variables in all)."""
    support = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(1, (1 << support) - 1), min_size=1, max_size=8))
    n = draw(st.integers(support, 10))
    places = sorted(draw(st.permutations(range(n)))[:support])
    rows = [[m >> i & 1 for i in range(support)] for m in masks]
    padded = [[0] * n for _ in rows]
    for row, wide in zip(rows, padded):
        for i, place in enumerate(places):
            wide[place] = row[i]
    return MonomialIdeal(rows, support), MonomialIdeal(padded, n)


class TestOracleKey:
    """``cli._oracle_key`` relabels an ideal on its support, which is what
    lets the ``locus --check`` memo share one oracle run between ideals."""

    def test_keeps_the_class(self, squarefree_classes):
        for n in range(1, 6):
            for ideal, _ in squarefree_classes(n):
                assert _brute_class(cli._oracle_key(ideal)) == _brute_class(ideal)

    @pytest.mark.parametrize("p", [2, 3])
    def test_keeps_the_oracle_flags(self, squarefree_classes, p):
        for n in range(1, 5):
            for ideal, _ in squarefree_classes(n):
                key = cli._oracle_key(ideal)
                assert _support(key) == key.n
                expected = classify_up_to(ideal, p, 3).needs_new
                assert classify_up_to(key, p, 3).needs_new == expected, ideal

    @given(padded_ideals())
    @settings(max_examples=150, deadline=None)
    def test_ignores_unused_variables(self, case):
        ideal, padded = case
        assert cli._oracle_key(padded) == cli._oracle_key(ideal)


class TestExitCodes:
    def test_parse_error(self, capsys):
        assert main(["classify", "x1*y2", "--p", "2"]) == EXIT_PARSE
        assert "position 3" in capsys.readouterr().err

    def test_square_violation(self, capsys):
        assert main(["decompose", "x1 * x1", "--p", "2"]) == EXIT_INVALID

    def test_non_prime(self, capsys):
        assert main(["classify", "x1*x2", "--p", "4"]) == EXIT_INVALID

    def test_bad_e(self, capsys):
        assert main(["colon", "x1*x2", "--p", "2", "--e", "0"]) == EXIT_INVALID

    @pytest.mark.parametrize(
        "argv",
        [
            ["locus", "x1*x2, x2*x3", "--p", "2", "--check", "--max-e", "0"],
            ["enumerate", "--vars", "3", "--p", "2", "--check", "--max-e", "0"],
            ["oracle", "x1*x2", "--p", "2", "--max-e", "0"],
        ],
    )
    def test_bad_max_e_rejected_before_any_output(self, capsys, argv):
        assert main(argv) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert "--max-e must be >= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["locus", "x1*x2, x2*x3", "--p", "2", "--check", "--max-e", "1"],
            ["enumerate", "--vars", "3", "--p", "2", "--check", "--max-e", "1"],
        ],
    )
    def test_check_at_depth_one_rejected_before_any_output(self, capsys, argv):
        # the oracle's verdict ignores degree 1: at depth 1 every ideal would
        # look finite and every infinite stratum a disagreement
        assert main(argv) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert "--check needs --max-e >= 2" in err

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_oracle_at_depth_one_rejected_before_any_output(self, capsys, extra):
        # at depth 1 the oracle called Katzman's infinitely generated ideal
        # consistent with a finitely generated algebra
        argv = ["oracle", "x1*x2, x2*x3", "--p", "2", "--max-e", "1", *extra]
        assert main(argv) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: oracle needs --max-e >= 2, got 1\n"

    def test_oracle_disagreement(self, capsys, monkeypatch):
        def always_infinite(ideal, p, max_e):
            return GenerationProfile(ideal, p, max_e, (), (True,) * max_e)

        monkeypatch.setattr(cli, "classify_up_to", always_infinite)
        # the report is printed, then the first disagreement ends the run
        code = main(["locus", "x1*x2, x2*x3", "--p", "2", "--check"])
        assert code == EXIT_DISAGREEMENT
        out, err = capsys.readouterr()
        assert "stratum table:" in out
        assert err.startswith("disagreement on Z={") and err.count("\n") == 1
        # enumerate counts every disagreeing stratum
        argv = ["enumerate", "--vars", "3", "--p", "2", "--check", "--json"]
        assert main(argv) == EXIT_DISAGREEMENT
        principal = sum(
            v.generation is GenerationClass.PRINCIPAL
            for ideal, _ in canonical_squarefree_ideals(3)
            for v in build_locus(ideal, 2).verdicts
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["disagreements"] == principal > 1

    def test_enumerate_too_many_variables(self, capsys):
        start = time.perf_counter()
        assert main(["enumerate", "--vars", "7", "--p", "2"]) == EXIT_INVALID
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unit_ideal_rejected(self, capsys):
        # x0 is a parse error; the unit ideal arrives via minimalization
        assert main(["decompose", "x1, x1*x2", "--p", "2"]) == EXIT_OK
        capsys.readouterr()
        assert main(["oracle", "x1", "--p", "2", "--vars", "0"]) == EXIT_INVALID

    def test_resource_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("FROBLOC_MAX_GENS", "2")
        code = main(["oracle", "x1*x2, x2*x3, x3*x4", "--p", "3", "--max-e", "3"])
        assert code == EXIT_RESOURCE

    def test_budget_the_flags_fit_stops_neither_output(self, capsys, monkeypatch):
        # the flags fit in 20 generators on this path at p = 3, and the text
        # and the JSON print the one profile
        monkeypatch.setenv("FROBLOC_MAX_GENS", "20")
        argv = ["oracle", "x1*x2, x2*x3, x3*x4", "--p", "3", "--max-e", "3"]
        assert main([*argv, "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["needs_new"] == [True] * 3
        assert main(argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and out.endswith("needs new generators at degree 2, 3\n")

    @pytest.mark.parametrize("command", ["decompose", "locus"])
    def test_symbolic_colon_counts_against_the_budget(
        self, capsys, monkeypatch, command
    ):
        # its single colons have three rows each: 9 lcms per intersection
        monkeypatch.setenv("FROBLOC_MAX_GENS", "2")
        assert main([command, "x1*x2, x2*x3, x3*x4", "--p", "2"]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["locus", "x1*x40", "--p", "2"],
            ["locus", "x1*x40", "--p", "2", "--ambient", "full"],
            ["uprime", "x1*x40", "--p", "2"],
        ],
    )
    def test_too_many_strata_is_a_resource_limit(self, capsys, argv):
        start = time.perf_counter()
        assert main(argv) == EXIT_RESOURCE
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv,tail",
        [
            # one stratum meets V(I), but 2^18 strata make up Spec(R)
            (
                ["locus", ", ".join(f"x{i}" for i in range(1, 19)), "--ambient", "full"],
                "lie in Spec(R); at most 131072 are classified\n",
            ),
            # 3 * 2^16 strata meet V(I); uprime lists those inside U' and
            # classifies none
            (["uprime", "x1*x18"], "meet V(I); at most 131072 are listed\n"),
        ],
        ids=["locus-full-maximal18", "uprime-x1x18"],
    )
    def test_stratum_lists_are_a_fast_resource_limit(self, capsys, argv, tail):
        start = time.perf_counter()
        assert main(argv + ["--p", "2"]) == EXIT_RESOURCE
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: more than 131072 strata " + tail

    @pytest.mark.parametrize("ambient", ["vi", "full"])
    def test_too_many_admissible_strata_is_a_fast_resource_limit(
        self, capsys, ambient
    ):
        # 24 variables pass the variable bound, but 3 * 2^22 strata meet V(I)
        start = time.perf_counter()
        argv = ["locus", "x1*x24", "--p", "2", "--ambient", ambient]
        assert main(argv) == EXIT_RESOURCE
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: more than 131072 strata meet V(I); at most 131072 are "
            "classified\n"
        )

    @pytest.mark.parametrize("e", [62, 10**6, 10**9])
    def test_huge_e_is_a_fast_resource_limit(self, capsys, e):
        start = time.perf_counter()
        assert main(["colon", "x1", "--p", "3", "--e", str(e)]) == EXIT_RESOURCE
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: q = 3^{e} exceeds the int64 guard\n"

    def test_overflowing_frobenius_power_is_a_resource_limit(self, capsys):
        code = main(["colon", "x1*x2, x2*x3", "--p", "2", "--e", "70"])
        assert code == EXIT_RESOURCE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command,target,exc",
        [
            ("classify", "decompose", AmbientMismatch("ideals in 2 and 3 variables")),
            ("locus", "build_locus", InadmissibleStratum("Z={1} does not meet V(I)")),
        ],
    )
    def test_package_errors_are_invalid_input(
        self, capsys, monkeypatch, command, target, exc
    ):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, target, fail)
        assert main([command, "x1*x2", "--p", "2"]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {exc}\n"

    def test_malformed_budget_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("FROBLOC_MAX_GENS", "abc")
        assert main(["classify", "x1*x2", "--p", "2"]) == EXIT_INVALID
        assert "FROBLOC_MAX_GENS" in capsys.readouterr().err

    def test_large_prime_is_fast(self, capsys):
        assert main(["classify", "x1*x2", "--p", "1000000000000000003"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("PrincipallyGenerated")

    def test_prime_beyond_exact_range(self, capsys):
        assert main(["classify", "x1*x2", "--p", str(10**30)]) == EXIT_INVALID
        assert "too large" in capsys.readouterr().err


def _path(n):
    return ", ".join(f"x{i}*x{i + 1}" for i in range(1, n))


def _child(argv, **kwargs):
    """frobloc's main in a fresh interpreter, on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    command = [sys.executable, "-m", "frobloc.cli", *argv]
    return subprocess.Popen(command, env=env, stderr=subprocess.PIPE, **kwargs)


class TestProcessExits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--vars", "5", "--p", "2"],
            ["locus", _path(12), "--p", "2", "--ambient", "full"],
        ],
    )
    def test_closed_pipe_exits_quietly(self, argv):
        # a one-page pipe: the child blocks on it long before its output ends,
        # so it is still writing when the reader goes away after one line
        read_end, write_end = os.pipe()
        fcntl.fcntl(read_end, fcntl.F_SETPIPE_SZ, 4096)
        child = _child(argv, stdout=write_end)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as out:
            assert out.readline()
        _, err = child.communicate(timeout=120)
        assert child.returncode == EXIT_BROKEN_PIPE
        assert b"Traceback" not in err and b"Exception ignored" not in err

    def test_out_of_memory_is_a_resource_limit(self):
        # the dense rows of 10^8 variables need 800 MB; the child may map 400
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

        argv = ["classify", "x1*x2", "--vars", "100000000", "--p", "2"]
        child = _child(argv, stdout=subprocess.PIPE, preexec_fn=cap)
        out, err = child.communicate(timeout=120)
        assert child.returncode == EXIT_RESOURCE
        assert out == b"" and err == b"error: out of memory\n"


# one call of every subcommand, run in turn by a single fresh interpreter
_EVERY_COMMAND = [
    ["colon", "x1*x2, x2*x3", "--p", "2", "--e", "2"],
    ["decompose", "x1*x2, x2*x3", "--p", "2", "--json"],
    ["classify", "x1*x2, x2*x3", "--p", "3"],
    ["uprime", "x1*x2, x2*x3", "--p", "2"],
    ["locus", "x1*x2, x2*x3, x3*x4", "--p", "2", "--check"],
    ["oracle", "x1*x2, x2*x3", "--p", "2", "--max-e", "2"],
    ["enumerate", "--vars", "4", "--p", "2", "--check"],
]


def test_no_command_imports_numpy_ma():
    # numpy.unique without an index output imports numpy.ma (and inspect),
    # 1.3 MiB and ~17 ms of every cold CLI call
    script = (
        "import contextlib, io, json, sys\n"
        "from frobloc.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    assert 'numpy.ma' not in sys.modules, argv\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    command = [sys.executable, "-c", script, json.dumps(_EVERY_COMMAND)]
    child = subprocess.run(command, env=env, capture_output=True, timeout=120)
    assert child.returncode == 0, child.stderr.decode()


class TestRepeatedMain:
    CALLS = [
        ["oracle", "x1*x2, x2*x3", "--p", "2", "--max-e", "3", "--json"],
        ["locus", "x1*x2, x2*x3, x3*x4", "--p", "3", "--ambient", "full"],
        ["classify", "x1*x2", "--p", "2"],
        ["oracle", "x1*x2, x2*x3", "--p", "2", "--bogus"],  # argparse: exit 2
        ["colon", "x1*x2, x2*x3", "--p", "2", "--e", "2"],
        ["enumerate", "--vars", "3", "--p", "2", "--json"],
        ["classify", "x1*x2", "--p", "4"],
        ["oracle", "x1*x2, x2*x3", "--p", "2"],
    ]

    @staticmethod
    def _run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    def test_one_process_runs_main_many_times(self, capsys):
        fresh = []
        for argv in self.CALLS:
            cli._build_parser.cache_clear()
            fresh.append(self._run(argv, capsys))
        assert [code for code, _ in fresh] == [0, 0, 0, 2, 0, 0, EXIT_INVALID, 0]
        parser = cli._build_parser()
        for argv, expected in zip(self.CALLS, fresh):
            assert self._run(argv, capsys) == expected, argv
        assert cli._build_parser() is parser
