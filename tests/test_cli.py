import json

import pytest

from frobloc import cli
from frobloc.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    IdealExpression,
    ParseError,
    main,
    parse_ideal,
)
from frobloc.errors import AmbientMismatch, InadmissibleStratum


class TestParseIdeal:
    def test_chain3(self):
        expr = parse_ideal("x1*x2, x2*x3")
        assert expr.n == 3
        assert expr.generators == ((1, 1, 0), (0, 1, 1))

    def test_chain4(self):
        expr = parse_ideal("x1*x2*x3, x3*x4")
        assert expr.n == 4
        assert expr.generators == ((1, 1, 1, 0), (0, 0, 1, 1))

    def test_repeated_variable_gives_square(self):
        expr = parse_ideal("x1 * x1")
        assert expr.generators == ((2,),)

    def test_whitespace_ignored(self):
        assert parse_ideal(" x1 *x2 ,x2* x3 ") == parse_ideal("x1*x2,x2*x3")

    def test_vars_override(self):
        assert parse_ideal("x1", variables=3).generators == ((1, 0, 0),)

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

    def test_round_trip(self):
        for text in ("x1*x2, x2*x3", "x1*x2*x3, x3*x4", "x1 * x1", "x2"):
            expr = parse_ideal(text)
            assert parse_ideal(expr.render()) == expr

    def test_render_uses_repetition_for_squares(self):
        assert IdealExpression(1, ((2,),)).render() == "x1*x1"


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
        assert certs <= {"DirectTheorem", "ComplementPattern", "Transfer", "None"}

    def test_json_output_is_stable(self, capsys):
        main(["locus", "x1*x2*x3, x3*x4", "--p", "2", "--json"])
        first = capsys.readouterr().out
        main(["locus", "x1*x2*x3, x3*x4", "--p", "2", "--json"])
        assert capsys.readouterr().out == first

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

    def test_locus_full_ambient(self, capsys):
        assert main(["locus", "x1*x2*x3, x3*x4", "--p", "2", "--ambient", "full"]) == 0
        out = capsys.readouterr().out
        assert "openness of U: NotOpen" in out
        assert "(outside V(I))" in out

    def test_locus_flags_published_discrepancy(self, capsys):
        assert main(["locus", "x1*x2*x3, x3*x4", "--p", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "note:" in out and "D(x1*x3*x4)" in out


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

    def test_unit_ideal_rejected(self, capsys):
        # x0 is a parse error; the unit ideal arrives via minimalization
        assert main(["decompose", "x1, x1*x2", "--p", "2"]) == EXIT_OK
        capsys.readouterr()
        assert main(["oracle", "x1", "--p", "2", "--vars", "0"]) == EXIT_INVALID

    def test_resource_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("FROBLOC_MAX_GENS", "2")
        code = main(["oracle", "x1*x2, x2*x3, x3*x4", "--p", "3", "--max-e", "3"])
        assert code == EXIT_RESOURCE

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
