"""The benchmark's layer tracer still finds and restores what it wraps, and
its workloads' correctness gates pass on this code."""

import json
from pathlib import Path

import pytest

import frobloc
from frobloc import cli
from frobloc.monomials import MonomialIdeal

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_spans_the_oracle_and_locus_and_restores_them(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layertrace import Tracer

    colon = MonomialIdeal.__dict__["colon"]
    tracer = Tracer()
    tracer.install()
    try:
        oracle = ["oracle", "x1*x2, x2*x3, x3*x4", "--p", "2", "--json"]
        locus = ["locus", "x1*x2, x2*x3, x3*x4", "--p", "2", "--json"]
        assert cli.main(oracle) == cli.main(locus) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    oracle_out, locus_out = capsys.readouterr().out.splitlines()
    assert json.loads(oracle_out)["needs_new"] == [True] * 3
    assert json.loads(locus_out)["openness"] == "open"
    names = {span[0] for span in tracer.spans}
    assert {"oracle.compute_f", "monomials.colon", "locus.build_locus"} <= names
    assert MonomialIdeal.__dict__["colon"] is colon
    assert not hasattr(cli.classify_up_to, "__wrapped__")


@pytest.mark.parametrize("name", ["locus-graph", "enumerate-5", "oracle-deep"])
def test_workload_gates_pass(name, capsys, monkeypatch):
    # the gates call decompose, substitute, GenerationClass and the
    # MonomialIdeal(rows, n) constructor; a break there fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for command in workloads.build(frobloc, name, 1):
        rc = cli.main(list(command.argv))
        assert workloads.verify(command, rc, capsys.readouterr().out) is None
    assert cli.main(list(workloads.warm_argv(name, 1))) == cli.EXIT_OK
