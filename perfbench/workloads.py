"""Seeded inputs and correctness gates for the three benchmark workloads.

Each workload is a list of ``frobloc`` CLI invocations.  The seed only
relabels variables and shuffles generator order, so every seed does the same
amount of work on an isomorphic input.  The gates re-derive each answer on a
path that does not read the CLI output: the stratum class from the
definitional ``decompose(substitute(I, W))``, the enumeration totals from the
known counts, and the oracle verdict from ``decompose``.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("locus-graph", "enumerate-5", "oracle-deep")


class GateError(Exception):
    """A command's output failed its correctness gate."""


def load_frobloc():
    """Import ``frobloc`` from this checkout's ``src`` and nothing else."""
    if not (SRC / "frobloc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no frobloc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import frobloc
    import frobloc.cli

    if Path(frobloc.__file__).resolve().parent != (SRC / "frobloc").resolve():
        raise ImportError(f"frobloc was imported from {frobloc.__file__}")
    return frobloc


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    units: int  # strata, classes or degrees this command produces
    check: Callable[[dict], None]  # raises GateError on a wrong payload


# ---------------------------------------------------------------------------
# inputs


def _edges(kind: str, n: int) -> list[tuple[int, int]]:
    edges = [(i, i + 1) for i in range(1, n)]
    if kind == "cycle":
        edges.append((n, 1))
    return edges


def _relabel(edges, n: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Permute variable names, generator order and factor order."""
    perm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    gens = [tuple(rng.sample([perm[v] for v in e], len(e))) for e in edges]
    rng.shuffle(gens)
    return gens


def _text(gens) -> str:
    return ", ".join("*".join(f"x{v}" for v in g) for g in gens)


def _exponents(gens, n: int) -> list[tuple[int, ...]]:
    return [tuple(int(i in g) for i in range(1, n + 1)) for g in gens]


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _lucas(k: int) -> int:
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# gates


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


def _locus_gate(frobloc, gens, n: int, expected_strata: int):
    ideal = frobloc.MonomialIdeal(_exponents(gens, n), n)
    universe = set(range(1, n + 1))

    def check(payload: dict) -> None:
        _require(payload["n"] == n and payload["p"] == 2, "wrong n or p")
        _require(
            [tuple(g) for g in payload["generators"]] == list(ideal.generators()),
            "generators differ from the input ideal",
        )
        strata = payload["strata"]
        _require(
            len(strata) == expected_strata,
            f"{len(strata)} strata, expected {expected_strata}",
        )
        _require(
            len({tuple(s["in_prime"]) for s in strata}) == len(strata),
            "repeated stratum",
        )
        for s in strata:
            _require(
                all(set(g) & set(s["in_prime"]) for g in gens),
                f"stratum {s['in_prime']} misses V(I)",
            )
            inverted = universe - set(s["in_prime"])
            local = frobloc.decompose(frobloc.substitute(ideal, inverted), 2)
            _require(
                s["class"] == local.generation_class.value,
                f"stratum {s['in_prime']}: {s['class']}, definitional "
                f"{local.generation_class.value}",
            )
        _require(payload["openness"] in ("open", "not_open", "unknown"), "openness")

    return check


def _enumerate_gate(frobloc, rng: random.Random, spot_checks: int = 8):
    # 208 inequivalent monotone Boolean functions on 5 variables (OEIS
    # A003182 minus the two constants); orbits cover Dedekind(5) - 2 = 7579.
    def check(payload: dict) -> None:
        counts = payload["counts"]
        rows = payload["ideals"]
        _require(counts["classes"] == 208 and len(rows) == 208, "classes != 208")
        _require(
            counts["ideals"] == 7579 and sum(r["orbit"] for r in rows) == 7579,
            "orbit sum != 7579",
        )
        _require(counts["principal"] + counts["infinite"] == 208, "class totals")
        # the class is invariant under relabelling: re-derive it on a
        # seeded sample of permuted representatives
        for row in rng.sample(rows, spot_checks):
            perm = rng.sample(range(5), 5)
            gens = [tuple(g[perm[i]] for i in range(5)) for g in row["generators"]]
            d = frobloc.decompose(frobloc.MonomialIdeal(gens, 5), payload["p"])
            _require(
                row["class"] == d.generation_class.value,
                f"class of {row['generators']} differs from decompose",
            )

    return check


def _oracle_gate(frobloc, gens, n: int, p: int, max_e: int):
    ideal = frobloc.MonomialIdeal(_exponents(gens, n), n)

    def check(payload: dict) -> None:
        needs_new = payload["needs_new"]
        _require(len(needs_new) == max_e, "profile length != max_e")
        principal = (
            frobloc.decompose(ideal, p).generation_class
            is frobloc.GenerationClass.PRINCIPAL
        )
        finite = not any(needs_new[1:])
        _require(
            finite == principal and payload["consistent_with_finite"] == finite,
            f"oracle profile {needs_new} vs decompose principal={principal}",
        )

    return check


# ---------------------------------------------------------------------------
# workloads


def build(frobloc, name: str, seed: int) -> list[Command]:
    """The seeded command list of one workload (a pass runs each once)."""
    rng = random.Random(f"{name}:{seed}")
    commands = []
    if name == "locus-graph":
        for kind, n in (("path", 9), ("path", 10), ("cycle", 9), ("cycle", 10)):
            gens = _relabel(_edges(kind, n), n, rng)
            strata = _fibonacci(n + 2) if kind == "path" else _lucas(n)
            commands.append(
                Command(
                    ("locus", _text(gens), "--p", "2", "--json"),
                    strata,
                    _locus_gate(frobloc, gens, n, strata),
                )
            )
    elif name == "enumerate-5":
        # the command takes no ideal; the seed only drives the spot checks
        commands.append(
            Command(
                ("enumerate", "--vars", "5", "--p", "2", "--json"),
                208,
                _enumerate_gate(frobloc, rng),
            )
        )
    elif name == "oracle-deep":
        cases = [("path", 5, 2, 5), ("cycle", 5, 2, 5)]
        cases += [(kind, n, 3, 3) for n in (5, 6) for kind in ("path", "cycle")]
        for kind, n, p, max_e in cases:
            gens = _relabel(_edges(kind, n), n, rng)
            commands.append(
                Command(
                    ("oracle", _text(gens), "--p", str(p), "--max-e", str(max_e), "--json"),
                    max_e,
                    _oracle_gate(frobloc, gens, n, p, max_e),
                )
            )
    else:
        raise ValueError(f"unknown workload {name!r}")
    return commands


def warm_argv(name: str, seed: int) -> tuple[str, ...]:
    """A small call of the workload's subcommand, run once during set-up."""
    rng = random.Random(f"{name}:warm:{seed}")
    if name == "enumerate-5":
        return ("enumerate", "--vars", "3", "--p", "2", "--json")
    gens = _text(_relabel(_edges("path", 4), 4, rng))
    if name == "locus-graph":
        return ("locus", gens, "--p", "2", "--json")
    return ("oracle", gens, "--p", "2", "--max-e", "2", "--json")


def verify(command: Command, rc, out: str) -> "str | None":
    """None when the command succeeded with a correct payload, else why not."""
    if rc != 0:
        return f"exit status {rc}"
    try:
        command.check(json.loads(out))
    except Exception as exc:  # whatever a malformed payload raises, it fails
        return f"{type(exc).__name__}: {exc}"
    return None
