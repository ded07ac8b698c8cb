"""Command-line front end.

Subcommands: colon, decompose, classify, uprime, locus, oracle, enumerate.
Ideals are written as comma-separated products of variables, e.g.
"x1*x2, x2*x3"; a repeated variable raises the exponent (and is then
rejected by the commands that require square-free input).  Exit codes:
0 success, 1 stdout closed by its reader (a broken pipe), 2 parse error,
3 invalid input, 4 classifier/oracle disagreement under --check, 5 resource
limit (out of memory included).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Callable

import numpy as np

from .errors import DegenerateIdeal, FroblocError, ResourceLimit
from .locus import (
    LocusReport,
    _indexes,
    _inverted,
    _render_z,
    build_locus,
    render_u_prime,
    u_prime_strata,
)
from .monomials import (
    MonomialIdeal,
    PrimePower,
    format_monomial,
    generator_budget,
    require_prime,
    substitute,
)
from .oracle import GenerationProfile, classify_up_to
from .symbolic import (
    ColonDecomposition,
    GenerationClass,
    compute_u_prime,
    decompose,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_DISAGREEMENT = 4
EXIT_RESOURCE = 5


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


_TOKEN = re.compile(r"x([0-9]+)")


def parse_ideal(text: str, variables: "int | None" = None) -> MonomialIdeal:
    """Parse "x1*x2, x2*x3" into the ideal those monomials generate.

    The ambient size is the largest index seen unless ``variables`` pins it.
    Malformed tokens report their position in the original string.
    """
    stripped_positions = [i for i, ch in enumerate(text) if not ch.isspace()]
    compact = "".join(text[i] for i in stripped_positions)
    if not compact:
        raise ParseError("empty ideal expression", 0)

    def err(message, compact_pos):
        pos = (
            stripped_positions[compact_pos]
            if compact_pos < len(stripped_positions)
            else len(text)
        )
        raise ParseError(message, pos)

    raw_gens: list[dict[int, int]] = []
    pos = 0
    for gen_text in compact.split(","):
        if not gen_text:
            err("empty generator", pos)
        exps: dict[int, int] = {}
        offset = pos
        for factor in gen_text.split("*"):
            if not factor:
                err("empty factor", offset)
            match = _TOKEN.fullmatch(factor)
            if not match:
                err(f"expected a variable like x3, got {factor!r}", offset)
            index = int(match.group(1))
            if index < 1:
                err(f"variable index must be >= 1, got {factor!r}", offset)
            exps[index] = exps.get(index, 0) + 1
            offset += len(factor) + 1
        raw_gens.append(exps)
        pos += len(gen_text) + 1

    max_index = max(i for g in raw_gens for i in g)
    if variables is None:
        n = max_index
    else:
        if variables < max_index:
            raise ParseError(
                f"--vars {variables} is smaller than the largest index x{max_index}",
                0,
            )
        n = variables
    return MonomialIdeal([[g.get(i, 0) for i in range(1, n + 1)] for g in raw_gens], n)


def _read_ideal_argument(args) -> MonomialIdeal:
    text = args.ideal
    if text == "-":
        text = sys.stdin.read()
    return parse_ideal(text, args.vars)


# each symbolic rank 0, 1, 2 as its exponent a*q + b: 0, q-1, q
_RANK_JSON = ({"a": 0, "b": 0}, {"a": 1, "b": -1}, {"a": 1, "b": 0})
# the certificate printed with each stratum verdict
_CERTIFICATE = {
    GenerationClass.PRINCIPAL: "DirectTheorem",
    GenerationClass.INFINITE: "ComplementPattern",
}


def _sym_json(ideal) -> list:
    return [[_RANK_JSON[r] for r in row] for row in ideal.rank_rows()]


def _emit(args, payload: dict, text: Callable[[], str]) -> None:
    """Print the payload as JSON, or else the text, built only then."""
    if args.json:
        print(json.dumps(payload))
    else:
        print(text())


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_colon(args) -> int:
    ideal = _read_ideal_argument(args)
    power = PrimePower(args.p, args.e)
    result = ideal.frobenius_power(power).colon(ideal)
    payload = {
        "n": ideal.n,
        "p": args.p,
        "e": args.e,
        "generators": result.generators(),
    }
    text = (
        f"I = {ideal.render()}   [n={ideal.n}]\n"
        f"q = {args.p}^{args.e} = {power.q}\n"
        f"(I^[q] : I) = {result.render()}"
    )
    _emit(args, payload, lambda: text)
    return EXIT_OK


def _decomposition_text(d: ColonDecomposition) -> str:
    socle = format_monomial(d.beta) if any(d.beta) else "1"
    lines = [
        f"I = {d.base.render()}   [n={d.base.n}]",
        f"p = {d.p}; exponents are uniform in q = p^e",
        "(I^[q] : I) = I^[q] + J + ((x^beta)^(q-1))",
        f"beta = {d.beta}; x^beta = {socle}",
        f"colon generators inside I^[q]: {d.frobenius_part.render()}",
        f"J part: {d.j_part.render()}",
        f"socle: ({socle})^(q-1)",
        f"class: {d.generation_class.label}",
    ]
    if d.generation_class is GenerationClass.PRINCIPAL:
        lines.append(
            f"degree-one algebra generator: ({socle})^(p-1) = "
            f"{format_monomial(d.principal_witness)}"
        )
    return "\n".join(lines)


def _cmd_decompose(args) -> int:
    ideal = _read_ideal_argument(args)
    d = decompose(ideal, args.p)
    payload = {
        "n": ideal.n,
        "p": args.p,
        "generators": ideal.generators(),
        "frobenius_part": _sym_json(d.frobenius_part),
        "j_part": _sym_json(d.j_part),
        "beta": list(d.beta),
        "class": d.generation_class.value,
    }
    _emit(args, payload, lambda: _decomposition_text(d))
    return EXIT_OK


def _cmd_classify(args) -> int:
    ideal = _read_ideal_argument(args)
    d = decompose(ideal, args.p)
    payload = {
        "n": ideal.n,
        "p": args.p,
        "generators": ideal.generators(),
        "class": d.generation_class.value,
    }
    text = d.generation_class.label
    if d.generation_class is GenerationClass.PRINCIPAL:
        text += (
            f"\ngenerated by (x^beta)^(p-1) = {format_monomial(d.principal_witness)}"
        )
    _emit(args, payload, lambda: text)
    return EXIT_OK


def _cmd_uprime(args) -> int:
    ideal = _read_ideal_argument(args)
    d = decompose(ideal, args.p)
    annihilator = compute_u_prime(d)
    payload = {
        "n": ideal.n,
        "p": args.p,
        "generators": annihilator.generators(),
    }

    def text() -> str:
        # the strata, bounded by MAX_STRATA, are listed for the text only
        strata = u_prime_strata(ideal, annihilator)
        return (
            f"I = {ideal.render()}   [n={ideal.n}]  p={args.p}\n"
            f"annihilator of (I^[p] + J_p)/I^[p]: {annihilator.render()}\n"
            f"guaranteed finitely generated on U' = {render_u_prime(annihilator)}\n"
            f"strata inside U': {', '.join(map(_render_z, strata)) or '(none)'}"
        )

    _emit(args, payload, text)
    return EXIT_OK


def _locus_text(report: LocusReport) -> str:
    lines = [
        f"I = {report.ideal.render()}   [n={report.ideal.n}]  p={report.p}  "
        "ambient=V(I)  mode=default",
        "stratum table:",
    ]
    labels = [_render_z(z) for z, _ in report.verdicts]
    width = max(map(len, labels))
    for label, (_, generation) in zip(labels, report.verdicts):
        lines.append(
            f"  {label:<{width}}  {generation.label:<22}{_CERTIFICATE[generation]}"
        )
    lines.append(f"U   = {report.expression_u}")
    lines.append(f"U^c = {report.expression_complement}")
    lines.append(f"openness of U: {report.openness.label}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _cmd_locus(args) -> int:
    ideal = _read_ideal_argument(args)
    report = build_locus(ideal, args.p)
    payload = {
        "n": ideal.n,
        "p": args.p,
        "generators": ideal.generators(),
        "strata": [
            {
                "in_prime": _indexes(z),
                "class": generation.value,
                "certificate": _CERTIFICATE[generation],
            }
            for z, generation in report.verdicts
        ],
        "openness": report.openness.value,
    }
    _emit(args, payload, lambda: _locus_text(report))
    if args.check:
        for (z, generation), needs_new in _disagreements(report, args.max_e, {}):
            print(
                f"disagreement on {_render_z(z)}: classifier says "
                f"{generation.label}, oracle profile {needs_new}",
                file=sys.stderr,
            )
            return EXIT_DISAGREEMENT
    return EXIT_OK


def _ranks(signatures: list) -> list[int]:
    """Each signature's rank among the distinct signatures, in sorted order."""
    rank = {sig: r for r, sig in enumerate(sorted(set(signatures)))}
    return [rank[sig] for sig in signatures]


def _oracle_key(ideal: MonomialIdeal) -> MonomialIdeal:
    """The ideal on its support, the variables sorted by a colour refinement.

    Each variable starts with the colour of its signature: the number of
    generators through it and their sorted degrees.  Each round colours a
    generator by the sorted (colour, exponent) pairs of its variables, and
    splits every variable's colour by the sorted (exponent, colour) pairs of
    the generators through it; the rounds stop when no colour splits.  A
    colour is the rank of a signature among the sorted distinct ones, so it
    does not depend on the input order, which only breaks the ties left.

    This is a relabelling of the ideal with its unused variables dropped, so
    it has the same oracle answer; ideals that differ only by such a
    relabelling mostly share it."""
    gens = ideal.gens[:, ideal.gens.any(axis=0)]
    rows = gens.tolist()
    degrees = [sum(row) for row in rows]
    through = [[g for g, row in enumerate(rows) if row[v]] for v in range(gens.shape[1])]
    colour = _ranks([(len(t), tuple(sorted(degrees[g] for g in t))) for t in through])
    while True:
        gen_colour = [
            tuple(sorted((colour[v], c) for v, c in enumerate(row) if c)) for row in rows
        ]
        refined = _ranks(
            [
                (colour[v], tuple(sorted((rows[g][v], gen_colour[g]) for g in t)))
                for v, t in enumerate(through)
            ]
        )
        if len(set(refined)) == len(set(colour)):
            break
        colour = refined
    used = sorted(range(gens.shape[1]), key=colour.__getitem__)
    return MonomialIdeal.from_matrix(gens[:, used], len(used))


def _disagreements(
    report: LocusReport,
    max_e: int,
    memo: "dict[MonomialIdeal, tuple[bool, tuple[bool, ...]]]",
):
    """Yield (verdict, oracle needs_new flags) for each verdict of the report
    that the oracle contradicts, in the report's order.

    The oracle runs on the ``_oracle_key`` of phi_W(I), substituted from the
    report's ideal at each verdict's stratum, and ``memo`` maps that key to
    the oracle's (finitely_generated_consistent, needs_new), never to a
    whole profile with its F_e ideals.  The oracle's answer does not change
    under relabelling the variables or dropping unused ones, and strata
    share their substituted ideals up to both.  Only the principal/infinite
    verdict is compared: every infinite verdict carries the
    ComplementPattern certificate."""
    for z, generation in report.verdicts:
        key = _oracle_key(substitute(report.ideal, _inverted(z, report.ideal.n)))
        if key not in memo:
            profile = classify_up_to(key, report.p, max_e)
            memo[key] = profile.finitely_generated_consistent, profile.needs_new
        consistent, needs_new = memo[key]
        if (generation is GenerationClass.PRINCIPAL) != consistent:
            yield (z, generation), needs_new


def _cmd_oracle(args) -> int:
    ideal = _read_ideal_argument(args)
    if ideal.is_zero() or ideal.is_unit():
        raise DegenerateIdeal("oracle needs a proper nonzero ideal")
    profile = classify_up_to(ideal, args.p, args.max_e)
    payload = {
        "n": ideal.n,
        "p": args.p,
        "generators": ideal.generators(),
        "max_e": args.max_e,
        "needs_new": list(profile.needs_new),
        "consistent_with_finite": profile.finitely_generated_consistent,
    }
    _emit(args, payload, lambda: _oracle_text(profile))
    return EXIT_OK


def _oracle_text(profile: GenerationProfile) -> str:
    """The per-degree table of the profile."""
    ideal, p = profile.ideal, profile.p
    lines = [
        f"I = {ideal.render()}   [n={ideal.n}]  p={p}  max_e={profile.max_e}",
        " e      q  |F_e|  needs new generators",
    ]
    for e in range(1, profile.max_e + 1):
        f_e = profile.f_ideals[e - 1]
        flag = "yes" if profile.needs_new[e - 1] else "no"
        lines.append(f"{e:>2} {p**e:>6}  {f_e.num_generators():>5}  {flag}")
    lines.append(profile.summary())
    return "\n".join(lines)


def _cmd_enumerate(args) -> int:
    from .enumeration import census, class_openness, stratum_table

    found = census(args.vars)
    reps = found.classes
    table = stratum_table(found)
    # each class is its own top stratum (W empty), and every stratum of a
    # class localizes to some class: one decomposition per class decides all
    generations = [decompose(ideal, args.p).generation_class for ideal, _ in reps]
    infinite = np.array([g is GenerationClass.INFINITE for g in generations])
    rows = [
        {
            # a tuple encodes as a JSON array and is smaller than a list:
            # the n = 6 census holds 16351 rows until its output is built
            "generators": ideal.generators(),
            "orbit": orbit,
            "class": generation.value,
            "openness": class_openness(local, infinite).value,
        }
        for (ideal, orbit), generation, local in zip(reps, generations, table)
    ]
    counts = {c: sum(r["class"] == c for r in rows) for c in ("principal", "infinite")}
    # "unknown" stays in the output schema; it is always 0
    openness_counts = {
        o: sum(r["openness"] == o for r in rows) for o in ("open", "not_open", "unknown")
    }
    total_orbit = sum(orbit for _, orbit in reps)
    checked = disagreements = 0
    if args.check:
        # the oracle's finitely_generated_consistent per class, in class order
        consistent = np.array(
            [
                classify_up_to(ideal, args.p, args.max_e).finitely_generated_consistent
                for ideal, _ in reps
            ],
            dtype=bool,
        )
        # every admissible stratum of every class at once: a principal verdict
        # disagrees with an inconsistent profile, an infinite one with a
        # consistent profile
        local = table[table >= 0]
        checked = len(local)
        disagreements = int(np.count_nonzero(consistent[local] == infinite[local]))
    payload = {
        "n": args.vars,
        "p": args.p,
        "ideals": rows,
        "counts": {
            "classes": len(reps),
            "ideals": total_orbit,
            **counts,
            "openness": openness_counts,
        },
        "checked_strata": checked,
        "disagreements": disagreements,
    }

    def text() -> str:
        lines = [
            f"square-free ideals on {args.vars} variables: {total_orbit} "
            f"({len(reps)} classes up to permutation), p={args.p}",
            f"classes: principal {counts['principal']}, infinite {counts['infinite']}",
            "locus openness: " + ", ".join(f"{o} {c}" for o, c in openness_counts.items()),
            *(
                f"  {ideal.render():<40} orbit {row['orbit']:>3}  "
                f"{row['class']:<10} U {row['openness']}"
                for (ideal, _), row in zip(reps, rows)
            ),
        ]
        if args.check:
            lines.append(
                f"oracle cross-check: {checked} strata checked, "
                f"{disagreements} disagreements"
            )
        return "\n".join(lines)

    _emit(args, payload, text)
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


@functools.cache  # one parser per process: main() may run many times
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobloc",
        description=(
            "Frobenius powers, colon decompositions and the finitely-"
            "generated locus of square-free monomial ideals"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ideal_command(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("ideal", help='ideal like "x1*x2, x2*x3", or - for stdin')
        cmd.add_argument("--vars", type=int, default=None, help="ambient variable count")
        cmd.add_argument("--p", type=int, required=True, help="prime characteristic")
        cmd.add_argument("--json", action="store_true", help="machine-readable output")
        return cmd

    colon = add_ideal_command("colon", "concrete (I^[q] : I) at q = p^e")
    colon.add_argument("--e", type=int, default=1, help="Frobenius exponent e >= 1")
    colon.set_defaults(handler=_cmd_colon)

    dec = add_ideal_command("decompose", "symbolic I^[q] + J + socle decomposition")
    dec.set_defaults(handler=_cmd_decompose)

    cls = add_ideal_command("classify", "principally vs infinitely generated")
    cls.set_defaults(handler=_cmd_classify)

    upr = add_ideal_command("uprime", "annihilator ideal and the open set U'")
    upr.set_defaults(handler=_cmd_uprime)

    loc = add_ideal_command("locus", "stratum-by-stratum locus report")
    loc.add_argument(
        "--check",
        action="store_true",
        help="cross-check every stratum against the brute-force oracle",
    )
    loc.add_argument("--max-e", type=int, default=3, help="oracle depth for --check")
    loc.set_defaults(handler=_cmd_locus)

    orc = add_ideal_command("oracle", "brute-force generation profile F_e vs L_e")
    orc.add_argument("--max-e", type=int, default=3, help="largest degree checked")
    orc.set_defaults(handler=_cmd_oracle)

    enum = sub.add_parser(
        "enumerate", help="classify all square-free ideals up to permutation"
    )
    enum.add_argument("--vars", type=int, required=True, help="ambient variable count")
    enum.add_argument("--p", type=int, required=True, help="prime characteristic")
    enum.add_argument("--max-e", type=int, default=3, help="oracle depth for --check")
    enum.add_argument(
        "--check",
        action="store_true",
        help="cross-check every stratum against the brute-force oracle",
    )
    enum.add_argument("--json", action="store_true")
    enum.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        generator_budget()  # reject a malformed FROBLOC_MAX_GENS up front
        require_prime(args.p)  # every subcommand takes --p
        if getattr(args, "e", None) is not None and args.e < 1:
            raise ValueError(f"--e must be >= 1, got {args.e}")
        if getattr(args, "max_e", None) is not None and args.max_e < 1:
            raise ValueError(f"--max-e must be >= 1, got {args.max_e}")
        # the oracle's verdict reads degrees 2.. only: depth 1 calls every
        # ideal finite
        if getattr(args, "check", False) and args.max_e < 2:
            raise ValueError(f"--check needs --max-e >= 2, got {args.max_e}")
        if args.command == "oracle" and args.max_e < 2:
            raise ValueError(f"oracle needs --max-e >= 2, got {args.max_e}")
        if getattr(args, "vars", None) is not None and args.vars < 1:
            raise ValueError(f"--vars must be >= 1, got {args.vars}")
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ResourceLimit, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except (FroblocError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
