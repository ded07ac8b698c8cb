"""Command-line front end.

Subcommands: colon, decompose, classify, uprime, locus, oracle, enumerate.
Ideals are written as comma-separated products of variables, e.g.
"x1*x2, x2*x3"; a repeated variable raises the exponent (and is then
rejected by the commands that require square-free input).  Exit codes:
0 success, 2 parse error, 3 invalid input, 4 classifier/oracle disagreement
under --check, 5 resource limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass

from .errors import DegenerateIdeal, FroblocError, ResourceLimit
from .locus import (
    LocusReport,
    build_locus,
    render_u_prime,
    u_prime_strata,
)
from .monomials import (
    MonomialIdeal,
    PrimePower,
    format_monomial,
    generator_budget,
    is_prime,
)
from .oracle import GenerationProfile, classify_up_to
from .symbolic import (
    ColonDecomposition,
    GenerationClass,
    compute_u_prime,
    decompose,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_DISAGREEMENT = 4
EXIT_RESOURCE = 5


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class IdealExpression:
    """Parsed textual ideal: a variable count and raw exponent vectors."""

    n: int
    generators: tuple[tuple[int, ...], ...]

    def to_ideal(self) -> MonomialIdeal:
        return MonomialIdeal(self.generators, self.n)

    def render(self) -> str:
        def gen_text(exps):
            factors = []
            for i, c in enumerate(exps, start=1):
                factors.extend([f"x{i}"] * c)
            return "*".join(factors) if factors else "1"

        return ", ".join(gen_text(g) for g in self.generators)


_TOKEN = re.compile(r"x([0-9]+)")


def parse_ideal(text: str, variables: "int | None" = None) -> IdealExpression:
    """Parse "x1*x2, x2*x3" into exponent vectors.

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
    gens = tuple(
        tuple(g.get(i, 0) for i in range(1, n + 1)) for g in raw_gens
    )
    return IdealExpression(n, gens)


def _read_ideal_argument(args) -> IdealExpression:
    text = args.ideal
    if text == "-":
        text = sys.stdin.read()
    return parse_ideal(text, args.vars)


def _require_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    return p


def _sym_json(ideal) -> list:
    return [[{"a": a, "b": b} for a, b in term] for term in ideal.terms()]


def _gens_json(ideal: MonomialIdeal) -> list:
    return [list(g) for g in ideal.generators()]


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_colon(args) -> int:
    expr = _read_ideal_argument(args)
    ideal = expr.to_ideal()
    power = PrimePower(args.p, args.e)
    result = ideal.frobenius_power(power).colon(ideal)
    payload = {
        "n": ideal.n,
        "p": args.p,
        "e": args.e,
        "generators": _gens_json(result),
    }
    text = (
        f"I = {ideal.render()}   [n={ideal.n}]\n"
        f"q = {args.p}^{args.e} = {power.q}\n"
        f"(I^[q] : I) = {result.render()}"
    )
    _emit(args, payload, text)
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
    expr = _read_ideal_argument(args)
    ideal = expr.to_ideal()
    d = decompose(ideal, args.p)
    payload = {
        "n": ideal.n,
        "p": args.p,
        "generators": _gens_json(ideal),
        "frobenius_part": _sym_json(d.frobenius_part),
        "j_part": _sym_json(d.j_part),
        "beta": list(d.beta),
        "class": d.generation_class.value,
    }
    _emit(args, payload, _decomposition_text(d))
    return EXIT_OK


def _cmd_classify(args) -> int:
    expr = _read_ideal_argument(args)
    ideal = expr.to_ideal()
    d = decompose(ideal, args.p)
    payload = {
        "n": ideal.n,
        "p": args.p,
        "generators": _gens_json(ideal),
        "class": d.generation_class.value,
    }
    text = d.generation_class.label
    if d.generation_class is GenerationClass.PRINCIPAL:
        text += (
            f"\ngenerated by (x^beta)^(p-1) = {format_monomial(d.principal_witness)}"
        )
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_uprime(args) -> int:
    expr = _read_ideal_argument(args)
    ideal = expr.to_ideal()
    d = decompose(ideal, args.p)
    annihilator = compute_u_prime(d)
    payload = {
        "n": ideal.n,
        "p": args.p,
        "generators": _gens_json(annihilator),
    }
    strata = u_prime_strata(ideal, annihilator)
    text = (
        f"I = {ideal.render()}   [n={ideal.n}]  p={args.p}\n"
        f"annihilator of (I^[p] + J_p)/I^[p]: {annihilator.render()}\n"
        f"guaranteed finitely generated on U' = {render_u_prime(annihilator)}\n"
        f"strata inside U': {', '.join(s.render() for s in strata) or '(none)'}"
    )
    _emit(args, payload, text)
    return EXIT_OK


def _locus_text(report: LocusReport) -> str:
    ambient = "V(I)" if report.ambient == "vi" else "Spec(R)"
    mode = "strict" if report.strict else "default"
    lines = [
        f"I = {report.ideal.render()}   [n={report.ideal.n}]  p={report.p}  "
        f"ambient={ambient}  mode={mode}",
        "stratum table:",
    ]
    width = max(len(v.stratum.render()) for v in report.verdicts)
    for v in report.verdicts:
        lines.append(
            f"  {v.stratum.render():<{width}}  {v.generation.label:<22}"
            f"{v.certificate.value}"
        )
    for s in report.inadmissible:
        lines.append(f"  {s.render():<{width}}  (outside V(I))")
    lines.append(f"U   = {report.expression_u}")
    lines.append(f"U^c = {report.expression_complement}")
    lines.append(f"openness of U: {report.openness.label}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _cmd_locus(args) -> int:
    expr = _read_ideal_argument(args)
    ideal = expr.to_ideal()
    report = build_locus(ideal, args.p, strict=args.strict, ambient=args.ambient)
    payload = {
        "n": ideal.n,
        "p": args.p,
        "generators": _gens_json(ideal),
        "strata": [
            {
                "in_prime": sorted(v.stratum.in_prime),
                "class": v.generation.value,
                "certificate": v.certificate.value,
            }
            for v in report.verdicts
        ],
        "openness": report.openness.value,
    }
    _emit(args, payload, _locus_text(report))
    if args.check:
        for v in report.verdicts:
            profile = classify_up_to(v.localized.base, args.p, args.max_e)
            principal = v.generation is GenerationClass.PRINCIPAL
            if principal != profile.finitely_generated_consistent:
                print(
                    f"disagreement on {v.stratum.render()}: classifier says "
                    f"{v.generation.label}, oracle profile {profile.needs_new}",
                    file=sys.stderr,
                )
                return EXIT_DISAGREEMENT
    return EXIT_OK


def _cmd_oracle(args) -> int:
    expr = _read_ideal_argument(args)
    ideal = expr.to_ideal()
    if ideal.is_zero() or ideal.is_unit():
        raise DegenerateIdeal("oracle needs a proper nonzero ideal")
    _require_prime(args.p)
    profile = classify_up_to(ideal, args.p, args.max_e)
    payload = {
        "n": ideal.n,
        "p": args.p,
        "generators": _gens_json(ideal),
        "max_e": args.max_e,
        "needs_new": list(profile.needs_new),
        "consistent_with_finite": profile.finitely_generated_consistent,
    }
    lines = [
        f"I = {ideal.render()}   [n={ideal.n}]  p={args.p}  max_e={args.max_e}",
        " e      q  |F_e|  |L_e|  needs new generators",
    ]
    for e in range(1, args.max_e + 1):
        f_e = profile.f_ideals[e - 1]
        l_e = profile.l_ideals[e - 1]
        flag = "yes" if profile.needs_new[e - 1] else "no"
        lines.append(
            f"{e:>2} {args.p**e:>6}  {f_e.num_generators():>5}  "
            f"{l_e.num_generators():>5}  {flag}"
        )
    lines.append(profile.summary())
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from .enumeration import canonical_squarefree_ideals

    _require_prime(args.p)
    reps = canonical_squarefree_ideals(args.vars)
    rows = []
    counts = {"principal": 0, "infinite": 0}
    openness_counts = {"open": 0, "not_open": 0, "unknown": 0}
    total_orbit = 0
    checked = disagreements = 0
    # strata of different classes often localize to the same base ideal
    profiles: dict[MonomialIdeal, GenerationProfile] = {}
    for ideal, orbit in reps:
        report = build_locus(ideal, args.p, strict=args.strict)
        d = report.decomposition
        counts[d.generation_class.value] += 1
        openness_counts[report.openness.value] += 1
        total_orbit += orbit
        if args.check:
            # the principal verdict does not depend on --strict
            for verdict in report.verdicts:
                base = verdict.localized.base
                if base not in profiles:
                    profiles[base] = classify_up_to(base, args.p, args.max_e)
                profile = profiles[base]
                checked += 1
                principal = verdict.generation is GenerationClass.PRINCIPAL
                if principal != profile.finitely_generated_consistent:
                    disagreements += 1
        rows.append(
            {
                "generators": _gens_json(ideal),
                "orbit": orbit,
                "class": d.generation_class.value,
                "openness": report.openness.value,
            }
        )
    if args.json:
        print(
            json.dumps(
                {
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
            )
        )
    else:
        print(
            f"square-free ideals on {args.vars} variables: {total_orbit} "
            f"({len(reps)} classes up to permutation), p={args.p}"
        )
        print(
            f"classes: principal {counts['principal']}, "
            f"infinite {counts['infinite']}"
        )
        print(
            f"locus openness: open {openness_counts['open']}, "
            f"not_open {openness_counts['not_open']}, "
            f"unknown {openness_counts['unknown']}"
        )
        for row in rows:
            ideal = MonomialIdeal(row["generators"], args.vars)
            print(
                f"  {ideal.render():<40} orbit {row['orbit']:>3}  "
                f"{row['class']:<10} U {row['openness']}"
            )
        if args.check:
            print(
                f"oracle cross-check: {checked} strata checked, "
                f"{disagreements} disagreements"
            )
    if args.check and disagreements:
        return EXIT_DISAGREEMENT
    return EXIT_OK


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

    def add_ideal_command(name, help_text, **extra):
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
        "--strict",
        action="store_true",
        help="leave strata without a verbatim certificate undetermined",
    )
    loc.add_argument(
        "--ambient",
        choices=("vi", "full"),
        default="vi",
        help="decide openness inside V(I) or in the full spectrum",
    )
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
    enum.add_argument("--strict", action="store_true")
    enum.add_argument("--json", action="store_true")
    enum.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        generator_budget()  # reject a malformed FROBLOC_MAX_GENS up front
        if getattr(args, "p", None) is not None:
            _require_prime(args.p)
        if getattr(args, "e", None) is not None and args.e < 1:
            raise ValueError(f"--e must be >= 1, got {args.e}")
        if getattr(args, "max_e", None) is not None and args.max_e < 1:
            raise ValueError(f"--max-e must be >= 1, got {args.max_e}")
        if getattr(args, "vars", None) is not None and args.vars < 1:
            raise ValueError(f"--vars must be >= 1, got {args.vars}")
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ResourceLimit, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (FroblocError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
