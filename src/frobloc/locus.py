"""Stratified classification of the finitely-generated locus.

Spec of the ambient ring is partitioned into strata G_Z, one per subset Z of
the variables: a prime belongs to G_Z when the variables it contains are
exactly those indexed by Z.  Localizing at any prime of G_Z turns the
variables of the complement W into units, so the monomial data of the
localized algebra is that of the substituted ideal phi_W(I), and the
principal/infinite dichotomy is constant on each stratum.  The locus U of
primes with finitely generated algebra is therefore a union of strata, and
its openness is a purely combinatorial question: a union of strata is
closed iff its index family is upward-closed under Z-inclusion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import InadmissibleStratum
from .monomials import MonomialIdeal, PrimePower, format_monomial
from .monomials import substitute  # noqa: F401  (re-exported: locus.substitute)
from .symbolic import (
    ColonDecomposition,
    GenerationClass,
    decompose,
    validate_square_free,
)


@dataclass(frozen=True)
class Stratum:
    """All primes containing exactly the variables indexed by in_prime."""

    n: int
    in_prime: frozenset[int]

    def __post_init__(self):
        if not all(1 <= i <= self.n for i in self.in_prime):
            raise ValueError(f"variable indexes out of range 1..{self.n}")

    @property
    def inverted(self) -> frozenset[int]:
        """W: the variables turned into units on this stratum."""
        return frozenset(range(1, self.n + 1)) - self.in_prime

    @property
    def bitmask(self) -> int:
        return sum(1 << (i - 1) for i in self.in_prime)

    def __le__(self, other: "Stratum") -> bool:
        return self.in_prime <= other.in_prime

    def render(self) -> str:
        inner = ",".join(str(i) for i in sorted(self.in_prime))
        return "Z={" + inner + "}"


class Certificate(enum.Enum):
    DIRECT = "DirectTheorem"
    COMPLEMENT = "ComplementPattern"
    TRANSFER = "Transfer"
    NONE = "None"


class Openness(enum.Enum):
    OPEN = "open"
    NOT_OPEN = "not_open"
    UNKNOWN = "unknown"

    @property
    def label(self) -> str:
        return {"open": "Open", "not_open": "NotOpen", "unknown": "Unknown"}[self.value]


@dataclass(frozen=True)
class StratumVerdict:
    stratum: Stratum
    generation: GenerationClass
    certificate: Certificate
    localized: ColonDecomposition


def is_admissible(ideal: MonomialIdeal, stratum: Stratum) -> bool:
    """Does the stratum meet V(I), i.e. does every generator hit Z."""
    if ideal.is_zero():
        return True
    cols = [i - 1 for i in sorted(stratum.in_prime)]
    if not cols:
        return ideal.gens.shape[0] == 0
    return bool((ideal.gens[:, cols] > 0).any(axis=1).all())


def all_strata(n: int) -> list[Stratum]:
    variables = range(1, n + 1)
    out = []
    for size in range(n + 1):
        for combo in combinations(variables, size):
            out.append(Stratum(n, frozenset(combo)))
    out.sort(key=lambda s: s.bitmask)
    return out


def enumerate_strata(
    ideal: MonomialIdeal, restrict_to_v_of_i: bool = True
) -> list[Stratum]:
    """Strata of Spec, ordered by Z-bitmask; optionally only those meeting V(I)."""
    strata = all_strata(ideal.n)
    if restrict_to_v_of_i:
        strata = [s for s in strata if is_admissible(ideal, s)]
    return strata


def classify_stratum(
    ideal: MonomialIdeal, p: int, stratum: Stratum, strict: bool = False
) -> StratumVerdict:
    """Classify the algebra on one stratum via the localized decomposition.

    The localized decomposition decides everything: empty J means principal
    (DirectTheorem).  A surviving J generator showing exponents 0, p-1 and p
    among the variables of Z certifies infinite generation on the whole
    stratum (ComplementPattern).  A nonzero J without that pattern is still
    reported infinite by the localized dichotomy (Transfer certificate)
    unless strict mode downgrades it to Undetermined.
    """
    validate_square_free(ideal)
    if stratum.n != ideal.n:
        raise ValueError("stratum and ideal live in different ambients")
    if not is_admissible(ideal, stratum):
        raise InadmissibleStratum(f"{stratum.render()} does not meet V(I)")
    return _classify(decompose(ideal, p), stratum, strict)


def _classify(
    global_d: ColonDecomposition, stratum: Stratum, strict: bool
) -> StratumVerdict:
    """classify_stratum on an admissible stratum, given the global
    decomposition of the ideal."""
    local = global_d.localize(stratum.inverted)
    if local.j_part.is_zero():
        return StratumVerdict(stratum, GenerationClass.PRINCIPAL, Certificate.DIRECT, local)

    if _complement_pattern_witness(global_d, stratum, local.base) is not None:
        return StratumVerdict(
            stratum, GenerationClass.INFINITE, Certificate.COMPLEMENT, local
        )
    if strict:
        return StratumVerdict(
            stratum, GenerationClass.UNDETERMINED, Certificate.NONE, local
        )
    return StratumVerdict(stratum, GenerationClass.INFINITE, Certificate.TRANSFER, local)


def _complement_pattern_witness(
    global_d: ColonDecomposition, stratum: Stratum, sub: MonomialIdeal
) -> "tuple[int, ...] | None":
    """An original J generator whose image on this stratum still carries
    exponents 0, p-1 and p among the variables of Z and stays outside the
    localized I^[p] + ((x^beta)^(p-1)) - the hypothesis under which infinite
    generation is certified on the whole stratum.  Returned at q = p."""
    p = global_d.p
    inverted = [i - 1 for i in stratum.inverted]
    z_positions = [i - 1 for i in sorted(stratum.in_prime)]
    beta_local = [
        b if k not in inverted else 0 for k, b in enumerate(global_d.beta)
    ]
    localized_sum = sub.frobenius_power(PrimePower(p, 1)) + MonomialIdeal(
        [[b * (p - 1) for b in beta_local]], sub.n
    )
    images = global_d.j_part.enc.copy()
    images[:, inverted] = 0
    z_ranks = images[:, z_positions]
    full_pattern = np.all([(z_ranks == r).any(axis=1) for r in (0, 1, 2)], axis=0)
    for row in np.array([0, p - 1, p], dtype=np.int64)[images[full_pattern]]:
        concrete = tuple(int(c) for c in row)
        if not localized_sum.contains(concrete):
            return concrete
    return None


# ---------------------------------------------------------------------------
# openness on the stratum poset


def _upward_closure(family: set[Stratum], universe: Sequence[Stratum]) -> set[Stratum]:
    return {z for z in universe if any(m.in_prime <= z.in_prime for m in family)}


def is_open(
    members: Iterable[Stratum],
    universe: Sequence[Stratum],
    undetermined: Iterable[Stratum] = (),
) -> Openness:
    """Openness of a union of strata inside the given ambient.

    The union is open iff the complementary index family is upward-closed
    under Z-inclusion.  Undetermined strata may sit on either side; when the
    verdict depends on where they land, the answer is Unknown.
    """
    members = set(members)
    undet = set(undetermined) - members
    complement = set(universe) - members - undet

    closure = _upward_closure(complement, universe)
    open_possible = (closure - complement) <= undet
    if complement == closure:
        notopen_possible = any(
            any(s.in_prime < z.in_prime and z not in complement for z in universe)
            for s in undet
        )
    else:
        notopen_possible = True

    if open_possible and notopen_possible:
        return Openness.UNKNOWN
    return Openness.OPEN if open_possible else Openness.NOT_OPEN


def render_expression(members: Iterable[Stratum], universe: Sequence[Stratum]) -> str:
    """Canonical D/V display of a union of strata.

    Minimal members whose whole up-set (inside the ambient) belongs to the
    family contribute their closure V(x_j : j in Z); every other member is
    written as its locally closed stratum V(...) cap D(prod of W-variables).
    """
    members = set(members)
    if not members:
        return "(empty)"
    ordered = sorted(members, key=lambda s: (len(s.in_prime), s.bitmask))
    consumed: set[Stratum] = set()
    pieces = []
    for z in ordered:
        if z in consumed:
            continue
        minimal = not any(
            m.in_prime < z.in_prime for m in members if m is not z
        )
        up = {s for s in universe if z.in_prime <= s.in_prime}
        if minimal and up <= members:
            pieces.append(_render_v(z))
            consumed |= up
        else:
            pieces.append(_render_stratum(z))
            consumed.add(z)
    return " ∪ ".join(pieces)


def _render_v(stratum: Stratum) -> str:
    names = ",".join(f"x{i}" for i in sorted(stratum.in_prime))
    return f"V(({names}))"


def _render_stratum(stratum: Stratum) -> str:
    v = _render_v(stratum) if stratum.in_prime else None
    w = sorted(stratum.inverted)
    d = "D(" + "*".join(f"x{i}" for i in w) + ")" if w else None
    if v and d:
        return f"({v} ∩ {d})"
    return v or d or "Spec"


# ---------------------------------------------------------------------------
# whole-spectrum report


@dataclass(frozen=True)
class LocusReport:
    ideal: MonomialIdeal
    p: int
    strict: bool
    ambient: str  # "vi" (inside V(I)) or "full"
    verdicts: tuple[StratumVerdict, ...]
    inadmissible: tuple[Stratum, ...]
    u_strata: tuple[Stratum, ...]
    complement_strata: tuple[Stratum, ...]
    undetermined_strata: tuple[Stratum, ...]
    openness: Openness
    expression_u: str
    expression_complement: str
    notes: tuple[str, ...]
    decomposition: ColonDecomposition  # of the ideal itself, shared by all strata


# Published locus displays known to disagree with the derived stratum table.
_PUBLISHED_DISCREPANCIES: dict[tuple[int, tuple[tuple[int, ...], ...]], str] = {
    (4, ((0, 0, 1, 1), (1, 1, 1, 0))): (
        "an earlier published computation displays U = D(x1*x3*x4) for this "
        "ideal, but D(x1*x3*x4) ∩ V(I) is empty (x3*x4 lies in I); this "
        "report's derived stratum table is authoritative"
    ),
}


def build_locus(
    ideal: MonomialIdeal, p: int, strict: bool = False, ambient: str = "vi"
) -> LocusReport:
    """Classify every admissible stratum and decide openness of U.

    ambient="vi" works inside V(I) (only admissible strata exist).
    ambient="full" keeps all 2^n strata: U, a union of strata inside the
    proper closed set V(I), is then compared against the whole spectrum, and
    the inadmissible strata (which miss V(I)) count towards its complement.
    """
    if ambient not in ("vi", "full"):
        raise ValueError(f"ambient must be 'vi' or 'full', got {ambient!r}")
    global_d = decompose(ideal, p)
    admissible = enumerate_strata(ideal, restrict_to_v_of_i=True)
    verdicts = tuple(_classify(global_d, s, strict) for s in admissible)

    u = tuple(v.stratum for v in verdicts if v.generation is GenerationClass.PRINCIPAL)
    comp = tuple(v.stratum for v in verdicts if v.generation is GenerationClass.INFINITE)
    undet = tuple(
        v.stratum for v in verdicts if v.generation is GenerationClass.UNDETERMINED
    )

    if ambient == "vi":
        universe: Sequence[Stratum] = admissible
        inadmissible: tuple[Stratum, ...] = ()
    else:
        universe = all_strata(ideal.n)
        inadmissible = tuple(
            s for s in universe if not is_admissible(ideal, s)
        )

    openness = is_open(u, universe, undet)
    expression_u = render_expression(u, universe)
    expression_complement = render_expression(
        set(universe) - set(u) - set(undet), universe
    )

    notes = []
    key = (ideal.n, ideal.generators())
    if key in _PUBLISHED_DISCREPANCIES:
        notes.append(_PUBLISHED_DISCREPANCIES[key])
    if undet:
        notes.append(
            "strict mode left strata unresolved; rerun without --strict to "
            "apply the localized dichotomy"
        )

    return LocusReport(
        ideal=ideal,
        p=p,
        strict=strict,
        ambient=ambient,
        verdicts=verdicts,
        inadmissible=inadmissible,
        u_strata=u,
        complement_strata=comp,
        undetermined_strata=undet,
        openness=openness,
        expression_u=expression_u,
        expression_complement=expression_complement,
        notes=tuple(notes),
        decomposition=global_d,
    )


def u_prime_strata(
    ideal: MonomialIdeal, annihilator: MonomialIdeal
) -> tuple[Stratum, ...]:
    """Admissible strata inside Spec(S) \\ V(A) for a monomial annihilator A.

    A prime avoids V(A) iff some generator of A misses all its variables,
    which is a per-stratum condition.
    """
    out = []
    for s in enumerate_strata(ideal, restrict_to_v_of_i=True):
        gens = annihilator.generators()
        cols = [i - 1 for i in sorted(s.in_prime)]
        if any(all(g[c] == 0 for c in cols) for g in gens):
            out.append(s)
    return tuple(out)


def render_u_prime(annihilator: MonomialIdeal) -> str:
    """Spec(S) \\ V(A) as a union of basic opens, restricted to V(I)."""
    if annihilator.is_unit():
        return "V(I)"
    if annihilator.is_zero():
        return "(empty)"
    opens = " ∪ ".join(
        f"D({format_monomial(g)})" for g in annihilator.generators()
    )
    if annihilator.num_generators() > 1:
        opens = f"({opens})"
    return f"{opens} ∩ V(I)"
