"""Stratified classification of the finitely-generated locus.

Spec of the ambient ring is partitioned into strata G_Z, one per subset Z of
the variables: a prime belongs to G_Z when the variables it contains are
exactly those indexed by Z.  Localizing at any prime of G_Z turns the
variables of the complement W into units, so the monomial data of the
localized algebra is that of the substituted ideal phi_W(I), and the
principal/infinite dichotomy is constant on each stratum.  The locus U of
primes with finitely generated algebra is therefore a union of strata, and
its openness is a purely combinatorial question: a union of strata is
closed iff its index family is upward-closed under Z-inclusion.  One
classifier, ``classify_stratum``, decides each stratum from the ideal's one
global decomposition: its J rows are substituted at W and J_Z = 0 iff none
of them is residual; the verdict keeps only phi_W(I) (``substituted``).
Two lists give the strata, ``all_strata(n)`` and ``enumerate_strata(I)``
(those meeting V(I)), both bounded by MAX_STRATA.  Both are upward-closed,
so openness (``_cover_openness``, the census's too) and the display walk
single-bit covers z | 1 << i.

A variable subset is an int throughout: bit i-1 is set iff x_i belongs to
it.  Z-inclusion a <= b is then ``a & ~b == 0``, and a stratum meets V(I)
iff every generator's support mask intersects Z.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice
from typing import Container, Iterable, Sequence

from .errors import InadmissibleStratum, ResourceLimit
from .monomials import MonomialIdeal, exponents_to_mask, format_monomial, substitute
from .symbolic import (
    ColonDecomposition,
    GenerationClass,
    _residual_rows,
    compute_beta,
    decompose,
)


def _indexes(mask: int) -> tuple[int, ...]:
    """The variable indexes i (1-based) whose bit i-1 is set, ascending."""
    # via a list: tuple() of a generator allocates 10 slots and shrinks them,
    # which piles freed short tuples onto the free lists (1.4 MB in 400 calls
    # of `locus` on n=9,10 graphs)
    return tuple([i + 1 for i in range(mask.bit_length()) if mask >> i & 1])


def _support_masks(ideal: MonomialIdeal) -> list[int]:
    return [exponents_to_mask(g) for g in ideal.generators()]


@dataclass(frozen=True)
class Stratum:
    """All primes containing exactly the variables x_i with bit i-1 of mask
    set (the index set Z)."""

    n: int
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < 1 << self.n:
            raise ValueError(f"stratum mask {self.mask} out of range for n={self.n}")

    @property
    def in_prime(self) -> frozenset[int]:
        """Z: the variables every prime of this stratum contains."""
        return frozenset(_indexes(self.mask))

    @property
    def inverted(self) -> tuple[int, ...]:
        """W: the variables turned into units on this stratum, ascending."""
        return _indexes(~self.mask & ((1 << self.n) - 1))

    def render(self) -> str:
        return "Z={" + ",".join(map(str, _indexes(self.mask))) + "}"


class Certificate(enum.Enum):
    DIRECT = "DirectTheorem"
    COMPLEMENT = "ComplementPattern"


class Openness(enum.Enum):
    OPEN = "open"
    NOT_OPEN = "not_open"

    @property
    def label(self) -> str:
        return "Open" if self is Openness.OPEN else "NotOpen"


@dataclass(frozen=True)
class StratumVerdict:
    stratum: Stratum
    generation: GenerationClass
    substituted: MonomialIdeal  # phi_W(I), the ideal's image on the stratum

    @property
    def certificate(self) -> Certificate:
        if self.generation is GenerationClass.PRINCIPAL:
            return Certificate.DIRECT
        return Certificate.COMPLEMENT


# the strata are enumerated one by one, 2^n of them; the scan alone takes
# seconds at n = 22 and grows about 4x per two variables
MAX_STRATA_VARS = 24


# a stratum list holds at most this many strata: build_locus keeps a verdict
# per admissible stratum, and x1*x16 (49152 strata) takes over 20 s and
# ~100 MiB on a 2-core host; path and cycle ideals on up to 24 variables
# (121393 and 103682 strata) stay below the bound
MAX_STRATA = 1 << 17


def _check_strata_vars(n: int) -> None:
    if n > MAX_STRATA_VARS:
        raise ResourceLimit(
            f"{n} variables give 2^{n} strata; at most {MAX_STRATA_VARS} "
            "variables are supported"
        )


def _bounded(n: int, masks: Iterable[int], where: str, done: str) -> list[Stratum]:
    """The strata of an ascending mask scan, which stops after MAX_STRATA + 1
    masks and then raises ResourceLimit rather than list them all; the
    message says what is ``done`` with at most MAX_STRATA of them."""
    masks = list(islice(masks, MAX_STRATA + 1))
    if len(masks) > MAX_STRATA:
        raise ResourceLimit(
            f"more than {MAX_STRATA} strata {where}; at most {MAX_STRATA} "
            f"are {done}"
        )
    return [Stratum(n, z) for z in masks]


def all_strata(n: int) -> list[Stratum]:
    """Every stratum among n variables, ordered by Z-mask; ResourceLimit
    beyond MAX_STRATA_VARS variables or MAX_STRATA strata."""
    _check_strata_vars(n)
    return _bounded(n, range(1 << n), "lie in Spec(R)", "classified")


def _meeting(ideal: MonomialIdeal, done: str) -> list[Stratum]:
    _check_strata_vars(ideal.n)
    support = _support_masks(ideal)
    masks = (z for z in range(1 << ideal.n) if all(g & z for g in support))
    return _bounded(ideal.n, masks, "meet V(I)", done)


def enumerate_strata(ideal: MonomialIdeal) -> list[Stratum]:
    """The strata meeting V(I), ordered by Z-mask; ResourceLimit beyond
    MAX_STRATA_VARS variables or MAX_STRATA strata."""
    return _meeting(ideal, "classified")


def classify_stratum(
    decomposition: ColonDecomposition, stratum: Stratum
) -> StratumVerdict:
    """Classify the algebra on one stratum from the ideal's decomposition.

    Localization commutes with the colon: substituting W in the rank ideal
    of (I^[q]:I) gives that of (phi_W(I)^[q] : phi_W(I)), whose J is zero
    (principal, DirectTheorem) iff none of those rows is residual.  Images
    of I^[q] rows stay in phi_W(I)^[q] and images of socle rows stay
    >= beta_Z (the support of phi_W(I)), and rows above a non-residual row
    are non-residual, so the substituted J has the same minimal residual
    rows as the substituted colon: only J is substituted.

    A residual row r is its own ComplementPattern witness.  It is zero on W
    and carries q-1 and q (``_residual_rows`` enforces both), and it is not
    >= beta_Z, so it has a 0 on some variable of supp(beta_Z), a subset of
    Z.  As beta_Z <= beta zeroed on W, r stays outside the localized
    I^[q] + ((x^beta)^(q-1)) too.

    Raises ValueError for a stratum of another ambient, and
    InadmissibleStratum when it misses V(I), i.e. phi_W(I) is the unit.
    """
    if stratum.n != decomposition.base.n:
        raise ValueError("stratum and ideal live in different ambients")
    inverted = stratum.inverted
    sub = substitute(decomposition.base, inverted)
    if sub.is_unit():
        raise InadmissibleStratum(f"{stratum.render()} does not meet V(I)")
    j = substitute(decomposition.j_part.ranks, inverted)
    if len(_residual_rows(sub, j.gens, compute_beta(sub))):
        return StratumVerdict(stratum, GenerationClass.INFINITE, sub)
    return StratumVerdict(stratum, GenerationClass.PRINCIPAL, sub)


# ---------------------------------------------------------------------------
# openness on the stratum poset


def _upward_closure(family: Iterable[int], n: int) -> set[int]:
    """Every superset of a member of the family, among n variables, found by
    walking single-bit covers z | 1 << i.  Inside an upward-closed universe
    that contains the family, this is the family's closure in the universe."""
    closure = set(family)
    stack = list(closure)
    while stack:
        z = stack.pop()
        for i in range(n):
            cover = z | 1 << i
            if cover not in closure:
                closure.add(cover)
                stack.append(cover)
    return closure


def _cover_openness(u: Container[int], outside: Iterable[int], n: int) -> Openness:
    """Openness of the strata ``u`` (Z-masks) in an upward-closed universe
    whose other strata are ``outside``: open iff the outside is
    upward-closed, i.e. no stratum outside has a single-bit cover
    z | 1 << i in u.  Each such cover lies in the universe."""
    if any(z | 1 << i in u for z in outside for i in range(n)):
        return Openness.NOT_OPEN
    return Openness.OPEN


def is_open(members: Iterable[Stratum], universe: Sequence[Stratum]) -> Openness:
    """Openness of a union of strata inside the given ambient: open iff the
    complementary index family is upward-closed under Z-inclusion.

    The universe must be upward-closed (every Z-superset of a member is a
    member), as all strata and the strata meeting V(I) are: each complement
    stratum's single-bit covers are then all that is read.
    """
    n = universe[0].n if universe else 0
    u = {s.mask for s in members}
    return _cover_openness(u, (s.mask for s in universe if s.mask not in u), n)


def render_expression(members: Iterable[Stratum], universe: Sequence[Stratum]) -> str:
    """Canonical D/V display of a union of strata.

    Minimal members whose whole up-set (inside the ambient) belongs to the
    family contribute their closure V(x_j : j in Z); every other member is
    written as its locally closed stratum V(...) cap D(prod of W-variables).

    The universe must be upward-closed and contain the members, as in
    ``is_open``: a member's up-set is then every Z-superset of it, so it
    lies in the family iff each single-bit cover z | 1 << i does, and a
    member is minimal iff no co-cover z & ~(1 << i) lies in the family's
    upward closure.
    """
    members = set(members)
    if not members:
        return "(empty)"
    n = universe[0].n
    masks = {s.mask for s in members}
    above = _upward_closure(masks, n)
    closed: set[int] = set()  # members whose whole up-set is in the family
    for z in sorted(masks, key=int.bit_count, reverse=True):
        if all(z | 1 << i in closed for i in range(n) if not z >> i & 1):
            closed.add(z)
    consumed: set[int] = set()
    pieces = []
    for s in sorted(members, key=lambda s: (s.mask.bit_count(), s.mask)):
        z = s.mask
        if z in consumed:
            continue
        minimal = not any(z & ~(1 << i) in above for i in range(n) if z >> i & 1)
        if minimal and z in closed:
            pieces.append(_render_v(s))
            consumed |= _upward_closure((z,), n)
        else:
            pieces.append(_render_stratum(s))
            consumed.add(z)
    return " ∪ ".join(pieces)


def _render_v(stratum: Stratum) -> str:
    names = ",".join(f"x{i}" for i in _indexes(stratum.mask))
    return f"V(({names}))"


def _render_stratum(stratum: Stratum) -> str:
    v = _render_v(stratum) if stratum.mask else None
    w = stratum.inverted
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
    ambient: str  # "vi" (inside V(I)) or "full"
    verdicts: tuple[StratumVerdict, ...]
    inadmissible: tuple[Stratum, ...]
    openness: Openness
    expression_u: str
    expression_complement: str
    notes: tuple[str, ...]
    decomposition: ColonDecomposition  # of the ideal; J substituted per stratum


# Published locus displays known to disagree with the derived stratum table.
_PUBLISHED_DISCREPANCIES: dict[tuple[int, tuple[tuple[int, ...], ...]], str] = {
    (4, ((0, 0, 1, 1), (1, 1, 1, 0))): (
        "an earlier published computation displays U = D(x1*x3*x4) for this "
        "ideal, but D(x1*x3*x4) ∩ V(I) is empty (x3*x4 lies in I); this "
        "report's derived stratum table is authoritative"
    ),
}


def build_locus(ideal: MonomialIdeal, p: int, ambient: str = "vi") -> LocusReport:
    """Classify every admissible stratum and decide openness of U.

    The ideal is decomposed once; ``classify_stratum`` decides each stratum
    of ``enumerate_strata(ideal)`` from that decomposition.  ambient="vi"
    works inside V(I) (only admissible strata exist).  ambient="full" keeps
    ``all_strata(n)``: U, a union of strata inside the proper closed set
    V(I), is then compared against the whole spectrum, and the inadmissible
    strata (which miss V(I)) count towards its complement.  Both lists are
    built, and their ResourceLimit raised, before any stratum is classified.
    """
    if ambient not in ("vi", "full"):
        raise ValueError(f"ambient must be 'vi' or 'full', got {ambient!r}")
    global_d = decompose(ideal, p)
    admissible = enumerate_strata(ideal)
    if ambient == "vi":
        universe: Sequence[Stratum] = admissible
        inadmissible: tuple[Stratum, ...] = ()
    else:
        universe = all_strata(ideal.n)
        admitted = set(admissible)
        inadmissible = tuple(s for s in universe if s not in admitted)
    verdicts = tuple(classify_stratum(global_d, s) for s in admissible)

    u = tuple(v.stratum for v in verdicts if v.generation is GenerationClass.PRINCIPAL)
    openness = is_open(u, universe)
    expression_u = render_expression(u, universe)
    expression_complement = render_expression(set(universe) - set(u), universe)

    notes = []
    key = (ideal.n, ideal.generators())
    if key in _PUBLISHED_DISCREPANCIES:
        notes.append(_PUBLISHED_DISCREPANCIES[key])

    return LocusReport(
        ideal=ideal,
        p=p,
        ambient=ambient,
        verdicts=verdicts,
        inadmissible=inadmissible,
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
    which is a per-stratum condition.  Bounded as ``enumerate_strata`` is,
    on the strata meeting V(I), which are listed rather than classified.
    """
    support = _support_masks(annihilator)
    return tuple(
        s
        for s in _meeting(ideal, "listed")
        if any(a & s.mask == 0 for a in support)
    )


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
