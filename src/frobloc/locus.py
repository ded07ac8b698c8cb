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
of them is residual; the verdict is the stratum and its class.
One list gives the strata, ``enumerate_strata(I)`` (those meeting V(I)),
bounded by MAX_STRATA.  It is upward-closed, so openness (``is_open``, the
census's too) and the display walk single-bit covers z | 1 << i.

A variable subset is an int throughout: bit i-1 is set iff x_i belongs to
it.  Z-inclusion a <= b is then ``a & ~b == 0``, and a stratum meets V(I)
iff every generator's support mask intersects Z.

Openness theorem (of this stratum model): U is open and dense in V(I) for
every square-free monomial ideal I.  Let phi_i set x_i = 1.  If phi_i(I) is
proper and J(phi_i(I)) != 0, then J(I) != 0.  A cover Z | {i} of a stratum
Z has phi_W(I) = phi_i(phi_{W minus i}(I)), so an infinite stratum of V(I) has
only infinite covers: the infinite strata are upward-closed, U^c is closed
and U is open in V(I).  ``build_locus`` and the census still decide
openness from their verdicts, an independent check of the theorem.

Proof, by witness lifting through the colon-free criterion of ``symbolic``:
J(I) != 0 iff some v in supp(I) has, for each generator g containing v, a
generator h_g missing v whose q-set T, the union of the h_g minus g,
contains no generator; (v, h) is then a witness.  Let (v, h') witness
phi_i(I), with q-set T'; v != i, as x_i is not in supp(phi_i(I)).  For each
generator g of I containing v, take a generator g' of phi_i(I) inside
g minus i.  If g' contains v, let h_g be a generator of I with h_g minus i
equal to h'_{g'}; otherwise let h_g be a generator of I with h_g minus i
equal to g'.  Either way h_g misses v, and h_g minus g lies in
(h'_{g'} minus g') with i in the first case and in {i} in the second, so T
lies in T' with i.  A generator f of I inside T' with i would leave
f minus i inside T', and f minus i contains a generator of phi_i(I), unless
f = {i}, which makes phi_i(I) the unit.  So (v, h) witnesses I.

Density: on a minimal stratum Z of V(I) (a minimal prime), phi_W(I) is
generated by the variables of Z, and the criterion gives J = 0, since the
q-set {w} of any choice contains the generator x_w.  So U holds every
generic point of V(I) and has nonempty interior.  For the same reason U is
never open in the whole polynomial spectrum when I is proper and nonzero:
each co-cover Z minus {i} of a minimal stratum Z misses V(I).  So U is
decided in Spec(R) = V(I) only, for R = K[[x_1..x_n]]/I as in the paper.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from itertools import islice
from typing import Container, Iterable

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


def _meeting(ideal: MonomialIdeal, done: str) -> list[Stratum]:
    """The strata meeting V(I) by an ascending mask scan, which stops after
    MAX_STRATA + 1 of them and then raises ResourceLimit rather than list
    them all; the message says what is ``done`` with at most MAX_STRATA."""
    _check_strata_vars(ideal.n)
    support = _support_masks(ideal)
    masks = (z for z in range(1 << ideal.n) if all(g & z for g in support))
    masks = list(islice(masks, MAX_STRATA + 1))
    if len(masks) > MAX_STRATA:
        raise ResourceLimit(
            f"more than {MAX_STRATA} strata meet V(I); at most {MAX_STRATA} "
            f"are {done}"
        )
    return [Stratum(ideal.n, z) for z in masks]


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
        return StratumVerdict(stratum, GenerationClass.INFINITE)
    return StratumVerdict(stratum, GenerationClass.PRINCIPAL)


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


def is_open(u: Container[int], outside: Iterable[int], n: int) -> Openness:
    """Openness of the strata ``u`` (Z-masks) in an upward-closed universe
    whose other strata are ``outside``: open iff the outside is
    upward-closed under Z-inclusion, i.e. no stratum outside has a
    single-bit cover z | 1 << i in u.  Each such cover lies in the universe.

    All strata and the strata meeting V(I) are upward-closed universes (every
    Z-superset of a member is a member).
    """
    if any(z | 1 << i in u for z in outside for i in range(n)):
        return Openness.NOT_OPEN
    return Openness.OPEN


def render_expression(members: Iterable[Stratum], n: int) -> str:
    """Canonical D/V display of a union of strata in n variables.

    Minimal members whose whole up-set (inside the ambient) belongs to the
    family contribute their closure V(x_j : j in Z); every other member is
    written as its locally closed stratum V(...) cap D(prod of W-variables).

    The members must lie in an upward-closed universe of strata, as in
    ``is_open``: a member's up-set is then every Z-superset of it, so it
    lies in the family iff each single-bit cover z | 1 << i does, and a
    member is minimal iff no co-cover z & ~(1 << i) lies in the family's
    upward closure.
    """
    members = set(members)
    if not members:
        return "(empty)"
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
    """The stratum verdicts of an ideal and the openness of U.  The D/V
    displays of U and U^c are rendered from the verdicts when first read."""

    ideal: MonomialIdeal
    p: int
    verdicts: tuple[StratumVerdict, ...]
    openness: Openness
    notes: tuple[str, ...]

    def _display(self, principal: bool) -> str:
        """The D/V display of the strata whose verdict is (not) principal."""
        chosen = [
            v.stratum
            for v in self.verdicts
            if (v.generation is GenerationClass.PRINCIPAL) is principal
        ]
        return render_expression(chosen, self.ideal.n)

    @functools.cached_property
    def expression_u(self) -> str:
        return self._display(True)

    @functools.cached_property
    def expression_complement(self) -> str:
        return self._display(False)


# Published locus displays known to disagree with the derived stratum table.
_PUBLISHED_DISCREPANCIES: dict[tuple[int, tuple[tuple[int, ...], ...]], str] = {
    (4, ((0, 0, 1, 1), (1, 1, 1, 0))): (
        "an earlier published computation displays U = D(x1*x3*x4) for this "
        "ideal, but D(x1*x3*x4) ∩ V(I) is empty (x3*x4 lies in I); this "
        "report's derived stratum table is authoritative"
    ),
}


def build_locus(ideal: MonomialIdeal, p: int) -> LocusReport:
    """Classify every stratum of V(I) and decide openness of U in V(I).

    The ideal is decomposed once; ``classify_stratum`` decides each stratum
    of ``enumerate_strata(ideal)`` from that decomposition.  The list is
    built, and its ResourceLimit raised, before any stratum is classified.
    """
    global_d = decompose(ideal, p)
    strata = enumerate_strata(ideal)
    verdicts = tuple(classify_stratum(global_d, s) for s in strata)

    masks = {
        v.stratum.mask for v in verdicts if v.generation is GenerationClass.PRINCIPAL
    }
    outside = (s.mask for s in strata if s.mask not in masks)
    openness = is_open(masks, outside, ideal.n)

    notes = []
    key = (ideal.n, ideal.generators())
    if key in _PUBLISHED_DISCREPANCIES:
        notes.append(_PUBLISHED_DISCREPANCIES[key])

    return LocusReport(
        ideal=ideal,
        p=p,
        verdicts=verdicts,
        openness=openness,
        notes=tuple(notes),
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
