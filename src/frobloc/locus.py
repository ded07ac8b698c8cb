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
of them is residual.  A stratum is its Z-mask (below), and ``build_locus``
pairs each mask with its class.
One list gives the strata, ``enumerate_strata(I)``: those meeting V(I), the
hitting sets of the generator supports, found without visiting the other
masks and bounded by MAX_STRATA alone, at any number of variables.  It is
upward-closed, so openness (``is_open``, the census's too) and the display
walk single-bit covers z | 1 << i.

A variable subset, a stratum's Z included, is an int throughout: bit i-1 is
set iff x_i belongs to it.  Z-inclusion a <= b is then ``a & ~b == 0``, and
a stratum meets V(I) iff every generator's support mask intersects Z.

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


def _inverted(z: int, n: int) -> tuple[int, ...]:
    """W: the variables turned into units on the stratum z, ascending."""
    return _indexes(~z & ((1 << n) - 1))


def _render_z(z: int) -> str:
    """The stratum z as printed, Z={i,j,..}."""
    return "Z={" + ",".join(map(str, _indexes(z))) + "}"


class Openness(enum.Enum):
    OPEN = "open"
    NOT_OPEN = "not_open"

    @property
    def label(self) -> str:
        return "Open" if self is Openness.OPEN else "NotOpen"


# a stratum list holds at most this many strata, at any number of variables:
# build_locus keeps a verdict per stratum of V(I), and x1*x16 (49152 strata)
# takes over 20 s and ~100 MiB on a 2-core host; path and cycle ideals on up
# to 24 variables (121393 and 103682 strata) stay below the bound
MAX_STRATA = 1 << 17


def _meeting(ideal: MonomialIdeal, done: str) -> list[int]:
    """The strata meeting V(I), ascending: the hitting sets of the generator
    supports, listed in at most n + 1 steps per stratum.

    A walk chooses the bits x_n down to x_1, clear before set, and keeps
    the supports not yet hit as bits of an int.  Clearing x_i is a dead end
    when x_i is the lowest variable of such a support, and once every
    support is hit, each choice of the bits left is a stratum.  The walk
    stops after MAX_STRATA + 1 strata and raises ResourceLimit rather than
    list them all, the message saying what is ``done`` with at most
    MAX_STRATA.  A proper ideal's strata stay strata when variables outside
    its support join them, so with k such variables there are at least 2^k,
    and ResourceLimit is raised at once when 2^k > MAX_STRATA, i.e. when
    k >= MAX_STRATA.bit_length().  The unit ideal has no strata and the
    zero ideal all 2^n.
    """
    n = ideal.n
    support = _support_masks(ideal)
    containing, lowest = [0] * n, [0] * n  # per variable, bits of supports
    for k, g in enumerate(support):
        indexes = _indexes(g)
        for i in indexes:
            containing[i - 1] |= 1 << k
        if indexes:
            lowest[indexes[0] - 1] |= 1 << k
    unit = ideal.is_unit()
    too_many = not unit and containing.count(0) >= MAX_STRATA.bit_length()
    masks: list[int] = []
    # (bits left, bits chosen, supports not hit): each entry leads to a stratum
    stack = [] if unit or too_many else [(n, 0, (1 << len(support)) - 1)]
    while stack and len(masks) <= MAX_STRATA:
        b, z, unhit = stack.pop()
        if not unhit:
            masks += islice(range(z, z + (1 << b)), MAX_STRATA + 1 - len(masks))
            continue
        b -= 1
        stack.append((b, z | 1 << b, unhit & ~containing[b]))
        if not unhit & lowest[b]:
            stack.append((b, z, unhit))
    if too_many or len(masks) > MAX_STRATA:
        raise ResourceLimit(
            f"more than {MAX_STRATA} strata meet V(I); at most {MAX_STRATA} "
            f"are {done}"
        )
    return masks


def enumerate_strata(ideal: MonomialIdeal) -> list[int]:
    """The Z-masks of the strata meeting V(I), ascending; ResourceLimit beyond
    MAX_STRATA strata, however many variables the ideal has."""
    return _meeting(ideal, "classified")


def classify_stratum(decomposition: ColonDecomposition, z: int) -> GenerationClass:
    """Classify the algebra on the stratum z from the ideal's decomposition.

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

    Raises ValueError for a mask outside 0 <= z < 2^n, and
    InadmissibleStratum when the stratum misses V(I), i.e. phi_W(I) is the
    unit.
    """
    n = decomposition.base.n
    if not 0 <= z < 1 << n:
        raise ValueError(f"stratum mask {z} out of range for n={n}")
    inverted = _inverted(z, n)
    sub = substitute(decomposition.base, inverted)
    if sub.is_unit():
        raise InadmissibleStratum(f"{_render_z(z)} does not meet V(I)")
    j = substitute(decomposition.j_part.ranks, inverted)
    if len(_residual_rows(sub, j.gens, compute_beta(sub))):
        return GenerationClass.INFINITE
    return GenerationClass.PRINCIPAL


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


def render_expression(masks: Iterable[int], n: int) -> str:
    """Canonical D/V display of a union of strata (Z-masks) in n variables.

    Minimal members whose whole up-set (inside the ambient) belongs to the
    family contribute their closure V(x_j : j in Z); every other member is
    written as its locally closed stratum V(...) cap D(prod of W-variables).

    The members must lie in an upward-closed universe of strata, as in
    ``is_open``: a member's up-set is then every Z-superset of it, so it
    lies in the family iff each single-bit cover z | 1 << i does, and a
    member is minimal iff no co-cover z & ~(1 << i) lies in the family's
    upward closure.
    """
    masks = set(masks)
    if not masks:
        return "(empty)"
    above = _upward_closure(masks, n)
    closed: set[int] = set()  # members whose whole up-set is in the family
    for z in sorted(masks, key=int.bit_count, reverse=True):
        if all(z | 1 << i in closed for i in range(n) if not z >> i & 1):
            closed.add(z)
    consumed: set[int] = set()
    pieces = []
    for z in sorted(masks, key=lambda z: (z.bit_count(), z)):
        if z in consumed:
            continue
        minimal = not any(z & ~(1 << i) in above for i in range(n) if z >> i & 1)
        if minimal and z in closed:
            pieces.append(_render_v(z))
            consumed |= _upward_closure((z,), n)
        else:
            pieces.append(_render_stratum(z, n))
            consumed.add(z)
    return " ∪ ".join(pieces)


def _render_v(z: int) -> str:
    names = ",".join(f"x{i}" for i in _indexes(z))
    return f"V(({names}))"


def _render_stratum(z: int, n: int) -> str:
    v = _render_v(z) if z else None
    w = _inverted(z, n)
    d = "D(" + "*".join(f"x{i}" for i in w) + ")" if w else None
    if v and d:
        return f"({v} ∩ {d})"
    return v or d or "Spec"


# ---------------------------------------------------------------------------
# whole-spectrum report


@dataclass(frozen=True)
class LocusReport:
    """The stratum verdicts of an ideal, each a (Z-mask, class) pair in mask
    order, and the openness of U.  The D/V displays of U and U^c are
    rendered from the verdicts when first read."""

    ideal: MonomialIdeal
    p: int
    verdicts: tuple[tuple[int, GenerationClass], ...]
    openness: Openness
    notes: tuple[str, ...]

    def _display(self, principal: bool) -> str:
        """The D/V display of the strata whose verdict is (not) principal."""
        chosen = [
            z
            for z, generation in self.verdicts
            if (generation is GenerationClass.PRINCIPAL) is principal
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
    verdicts = tuple((z, classify_stratum(global_d, z)) for z in strata)

    u = {z for z, generation in verdicts if generation is GenerationClass.PRINCIPAL}
    openness = is_open(u, (z for z in strata if z not in u), ideal.n)

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
) -> tuple[int, ...]:
    """The Z-masks of the admissible strata inside Spec(S) \\ V(A) for a
    monomial annihilator A.

    A prime avoids V(A) iff some generator of A misses all its variables,
    which is a per-stratum condition.  Bounded as ``enumerate_strata`` is,
    on the strata meeting V(I), which are listed rather than classified.
    """
    support = _support_masks(annihilator)
    return tuple(
        z for z in _meeting(ideal, "listed") if any(a & z == 0 for a in support)
    )


def render_u_prime(annihilator: MonomialIdeal) -> str:
    """Spec(S) \\ V(A) as a union of basic opens, restricted to V(I).  A is
    never zero: J = 0 makes it the unit, and otherwise it contains I^[p]."""
    if annihilator.is_unit():
        return "V(I)"
    opens = " ∪ ".join(
        f"D({format_monomial(g)})" for g in annihilator.generators()
    )
    if annihilator.num_generators() > 1:
        opens = f"({opens})"
    return f"{opens} ∩ V(I)"
