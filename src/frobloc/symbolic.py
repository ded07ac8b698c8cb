"""Colon ideals (I^[q] : I) computed uniformly in q = p^e.

For a square-free monomial ideal the colon (I^[q] : I) is generated by
monomials whose exponents hold simultaneously for every q >= 2, and every
exponent lands in {0, q-1, q}.  The computed colon splits into three parts,

    (I^[q] : I) = image of I^[q]  +  J_q  +  ((x^beta)^(q-1)),

where beta marks the variables occurring in I and J_q is the residual
obstruction: the algebra of p^e-linear maps on the injective hull is
principally generated exactly when J is zero, infinitely generated
otherwise.

A symbolic monomial is a row of ranks, one per variable: 0 for the exponent
0, 1 for q-1 and 2 for q.  The chain 0 < q-1 < q is order-isomorphic to
0 < 1 < 2 for every q >= 2, so a symbolic ideal is the monomial ideal of its
ranks, the instance at q = 2: uniform divisibility, lcm and minimalization
are those of ``MonomialIdeal``, and the symbolic colon is the concrete colon
at q = 2.  For the same reason I^[2] is the rank image of I^[q]: a 0/1
generator scales to ranks 0 and 2.  Ranks are the one stored encoding: a
symbolic ideal is built from its rank ideal and read back as rank rows
(``rank_rows()``); ``render()`` prints each rank through a fixed suffix,
none, ``^(q-1)`` or ``^q``, and the CLI's JSON writes it as a*q + b.

One residual-row test (``_residual_rows``: rank rows outside I^[2] and not
above beta) cuts J out of the colon here, and decides each stratum in
``locus`` on the global J with the stratum's inverted variables substituted,
so a stratum never needs a colon or a decomposition of its own.

J can also be read off the generators alone.  The colon is the intersection
over generators g of (I^[q] : x^g), each generated by the quotients of
(x^h)^q for generators h, so its rows are the lcms r_h over the choice
functions h: g -> h_g: rank 2 (q) on T_h, the union of the h_g minus g, and
rank 1 on the rest of S_h, the union of the h_g.  The monomials outside
I^[q] + ((x^beta)^(q-1)) form a down-set and every colon row lies above a
minimal one, so J != 0 iff some r_h is residual: T_h contains no generator
and S_h misses some v of supp(I).  Then every h_g misses v, and for g not
containing v the choice h_g = g keeps v out of S_h and only shrinks T_h.
Hence J != 0 iff some v in supp(I) has, for each generator g containing v,
a generator h_g missing v such that the union of the h_g minus g contains
no generator.  For (x1*x2, x2*x3) (M. Katzman, "A non-finitely generated
algebra of Frobenius maps", Proc. AMS 2010) v = x1 and h = x2*x3 leave
{x3}, so J != 0.  The criterion involves neither q nor p; the tests use it
as a reference that shares nothing with the colon.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateIdeal, FroblocError, SquareFreeViolation
from .monomials import _MAX_EXPONENT, MonomialIdeal, PrimePower, require_prime


# the exponent of each rank as printed
_RANK_SUFFIX = ("", "^(q-1)", "^q")
# q = 2: I^[2] is the rank image of I^[q] for a square-free I
_Q2 = PrimePower(2, 1)


@dataclass(frozen=True)
class SymbolicIdeal:
    """Antichain of symbolic monomials, uniform over all q >= 2.

    ``ranks`` is the ideal at q = 2: its exponents 0, 1, 2 are the ranks of
    0, q-1, q, and no other exponent is accepted.  The map 0 -> 0,
    1 -> q-1, 2 -> q is strictly increasing for every q >= 2, so
    divisibility, lcm and minimalization of the rank ideal are those of
    every instance at once.
    """

    ranks: MonomialIdeal

    def __post_init__(self):
        if self.ranks.gens.max(initial=0) > 2:
            raise ValueError("symbolic rank above 2: exponents lie in {0, q-1, q}")

    @property
    def n(self) -> int:
        return self.ranks.n

    def is_zero(self) -> bool:
        return self.ranks.is_zero()

    def rank_rows(self) -> list[list[int]]:
        """The rank rows in display order: lexicographic by the support (the
        slope vector of a*q + b), then by rank."""
        return sorted(
            self.ranks.gens.tolist(), key=lambda row: ([r > 0 for r in row], row)
        )

    def instantiate(self, q: int) -> MonomialIdeal:
        """The concrete ideal at the given q >= 2."""
        if q < 2:
            raise ValueError(f"q={q} must be >= 2")
        if q >= _MAX_EXPONENT:
            raise OverflowError(f"q={q} exceeds the int64 guard")
        # 0 -> 0, 1 -> q-1, 2 -> q is strictly increasing, so the lex-sorted
        # rank antichain maps onto a lex-sorted antichain: already canonical
        exps = np.array([0, q - 1, q], dtype=np.int64)[self.ranks.gens]
        return MonomialIdeal._from_canonical(exps, self.n)

    def render(self) -> str:
        if self.is_zero():
            return "(0)"
        monomials = (
            "*".join(f"x{i}{_RANK_SUFFIX[r]}" for i, r in enumerate(row, 1) if r)
            or "1"
            for row in self.rank_rows()
        )
        return "(" + ", ".join(monomials) + ")"


# ---------------------------------------------------------------------------
# validation and the decomposition


def validate_square_free(ideal: MonomialIdeal) -> MonomialIdeal:
    """Accept a proper square-free ideal; reject zero/unit and exponents > 1."""
    if ideal.is_zero() or ideal.is_unit():
        raise DegenerateIdeal("the zero and unit ideals have no decomposition")
    if ideal.gens.max() > 1:
        bad = next(g for g in ideal.generators() if max(g) > 1)
        raise SquareFreeViolation(f"generator {bad} has an exponent > 1")
    return ideal


def compute_beta(ideal: MonomialIdeal) -> tuple[int, ...]:
    """beta_i = 1 iff variable i occurs in some generator."""
    return tuple(int(v) for v in (ideal.gens > 0).any(axis=0))


def colon_symbolic(ideal: MonomialIdeal) -> SymbolicIdeal:
    """(I^[q] : I) as one symbolic ideal valid for every prime power q = p^e.

    It is the concrete colon at q = 2, read as ranks.  The colon is the
    intersection over generators g of (I^[q] : x^g), generated by
    max(q*h, g) - g over generators h: exponent q - g_i where h_i = 1 and 0
    elsewhere, so every exponent lies in {0, q-1, q}.  The chain
    0 < q-1 < q is order-isomorphic to 0 < 1 < 2 for every q >= 2, and lcm
    and minimalization only compare exponents, so each step of the
    computation at q = 2 is the rank image of the same step at any q,
    whatever the characteristic p.
    """
    validate_square_free(ideal)
    return SymbolicIdeal(ideal.frobenius_power(_Q2).colon(ideal))


class GenerationClass(enum.Enum):
    PRINCIPAL = "principal"
    INFINITE = "infinite"

    @property
    def label(self) -> str:
        if self is GenerationClass.PRINCIPAL:
            return "PrincipallyGenerated"
        return "InfinitelyGenerated"


@dataclass(frozen=True)
class ColonDecomposition:
    """(I^[q]:I) split into Frobenius image, residual J and socle generator."""

    base: MonomialIdeal
    p: int
    frobenius_part: SymbolicIdeal
    j_part: SymbolicIdeal
    beta: tuple[int, ...]

    @property
    def generation_class(self) -> GenerationClass:
        return (
            GenerationClass.PRINCIPAL
            if self.j_part.is_zero()
            else GenerationClass.INFINITE
        )

    @property
    def principal_witness(self) -> "tuple[int, ...] | None":
        """Degree-one algebra generator (x^beta)^(p-1) in the principal case."""
        if not self.j_part.is_zero():
            return None
        return tuple(b * (self.p - 1) for b in self.beta)


def decompose(ideal: MonomialIdeal, p: int) -> ColonDecomposition:
    """Partition the minimal generators of (I^[q]:I) into the three groups.

    Generators divisible by some q*gamma_i belong to the image of I^[q];
    of the rest, those divisible by (x^beta)^(q-1) belong to the socle part;
    whatever remains is J.  Divisibility is the uniform (all q >= 2) one.
    """
    validate_square_free(ideal)
    require_prime(p)
    rows = colon_symbolic(ideal).ranks.gens
    beta = compute_beta(ideal)
    in_image = ideal.frobenius_power(_Q2).contains_each(rows)
    # a subset of a canonical antichain is canonical
    frob, j = rows[in_image], _outside_socle(rows[~in_image], beta)
    return ColonDecomposition(
        ideal,
        p,
        SymbolicIdeal(MonomialIdeal._from_canonical(frob, ideal.n)),
        SymbolicIdeal(MonomialIdeal._from_canonical(j, ideal.n)),
        beta,
    )


def _residual_rows(
    ideal: MonomialIdeal, rows: np.ndarray, beta: Sequence[int]
) -> np.ndarray:
    """The rank rows outside ideal^[2] (the ranks of I^[q]) that
    ``_outside_socle`` keeps: J's rows when ``rows`` is the colon of
    ``ideal``, or its J part, and ``beta`` its support."""
    return _outside_socle(rows[~ideal.frobenius_power(_Q2).contains_each(rows)], beta)


def _outside_socle(rows: np.ndarray, beta: Sequence[int]) -> np.ndarray:
    """The rows not >= beta (not divisible by (x^beta)^(q-1)) among rank rows
    outside I^[2].

    Residual generators always carry a q and a q-1 exponent simultaneously;
    a residual row without both raises FroblocError.
    """
    rows = rows[~(rows >= np.asarray(beta)).all(axis=1)]
    pattern = (rows == 1).any(axis=1) & (rows == 2).any(axis=1)
    if not pattern.all():
        bad = rows[[int(np.argmin(pattern))]]
        row = SymbolicIdeal(MonomialIdeal._from_canonical(bad, rows.shape[1])).render()
        raise FroblocError(f"residual generator without q/q-1 pattern: {row}")
    return rows


def compute_u_prime(decomposition: ColonDecomposition) -> MonomialIdeal:
    """Annihilator A of (I^[p] + J_p)/I^[p]; the locus is guaranteed
    finitely generated away from V(A).

    A = (I^[p] : J_p) at e = 1; when J is zero the quotient vanishes and A
    is the unit ideal.

    A's supports, and with them U', do not depend on p.  J's rank rows do
    not involve p, and J_p puts p-1 on rank 1 and p on rank 2.  A is the
    intersection over J's generators x^j of the ideals generated by the
    quotients x^(max(p*h, j) - j) over I's generators x^h.  Where h_i = 1
    the quotient sends j's ranks 0, 1, 2 to p, 1, 0; elsewhere it gives 0.
    So every quotient has exponents in {0, 1, p} in a pattern fixed by h
    and j.  lcm and minimalization only compare exponents, and 0 < 1 < p is
    order-isomorphic to 0 < 1 < 2, so A is that pattern at every p.
    """
    if decomposition.j_part.is_zero():
        return MonomialIdeal.unit(decomposition.base.n)
    p = decomposition.p
    frob = decomposition.base.frobenius_power(PrimePower(p, 1))
    j_concrete = decomposition.j_part.instantiate(p)
    return frob.colon(j_concrete)
