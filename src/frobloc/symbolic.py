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
0, 1 for q-1 and 2 for q.  The chain 0 < q-1 < q is the same for every
q >= 2, so uniform divisibility is componentwise <= on ranks and lcm is
componentwise max; the antichain kernels apply unchanged.  The affine form
a*q + b (``SymExp``) appears only at the boundary: construction, ``terms()``
and rendering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import DegenerateIdeal, FroblocError, SquareFreeViolation
from .monomials import MonomialIdeal, PrimePower, is_prime, substitute


class SymExp(NamedTuple):
    """The affine exponent a*q + b."""

    a: int
    b: int

    def at(self, q: int) -> int:
        return self.a * q + self.b


def _format_symexp(a: int, b: int) -> str:
    if a == 0:
        return str(b)
    head = "q" if a == 1 else f"{a}q"
    return head if b == 0 else f"{head}{b:+d}"


def format_symbolic_monomial(terms: Sequence[SymExp]) -> str:
    parts = []
    for i, (a, b) in enumerate(terms, start=1):
        if a == 0 and b == 0:
            continue
        if a == 0 and b == 1:
            parts.append(f"x{i}")
            continue
        text = _format_symexp(a, b)
        if text != "q" and not text.isdigit():
            text = f"({text})"
        parts.append(f"x{i}^{text}")
    return "*".join(parts) if parts else "1"


# the exponent of each rank, as an affine form a*q + b
_RANK_FORMS = (SymExp(0, 0), SymExp(1, -1), SymExp(1, 0))
_FORM_RANK = {form: rank for rank, form in enumerate(_RANK_FORMS)}


class SymbolicIdeal:
    """Antichain of symbolic monomials, uniform over all q >= 2.

    Internally an (m, n) int64 matrix of ranks (0, 1, 2 for 0, q-1, q).
    Uniform divisibility is componentwise <= on these rows, which keeps
    minimalization exact for every q at once.
    """

    __slots__ = ("n", "enc")

    def __init__(self, terms: Iterable[Sequence[tuple[int, int]]], n: int):
        rows = []
        for term in terms:
            term = list(term)
            if len(term) != n:
                raise ValueError(f"expected {n} symbolic exponents, got {len(term)}")
            try:
                rows.append([_FORM_RANK[int(a), int(b)] for a, b in term])
            except KeyError:
                raise ValueError(
                    f"symbolic exponent outside {{0, q-1, q}}: {term}"
                ) from None
        matrix = np.array(rows, dtype=np.int64).reshape(len(rows), n)
        self._install(_minimal_encoded(matrix), n)

    def _install(self, enc: np.ndarray, n: int) -> None:
        enc.setflags(write=False)
        object.__setattr__(self, "enc", enc)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicIdeal is immutable")

    @classmethod
    def _from_canonical(cls, enc: np.ndarray, n: int) -> "SymbolicIdeal":
        ideal = cls.__new__(cls)
        ideal._install(enc, n)
        return ideal

    @classmethod
    def from_encoded(cls, enc: np.ndarray, n: int) -> "SymbolicIdeal":
        enc = np.asarray(enc, dtype=np.int64).reshape(-1, n)
        return cls._from_canonical(_minimal_encoded(enc), n)

    @classmethod
    def zero(cls, n: int) -> "SymbolicIdeal":
        return cls._from_canonical(np.empty((0, n), dtype=np.int64), n)

    def is_zero(self) -> bool:
        return self.enc.shape[0] == 0

    def num_generators(self) -> int:
        return self.enc.shape[0]

    def terms(self) -> tuple[tuple[SymExp, ...], ...]:
        return tuple(tuple(_RANK_FORMS[r] for r in row) for row in self.enc.tolist())

    def instantiate(self, q: int) -> MonomialIdeal:
        """Concrete ideal at the given q >= 2 (re-minimalized for safety)."""
        if q < 2:
            raise ValueError(f"q={q} must be >= 2")
        exps = np.array([0, q - 1, q], dtype=np.int64)[self.enc]
        return MonomialIdeal.from_matrix(exps, self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicIdeal):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.enc, other.enc)

    def __hash__(self) -> int:
        return hash((self.n, self.enc.tobytes()))

    def __repr__(self) -> str:
        return f"SymbolicIdeal({[list(t) for t in self.terms()]}, n={self.n})"

    def render(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(format_symbolic_monomial(t) for t in self.terms()) + ")"


def _minimal_encoded(ranks: np.ndarray) -> np.ndarray:
    """Minimal rows of a rank matrix in the canonical generator order:
    lexicographic by the support (the slope vector of a*q + b), then by
    rank."""
    if ranks.shape[0] == 0:
        return ranks.astype(np.int64)
    unique = np.unique(ranks, axis=0)
    minimal = unique[_kernels.minimal_mask(unique)]
    # np.lexsort sorts by its last key first
    order = np.lexsort(np.hstack([minimal > 0, minimal]).T[::-1])
    return np.ascontiguousarray(minimal[order])


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
    if ideal.is_zero():
        return (0,) * ideal.n
    return tuple(int(v) for v in (ideal.gens > 0).any(axis=0))


def _validate_p(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    return p


def colon_symbolic(ideal: MonomialIdeal, p: int) -> SymbolicIdeal:
    """(I^[q] : I) as one symbolic ideal valid for every q = p^e.

    Intersection over generators g of (I^[q] : x^g); each single colon has
    generators lcm(h^[q], x^g)/x^g with exponents in {0, q-1, q}, and
    symbolic lcm/minimalization stay exact because that value set is totally
    ordered uniformly in q.  p itself plays no arithmetic role.
    """
    validate_square_free(ideal)
    _validate_p(p)
    n = ideal.n
    gens = ideal.gens

    result: "SymbolicIdeal | None" = None
    for g in gens:
        # exponent q - g_i where h_i = 1 and 0 elsewhere: rank 2 - g_i or 0
        single = SymbolicIdeal.from_encoded(2 * gens - (gens & g), n)
        result = single if result is None else _sym_intersect(result, single)
    assert result is not None
    return result


def _sym_intersect(a: SymbolicIdeal, b: SymbolicIdeal) -> SymbolicIdeal:
    if a.is_zero() or b.is_zero():
        return SymbolicIdeal.zero(a.n)
    lcms = np.maximum(a.enc[:, None, :], b.enc[None, :, :]).reshape(-1, a.n)
    return SymbolicIdeal.from_encoded(lcms, a.n)


class GenerationClass(enum.Enum):
    PRINCIPAL = "principal"
    INFINITE = "infinite"
    UNDETERMINED = "undetermined"

    @property
    def label(self) -> str:
        return {
            GenerationClass.PRINCIPAL: "PrincipallyGenerated",
            GenerationClass.INFINITE: "InfinitelyGenerated",
            GenerationClass.UNDETERMINED: "Undetermined",
        }[self]


class DecompositionParts(NamedTuple):
    frobenius: MonomialIdeal
    j: MonomialIdeal
    socle: MonomialIdeal
    colon: MonomialIdeal


@dataclass(frozen=True)
class ColonDecomposition:
    """(I^[q]:I) split into Frobenius image, residual J and socle generator.

    ``colon`` is the whole symbolic colon the three parts were cut from.
    """

    base: MonomialIdeal
    p: int
    frobenius_part: SymbolicIdeal
    j_part: SymbolicIdeal
    beta: tuple[int, ...]
    colon: SymbolicIdeal

    def localize(self, inverted: Iterable[int]) -> "ColonDecomposition":
        """The decomposition of substitute(base, W), W = ``inverted``.

        Localization commutes with the colon: setting the W variables to 1
        in (I^[q]:I) and re-minimalizing gives (phi_W(I)^[q] : phi_W(I)),
        so no colon is recomputed.  W must leave the base a proper ideal.
        """
        w = sorted(set(inverted))
        sub = substitute(self.base, w)
        enc = self.colon.enc.copy()
        enc[:, [i - 1 for i in w]] = 0
        return _partition(sub, self.p, SymbolicIdeal.from_encoded(enc, sub.n))

    @property
    def socle_exponents(self) -> tuple[SymExp, ...]:
        """(x^beta)^(q-1) as symbolic exponents."""
        return tuple(SymExp(b, -b) for b in self.beta)

    def instantiate(self, e: int) -> DecompositionParts:
        if e < 1:
            raise ValueError(f"e={e} must be >= 1")
        q = PrimePower(self.p, e).q
        frob = self.frobenius_part.instantiate(q)
        j = self.j_part.instantiate(q)
        socle = MonomialIdeal([[b * (q - 1) for b in self.beta]], self.base.n)
        full = self.base.frobenius_power(PrimePower(self.p, e)) + j + socle
        return DecompositionParts(frob, j, socle, full)

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
    return _partition(ideal, p, colon_symbolic(ideal, p))


def _partition(
    ideal: MonomialIdeal, p: int, sym: SymbolicIdeal
) -> ColonDecomposition:
    """Split the symbolic colon ``sym`` of ``ideal`` into the three groups."""
    validate_square_free(ideal)
    n = ideal.n
    beta = compute_beta(ideal)

    # the Frobenius part is divisible by some q*gamma_i (ranks 2*gamma_i),
    # the socle part by (x^beta)^(q-1) (ranks beta)
    in_frob = _kernels.divides_any(2 * ideal.gens, sym.enc)
    socle_enc = np.array([beta], dtype=np.int64)
    in_socle = _kernels.divides_any(socle_enc, sym.enc) & ~in_frob
    in_j = ~in_frob & ~in_socle

    frob_part = SymbolicIdeal._from_canonical(
        np.ascontiguousarray(sym.enc[in_frob]), n
    )
    j_part = SymbolicIdeal._from_canonical(np.ascontiguousarray(sym.enc[in_j]), n)

    # residual generators always carry a q and a q-1 exponent simultaneously
    j = j_part.enc
    pattern = (j == 1).any(axis=1) & (j == 2).any(axis=1)
    if not pattern.all():
        term = j_part.terms()[int(np.argmin(pattern))]
        raise FroblocError(f"residual generator without q/q-1 pattern: {term}")

    return ColonDecomposition(ideal, p, frob_part, j_part, beta, sym)


def classify_global(decomposition: ColonDecomposition) -> GenerationClass:
    """Principal iff the residual J part is zero."""
    return decomposition.generation_class


def compute_u_prime(decomposition: ColonDecomposition) -> MonomialIdeal:
    """Annihilator A of (I^[p] + J_p)/I^[p]; the locus is guaranteed
    finitely generated away from V(A).

    A = (I^[p] : J_p) at e = 1; when J is zero the quotient vanishes and A
    is the unit ideal.
    """
    if decomposition.j_part.is_zero():
        return MonomialIdeal.unit(decomposition.base.n)
    p = decomposition.p
    frob = decomposition.base.frobenius_power(PrimePower(p, 1))
    j_concrete = decomposition.j_part.instantiate(p)
    return frob.colon(j_concrete)
