"""Colon ideals (I^[q] : I) computed uniformly in q = p^e.

For a square-free monomial ideal the colon (I^[q] : I) is generated by
monomials whose exponents are affine forms a*q + b that hold simultaneously
for every q >= 2; in fact every exponent lands in {0, q-1, q}.  The computed
colon splits into three parts,

    (I^[q] : I) = image of I^[q]  +  J_q  +  ((x^beta)^(q-1)),

where beta marks the variables occurring in I and J_q is the residual
obstruction: the algebra of p^e-linear maps on the injective hull is
principally generated exactly when J is zero, infinitely generated
otherwise.

Symbolic exponents are encoded as (slope, value-at-q=2) pairs; with that
encoding, divisibility valid for every q >= 2 is plain componentwise <= on
the doubled exponent matrix, so the antichain kernels apply unchanged.
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


class SymbolicIdeal:
    """Antichain of symbolic monomials, uniform over all q >= 2.

    Internally an (m, 2n) int64 matrix: the first n columns are slopes, the
    last n the values at q = 2.  Uniform divisibility is componentwise <= on
    these rows, which keeps minimalization exact for every q at once.
    """

    __slots__ = ("n", "enc")

    def __init__(self, terms: Iterable[Sequence[tuple[int, int]]], n: int):
        rows = []
        for term in terms:
            term = list(term)
            if len(term) != n:
                raise ValueError(f"expected {n} symbolic exponents, got {len(term)}")
            slopes = [int(a) for a, _ in term]
            vals = [int(a) * 2 + int(b) for a, b in term]
            if any(a < 0 for a in slopes) or any(v < 0 for v in vals):
                raise ValueError(f"symbolic exponent negative at q=2: {term}")
            rows.append(slopes + vals)
        matrix = np.array(rows, dtype=np.int64).reshape(len(rows), 2 * n)
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
        enc = np.asarray(enc, dtype=np.int64).reshape(-1, 2 * n)
        return cls._from_canonical(_minimal_encoded(enc), n)

    @classmethod
    def zero(cls, n: int) -> "SymbolicIdeal":
        return cls._from_canonical(np.empty((0, 2 * n), dtype=np.int64), n)

    def is_zero(self) -> bool:
        return self.enc.shape[0] == 0

    def num_generators(self) -> int:
        return self.enc.shape[0]

    def terms(self) -> tuple[tuple[SymExp, ...], ...]:
        n = self.n
        out = []
        for row in self.enc:
            out.append(
                tuple(SymExp(int(row[i]), int(row[n + i] - 2 * row[i])) for i in range(n))
            )
        return tuple(out)

    def instantiate(self, q: int) -> MonomialIdeal:
        """Concrete ideal at the given q >= 2 (re-minimalized for safety)."""
        if q < 2:
            raise ValueError(f"q={q} must be >= 2")
        n = self.n
        slopes = self.enc[:, :n]
        vals = self.enc[:, n:]
        # a*q + b  ==  a*(q-2) + value-at-2
        exps = slopes * np.int64(q - 2) + vals
        return MonomialIdeal.from_matrix(exps, n)

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


def _minimal_encoded(matrix: np.ndarray) -> np.ndarray:
    if matrix.shape[0] == 0:
        return matrix.astype(np.int64)
    unique = np.unique(matrix, axis=0)
    keep = _kernels.minimal_mask(unique)
    return np.ascontiguousarray(unique[keep])


def _sym_max(a_slopes, a_vals, b_slopes, b_vals):
    """Componentwise max of affine forms; defined only for comparable pairs.

    Two forms are comparable when slope and q=2 value order the same way;
    all forms reached from square-free input stay inside the chain
    0 <= constants <= q-1 <= q, so incomparability signals a bug.
    """
    comparable = ((a_slopes <= b_slopes) & (a_vals <= b_vals)) | (
        (b_slopes <= a_slopes) & (b_vals <= a_vals)
    )
    if not comparable.all():
        raise FroblocError("incomparable symbolic exponents in lcm")
    return np.maximum(a_slopes, b_slopes), np.maximum(a_vals, b_vals)


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
    generators lcm(h, x^g)/x^g with exponents in {0, q-1, q}, and symbolic
    lcm/minimalization stay exact because that value set is totally ordered
    uniformly in q.  p itself plays no arithmetic role.
    """
    validate_square_free(ideal)
    _validate_p(p)
    n = ideal.n
    gens = ideal.gens
    # I^[q]: slope = generator exponent (0/1), value at 2 = twice that
    h_slopes = gens
    h_vals = 2 * gens

    result: "SymbolicIdeal | None" = None
    zero_slopes = np.zeros((1, n), dtype=np.int64)
    for g in gens:
        # the divisor x^g is a constant form: slope 0, value-at-2 equal to g
        s, v = _sym_max(h_slopes, h_vals, zero_slopes, g[None, :])
        v = v - g[None, :]
        single = SymbolicIdeal.from_encoded(np.hstack([s, v]), n)
        result = single if result is None else _sym_intersect(result, single)
    assert result is not None
    return result


def _sym_intersect(a: SymbolicIdeal, b: SymbolicIdeal) -> SymbolicIdeal:
    n = a.n
    if a.is_zero() or b.is_zero():
        return SymbolicIdeal.zero(n)
    asl, avl = a.enc[:, :n], a.enc[:, n:]
    bsl, bvl = b.enc[:, :n], b.enc[:, n:]
    s, v = _sym_max(
        asl[:, None, :], avl[:, None, :], bsl[None, :, :], bvl[None, :, :]
    )
    enc = np.concatenate([s, v], axis=2).reshape(-1, 2 * n)
    return SymbolicIdeal.from_encoded(enc, n)


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
        n = self.base.n
        cols = [i - 1 for i in w]
        enc = self.colon.enc.copy()
        enc[:, cols] = 0
        enc[:, [n + c for c in cols]] = 0
        return _partition(sub, self.p, SymbolicIdeal.from_encoded(enc, n))

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

    frob_enc = np.hstack([ideal.gens, 2 * ideal.gens])
    in_frob = _encoded_divides_any(frob_enc, sym.enc)
    socle_enc = np.array([[b for b in beta] + [b for b in beta]], dtype=np.int64)
    in_socle = _encoded_divides_any(socle_enc, sym.enc) & ~in_frob
    in_j = ~in_frob & ~in_socle

    frob_part = SymbolicIdeal._from_canonical(
        np.ascontiguousarray(sym.enc[in_frob]), n
    )
    j_part = SymbolicIdeal._from_canonical(np.ascontiguousarray(sym.enc[in_j]), n)

    # residual generators always carry a q and a q-1 exponent simultaneously
    for term in j_part.terms():
        pairs = {(a, b) for a, b in term}
        if (1, 0) not in pairs or (1, -1) not in pairs:
            raise FroblocError(f"residual generator without q/q-1 pattern: {term}")

    return ColonDecomposition(ideal, p, frob_part, j_part, beta, sym)


def _encoded_divides_any(gens_enc: np.ndarray, queries_enc: np.ndarray) -> np.ndarray:
    return _kernels.divides_any(gens_enc, queries_enc)


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
