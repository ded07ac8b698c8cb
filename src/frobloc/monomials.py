"""Exact arithmetic on monomials and monomial ideals.

A monomial in n variables is an exponent vector of n naturals; a monomial
ideal is stored as its unique minimal generating antichain, kept in
canonical form (distinct rows, lexicographically sorted) at every operation
boundary, so two ideals are equal iff their generator matrices are equal.

Exponents are int64 throughout; operations that could overflow (Frobenius
powers, products) check their inputs and refuse rather than wrap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .errors import AmbientMismatch, ResourceLimit

Exponents = Sequence[int]

# int64 headroom: reject results that could reach 2^62
_MAX_EXPONENT = 1 << 62

_DEFAULT_GEN_BUDGET = 100_000


def generator_budget() -> int:
    """Cap on intermediate generator counts (env FROBLOC_MAX_GENS).

    Unset or empty means the default; anything but a positive integer is
    rejected with ValueError rather than silently replaced.
    """
    raw = os.environ.get("FROBLOC_MAX_GENS", "")
    if not raw:
        return _DEFAULT_GEN_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"FROBLOC_MAX_GENS={raw!r} is not a positive integer")
    return budget


def _check_budget(count: int) -> None:
    budget = generator_budget()
    if count > budget:
        raise ResourceLimit(
            f"intermediate generator count {count} exceeds the bound {budget}"
        )


# Miller-Rabin with the prime bases up to 37 is exact below this bound
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for p < 3.3e24.

    Larger p raise ValueError: the fixed base set no longer proves
    primality there.
    """
    if p >= _MR_EXACT_BELOW:
        raise ValueError(
            f"p={p} is too large for an exact primality test (limit "
            f"{_MR_EXACT_BELOW})"
        )
    if p < 2:
        return False
    for base in _MR_BASES:
        if p % base == 0:
            return p == base
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Raise ValueError unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")


@dataclass(frozen=True)
class PrimePower:
    """q = p^e with p prime and e >= 1."""

    p: int
    e: int

    def __post_init__(self):
        require_prime(self.p)
        if self.e < 1:
            raise ValueError(f"e={self.e} must be >= 1 (q = p^e >= 2)")

    @property
    def q(self) -> int:
        return self.p**self.e


# ---------------------------------------------------------------------------
# monomial-level helpers


def mask_to_exponents(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def exponents_to_mask(exps: Exponents) -> int:
    """Support as an int: bit i-1 is set iff x_i occurs."""
    return sum(1 << i for i, c in enumerate(exps) if c > 0)


def format_monomial(exps: Exponents) -> str:
    """Render an exponent vector as x1^2*x3; the unit monomial is "1"."""
    parts = []
    for i, c in enumerate(exps, start=1):
        if c == 0:
            continue
        parts.append(f"x{i}" if c == 1 else f"x{i}^{c}")
    return "*".join(parts) or "1"


def as_matrix(mons: Iterable[Exponents], n: "int | None" = None) -> np.ndarray:
    """Stack exponent vectors into an (m, n) int64 matrix, validating shape."""
    rows = [tuple(int(c) for c in m) for m in mons]
    if n is None:
        if not rows:
            raise ValueError("ambient variable count required for an empty set")
        n = len(rows[0])
    for r in rows:
        if len(r) != n:
            raise AmbientMismatch(f"expected {n} exponents, got {len(r)}")
        if any(c < 0 for c in r):
            raise ValueError(f"negative exponent in {r}")
        if any(c >= _MAX_EXPONENT for c in r):
            raise OverflowError(f"exponent too large in {r}")
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


# ---------------------------------------------------------------------------
# ideals


class MonomialIdeal:
    """Monomial ideal given by its minimal generating antichain.

    The zero ideal has no generators; the unit ideal is generated by the
    all-zero vector.  Instances are immutable and hashable.
    """

    __slots__ = ("n", "gens")

    def __init__(self, gens: Iterable[Exponents], n: "int | None" = None):
        matrix = as_matrix(gens, n)
        self._install(_minimal_rows(matrix), matrix.shape[1])

    def _install(self, gens: np.ndarray, n: int) -> None:
        gens.setflags(write=False)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("MonomialIdeal is immutable")

    def __reduce__(self):
        # the default slot restore would trip the guard above; rebuilding
        # through the constructor also re-validates the unpickled rows
        return (MonomialIdeal, (self.gens.tolist(), self.n))

    @classmethod
    def _from_canonical(cls, gens: np.ndarray, n: int) -> "MonomialIdeal":
        ideal = cls.__new__(cls)
        ideal._install(gens, n)
        return ideal

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, n: int) -> "MonomialIdeal":
        matrix = np.asarray(matrix, dtype=np.int64).reshape(-1, n)
        if matrix.size and matrix.min() < 0:
            raise ValueError("negative exponent")
        return cls._from_canonical(_minimal_rows(matrix), n)

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls._from_canonical(np.empty((0, n), dtype=np.int64), n)

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls._from_canonical(np.zeros((1, n), dtype=np.int64), n)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.gens.shape[0] == 0

    def is_unit(self) -> bool:
        return self.gens.shape[0] == 1 and not self.gens.any()

    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(c) for c in row) for row in self.gens)

    def num_generators(self) -> int:
        return self.gens.shape[0]

    def contains_each(self, matrix: np.ndarray) -> np.ndarray:
        return _kernels.divides_any(self.gens, matrix)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.gens, other.gens)

    def __hash__(self) -> int:
        return hash((self.n, self.gens.tobytes()))

    def __repr__(self) -> str:
        return f"MonomialIdeal({list(self.generators())}, n={self.n})"

    def render(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(format_monomial(g) for g in self.generators()) + ")"

    def _same_ambient(self, other: "MonomialIdeal") -> None:
        if self.n != other.n:
            raise AmbientMismatch(f"ideals in {self.n} and {other.n} variables")

    # -- algebra ------------------------------------------------------------

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._same_ambient(other)
        a, b = self.gens, other.gens
        _check_budget(a.shape[0] * b.shape[0])
        hi = int(a.max(initial=0)) + int(b.max(initial=0))
        if hi >= _MAX_EXPONENT:
            raise OverflowError("product exponent exceeds the int64 guard")
        prods = (a[:, None, :] + b[None, :, :]).reshape(-1, self.n)
        return MonomialIdeal.from_matrix(prods, self.n)

    def __and__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Intersection: pairwise lcms, minimalized."""
        self._same_ambient(other)
        return MonomialIdeal._from_canonical(_lcm_rows(self.gens, other.gens, self.n), self.n)

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """(self : other) = {m | m*g in self for every generator g of other}.

        The intersection over generators g of (self : x^g), which is
        generated by the quotients lcm(h, x^g)/x^g over generators h.  Each
        step minimalizes once, over the lcms of the running antichain with
        the raw quotients: the lcms with a non-minimal quotient are divisible
        by those with a minimal quotient below it, so they drop out.
        """
        self._same_ambient(other)
        if other.is_zero():
            raise ValueError("colon by the zero ideal is undefined here")
        budget = generator_budget()
        result: "np.ndarray | None" = None
        for g in other.gens:
            quotients = np.maximum(self.gens, g) - g
            if result is None:
                result = _minimal_rows(quotients)
            elif result.shape[0]:
                if result.shape[0] * quotients.shape[0] > budget:
                    # the budget counts the minimal quotients; only a step
                    # over it with the raw ones pays for finding them
                    quotients = _minimal_rows(quotients)
                result = _lcm_rows(result, quotients, self.n)
        return MonomialIdeal._from_canonical(result, self.n)

    def frobenius_power(self, power: PrimePower) -> "MonomialIdeal":
        """I^[q]: generated by the q-th powers of the generators, for
        ``power = PrimePower(p, e)`` and q = p^e."""
        if power.e >= 62:  # q >= 2^e; refuse before computing p^e
            raise OverflowError(f"q = {power.p}^{power.e} exceeds the int64 guard")
        qv = power.q
        if self.gens.size and int(self.gens.max()) * qv >= _MAX_EXPONENT:
            raise OverflowError(f"exponent * {qv} exceeds the int64 guard")
        if qv >= _MAX_EXPONENT:
            raise OverflowError(f"q={qv} exceeds the int64 guard")
        # scaling an antichain is an antichain; rows stay sorted
        return MonomialIdeal._from_canonical(self.gens * np.int64(qv), self.n)


def _lcm_rows(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Canonical minimal lcms of the rows of a with the rows of b; the pair
    count is checked against the generator budget before any lcm is formed."""
    _check_budget(a.shape[0] * b.shape[0])
    lcms = np.maximum(a[:, None, :], b[None, :, :]).reshape(-1, n)
    return _minimal_rows(lcms)


def _minimal_rows(matrix: np.ndarray) -> np.ndarray:
    """Canonical minimal generating set: unique rows, antichain, lex order."""
    if matrix.shape[0] == 0:
        return matrix.astype(np.int64)
    # without an index output numpy.unique imports numpy.ma (and inspect):
    # ~1.3 MiB and ~17 ms on every cold CLI call
    unique = np.unique(matrix, axis=0, return_index=True)[0]
    keep = _kernels.minimal_mask(unique)
    return np.ascontiguousarray(unique[keep])


def substitute(ideal: MonomialIdeal, inverted: Iterable[int]) -> MonomialIdeal:
    """Set the variables in W to 1 (zero their exponents) and re-minimalize."""
    w = sorted(set(inverted))
    if not all(1 <= i <= ideal.n for i in w):
        raise ValueError(f"variable indexes out of range 1..{ideal.n}")
    if not w or ideal.is_zero():
        return ideal
    gens = ideal.gens.copy()
    gens[:, [i - 1 for i in w]] = 0
    return MonomialIdeal.from_matrix(gens, ideal.n)

