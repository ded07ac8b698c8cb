"""Exhaustive enumeration of square-free monomial ideals up to symmetry.

A proper nonzero square-free ideal on n variables is a nonempty up-set of
the Boolean lattice of subsets of {1..n} that does not contain the empty
set: x^m lies in the ideal iff m does, and the minimal members of the
up-set are the generators.  For n <= 6 the up-set fits one ``uint64``
truth table, bit m set iff x^m is in the ideal (bit i-1 of m is x_i).

The symmetric group permutes the variables.  Enumeration is orbit-wise:
starting from the up-set {[n]}, each level adds one maximal nonzero element
of the complement to every class representative of the level before, and
keeps a child only if its canonical form (the least of its n! images) is
new.  Every up-set of size k+1 is some up-set of size k plus one such
element, so every orbit is reached, each once.  The images are walked by
one variable transposition at a time (Heap's order), and the orbit size is
n! over the number of images equal to the table itself.

Each class is reported by its lex-least sorted tuple of generator masks
over the n! images, classes ordered by (generator count, that tuple).

The census classifies the strata of every class without localizing a colon.
On the stratum G_Z (W the complement of Z) the algebra is decided by the
class of phi_W(I), whose table bit m is bit m | W of I's table.  When Z
meets V(I), phi_W(I) is again a proper up-set containing [n], so it is one
of the enumerated classes, found by its least image among the sorted keys.
``stratum_table`` does this for every stratum of every class in one
batched pass: it localizes all truth tables a block of classes at a time,
canonicalizes the distinct admissible ones of each block, and looks each
up with one ``searchsorted``.  One decomposition per class then decides every
stratum of every class, and openness (``class_openness``) is the
single-bit-cover rule of ``locus`` (``is_open``) on the infinite strata.
The generators g & Z of phi_W(I) lie below the g, so no stratum localizes
to a later class: ``enumerate --check`` runs the oracle once per class, in
class order.
"""

from __future__ import annotations

import functools
from math import factorial
from typing import NamedTuple

import numpy as np

from .locus import Openness, is_open
from .monomials import MonomialIdeal, mask_to_exponents

# the truth table of an up-set on n variables has 2^n bits, one uint64 word;
# the census has 16351 classes at n = 6 (OEIS A003182 minus the constants)
MAX_ENUMERATION_VARS = 6


def ideal_from_masks(masks, n: int) -> MonomialIdeal:
    """The ideal generated by x^m over an antichain of distinct nonzero
    masks: its 0/1 rows, sorted, are already the canonical generators."""
    rows = sorted(mask_to_exponents(m, n) for m in masks)
    gens = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    return MonomialIdeal._from_canonical(gens, n)


def _positions(n: int, var: int, value: int) -> int:
    """Truth-table bits of the subsets m with bit ``var`` of m equal to value."""
    return sum(1 << m for m in range(1 << n) if (m >> var) & 1 == value)


@functools.cache
def _transpositions(n: int) -> tuple[tuple[np.uint64, np.uint64], ...]:
    """Delta swaps (shift, mask) of the n! - 1 variable transpositions of
    Heap's order; applied in turn to a truth table they visit its images
    under every permutation once.  Swapping variables j < i moves the bit of
    each m with bit j set and bit i clear up by 2^i - 2^j."""
    swaps = []
    counters = [0] * n
    i = 1
    while i < n:
        if counters[i] < i:
            j = 0 if i % 2 == 0 else counters[i]
            mask = _positions(n, j, 1) & _positions(n, i, 0)
            swaps.append((np.uint64((1 << i) - (1 << j)), np.uint64(mask)))
            counters[i] += 1
            i = 1
        else:
            counters[i] = 0
            i += 1
    return tuple(swaps)


def _canonical(tables: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Least image of each truth table and its orbit size."""
    image = tables.copy()
    least = tables.copy()
    fixed = np.ones(tables.shape, dtype=np.int64)
    for shift, mask in _transpositions(n):
        moved = ((image >> shift) ^ image) & mask
        image ^= moved ^ (moved << shift)
        np.minimum(least, image, out=least)
        fixed += image == tables
    return least, factorial(n) // fixed


def _unpack(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, bit) index pairs of the set bits, row-major and ascending."""
    shifts = np.arange(1 << n, dtype=np.uint64)
    return np.nonzero((words[:, None] >> shifts) & np.uint64(1))


def _children(tables: np.ndarray, n: int) -> np.ndarray:
    """Every up-set that adds one maximal nonzero non-member to a table."""
    full = np.uint64((1 << (1 << n)) - 1)
    outside = ~tables & full & ~np.uint64(1)
    covered = np.zeros_like(tables)
    for var in range(n):
        # bit m of the shift is bit m + 2^var: m plus x_(var+1)
        covered |= (outside >> np.uint64(1 << var)) & np.uint64(_positions(n, var, 0))
    rows, bits = _unpack(outside & ~covered, n)
    return tables[rows] | (np.uint64(1) << bits.astype(np.uint64))


def _minimal_members(tables: np.ndarray, n: int) -> np.ndarray:
    """The truth tables of the generators: the minimal members."""
    covered = np.zeros_like(tables)
    for var in range(n):
        # bit m of the shift is bit m - 2^var: m without x_(var+1)
        covered |= (tables << np.uint64(1 << var)) & np.uint64(_positions(n, var, 1))
    return tables & ~covered


def _flip(tables: np.ndarray, n: int) -> np.ndarray:
    """Complement every subset: bit m of each table moves to bit 2^n-1-m."""
    for var in range(n):
        shift, low = np.uint64(1 << var), np.uint64(_positions(n, var, 0))
        tables = ((tables >> shift) & low) | ((tables & low) << shift)
    return tables


def _representatives(tables: np.ndarray, n: int) -> np.ndarray:
    """The generator table of each class's printed key: the lex-least sorted
    generator-mask tuple over its n! images.  Of two sorted tuples of as
    many distinct masks, the lesser holds the least mask in exactly one of
    them; flipping turns that mask into the highest differing bit, so the
    lex-least tuple is the image whose flipped generator table is greatest,
    the complement of the least image of the complement."""
    full = np.uint64((1 << (1 << n)) - 1)
    least, _ = _canonical(full ^ _flip(_minimal_members(tables, n), n), n)
    return _flip(full ^ least, n)


def _up_sets(generators: np.ndarray, n: int) -> np.ndarray:
    """The truth table of the up-set of each generator table."""
    for var in range(n):
        # bit m of the shift is bit m - 2^var: m without x_(var+1)
        generators = generators | (
            (generators << np.uint64(1 << var)) & np.uint64(_positions(n, var, 1))
        )
    return generators


class Census(NamedTuple):
    """The symmetry classes of proper square-free ideals on n variables.

    ``classes`` holds one (representative, orbit size) pair per class in
    printed order, ``tables`` the up-set truth table of each representative
    in that order, and ``keys`` the least images of the classes, ascending,
    with ``key_class`` the index in ``classes`` of each."""

    n: int
    classes: list[tuple[MonomialIdeal, int]]
    tables: np.ndarray
    keys: np.ndarray
    key_class: np.ndarray


def census(n: int) -> Census:
    """Enumerate the symmetry classes of proper square-free ideals on
    exactly this ambient."""
    if n > MAX_ENUMERATION_VARS:
        raise ValueError(f"enumeration supported for n <= {MAX_ENUMERATION_VARS}")
    if n < 1:
        empty = np.zeros(0, dtype=np.uint64)
        return Census(n, [], empty, empty, np.zeros(0, dtype=np.int64))
    level = np.array([1 << ((1 << n) - 1)], dtype=np.uint64)  # the up-set {[n]}
    orbits = [np.ones(1, dtype=np.int64)]
    levels = [level]
    while True:
        least, orbit = _canonical(_children(level, n), n)
        level, first = np.unique(least, return_index=True)
        if not len(level):
            break
        levels.append(level)
        orbits.append(orbit[first])
    least = np.concatenate(levels)
    generators = _representatives(least, n)
    masks = [[] for _ in least]
    for row, mask in zip(*(a.tolist() for a in _unpack(generators, n))):
        masks[row].append(mask)
    orbit = np.concatenate(orbits).tolist()
    order = sorted(range(len(masks)), key=lambda c: (len(masks[c]), masks[c]))
    classes = [(ideal_from_masks(masks[c], n), orbit[c]) for c in order]
    least = least[order]
    key_class = np.argsort(least)
    tables = _up_sets(generators[order], n)
    return Census(n, classes, tables, least[key_class], key_class)


def _localized(tables, n: int) -> np.ndarray:
    """The truth table of phi_W(I) at every stratum of each table, indexed
    by its Z-mask (W is the complement of Z) along a new last axis: bit m
    of phi_W(I)'s table is bit m | W of I's, set variable by variable."""
    strata = np.arange(1 << n)
    tables = np.asarray(tables, dtype=np.uint64)[..., None]
    local = np.repeat(tables, 1 << n, axis=-1)
    for var in range(n):
        # bit m of the shift is bit m + 2^var: m plus x_(var+1)
        high = local & np.uint64(_positions(n, var, 1))
        moved = high | (high >> np.uint64(1 << var))
        np.copyto(local, moved, where=strata >> var & 1 == 0)
    return local


# localized tables per block, 64 KiB per uint64 array: larger blocks were
# faster but left their freed temporaries resident, up to 4.6 MiB more for
# the n = 6 census (16351 classes at 64 strata each)
_BLOCK = 1 << 13


def stratum_table(census: Census) -> np.ndarray:
    """The class index of phi_W(I) at every stratum of every class: row k
    is class k, column Z its stratum G_Z (W the complement of Z), and -1
    where Z misses V(I).

    Z meets V(I) iff phi_W(I) is proper, i.e. bit 0 of its table is clear;
    phi_W(I) then contains x^[n] and is itself a census class, found by its
    least image among the sorted keys.  Its generators g & Z lie below the
    g, so its printed key (generator count, then lex-least masks) is never
    above I's: no entry of row k exceeds k.  The tables are localized and
    canonicalized a block of classes at a time, and looked up in one
    ``searchsorted`` per block."""
    n = census.n
    # class indexes fit 16 bits (16351 classes at n = 6): the table is 2 MiB
    found = np.full((len(census.tables), 1 << n), -1, dtype=np.int16)
    step = max(1, _BLOCK >> n)
    for start in range(0, len(census.tables), step):
        local = _localized(census.tables[start : start + step], n)
        rows, strata = np.nonzero(local & np.uint64(1) == 0)
        # far fewer distinct tables than strata: 77395 for 523232 at n = 6
        distinct, inverse = np.unique(local[rows, strata], return_inverse=True)
        least, _ = _canonical(distinct, n)
        at = np.searchsorted(census.keys, least).clip(max=len(census.keys) - 1)
        if (census.keys[at] != least).any():
            raise RuntimeError("a localized ideal is missing from the census")
        found[start + rows, strata] = census.key_class[at][inverse]
    return found


def class_openness(row: np.ndarray, infinite: np.ndarray) -> Openness:
    """The openness of U for the class of ``row``, its row of
    ``stratum_table``, where ``infinite[k]`` says class k is infinitely
    generated: the strata that localize to an infinite class are U's
    complement in V(I)."""
    strata = np.flatnonzero(row >= 0)
    closed = infinite[row[strata]]
    u = set(strata[~closed].tolist())
    return is_open(u, strata[closed].tolist(), len(row).bit_length() - 1)
