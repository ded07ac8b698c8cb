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
"""

from __future__ import annotations

import functools
from itertools import permutations
from math import factorial

import numpy as np

from .monomials import MonomialIdeal, exponents_to_mask, mask_to_exponents  # noqa: F401

# the truth table of an up-set on n variables has 2^n bits, one uint64 word;
# the census has 16351 classes at n = 6 (OEIS A003182 minus the constants)
MAX_ENUMERATION_VARS = 6


def ideal_from_masks(masks, n: int) -> MonomialIdeal:
    return MonomialIdeal([mask_to_exponents(m, n) for m in masks], n)


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


def _representatives(tables: np.ndarray, n: int) -> list[tuple[int, ...]]:
    """The printed key of each class: the lex-least sorted generator-mask
    tuple over its n! images.  Of two sorted tuples of as many distinct
    masks, the lesser holds the least mask in exactly one of them; flipping
    turns that mask into the highest differing bit, so the lex-least tuple
    is the image whose flipped generator table is greatest, the complement
    of the least image of the complement."""
    full = np.uint64((1 << (1 << n)) - 1)
    least, _ = _canonical(full ^ _flip(_minimal_members(tables, n), n), n)
    rows, masks = _unpack(_flip(full ^ least, n), n)
    keys = [[] for _ in tables]
    for row, mask in zip(rows.tolist(), masks.tolist()):
        keys[row].append(mask)
    return [tuple(key) for key in keys]


def canonical_squarefree_ideals(n: int) -> list[tuple[MonomialIdeal, int]]:
    """One (ideal, orbit size) pair per symmetry class of proper square-free
    ideals on exactly this ambient."""
    if n > MAX_ENUMERATION_VARS:
        raise ValueError(f"enumeration supported for n <= {MAX_ENUMERATION_VARS}")
    if n < 1:
        return []
    level = np.array([1 << ((1 << n) - 1)], dtype=np.uint64)  # the up-set {[n]}
    orbits = [np.ones(1, dtype=np.int64)]
    classes = [level]
    while True:
        least, orbit = _canonical(_children(level, n), n)
        level, first = np.unique(least, return_index=True)
        if not len(level):
            break
        classes.append(level)
        orbits.append(orbit[first])
    keys = _representatives(np.concatenate(classes), n)
    ordered = sorted(
        zip(keys, np.concatenate(orbits).tolist()), key=lambda kv: (len(kv[0]), kv[0])
    )
    return [(ideal_from_masks(key, n), orbit) for key, orbit in ordered]


@functools.cache
def _permuted_masks(n: int) -> np.ndarray:
    """(n!, 2^n) table: row s maps each subset mask m to its image under the
    s-th permutation of the variables."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    perms = np.array(list(permutations(range(n))))
    table = (bits[None, :, :] << perms[:, None, :]).sum(axis=2).astype(np.uint64)
    table.setflags(write=False)
    return table


def symmetry_class(ideal: MonomialIdeal) -> "int | None":
    """A key shared exactly by the square-free ideals that agree after
    dropping unused variables and relabelling the rest: the least image of
    the truth table of the ideal on its support (whose top bit, the product
    of the support, gives the support size).  None when the ideal is not
    square-free or its support is empty or has more than
    ``MAX_ENUMERATION_VARS`` variables."""
    used = ideal.gens.any(axis=0)
    n = int(used.sum())
    if not 1 <= n <= MAX_ENUMERATION_VARS or ideal.gens.max() > 1:
        return None
    masks = ideal.gens[:, used] @ (1 << np.arange(n))
    subsets = np.arange(1 << n)
    members = ((subsets[:, None] & masks) == masks).any(axis=1)
    images = (np.uint64(1) << _permuted_masks(n)[:, members]).sum(axis=1)
    return int(images.min())
