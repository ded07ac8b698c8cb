"""Exhaustive enumeration of square-free monomial ideals up to symmetry.

Square-free ideals on n variables are exactly the nonempty antichains of
nonempty subsets of {1..n}; generators are kept as bitmasks here.  The
symmetric group permutes variables, and enumeration reports one canonical
representative per orbit together with the orbit size.
"""

from __future__ import annotations

from itertools import permutations

from .monomials import MonomialIdeal, exponents_to_mask, mask_to_exponents  # noqa: F401

# antichain counts grow like the Dedekind numbers; n=6 is already millions
MAX_ENUMERATION_VARS = 5


def ideal_from_masks(masks, n: int) -> MonomialIdeal:
    return MonomialIdeal([mask_to_exponents(m, n) for m in masks], n)


def antichains(n: int) -> list[tuple[int, ...]]:
    """All nonempty antichains of nonempty subsets of {1..n}, as mask tuples."""
    if n > MAX_ENUMERATION_VARS:
        raise ValueError(f"enumeration supported for n <= {MAX_ENUMERATION_VARS}")
    masks = list(range(1, 1 << n))
    out: list[tuple[int, ...]] = []

    def comparable(a: int, b: int) -> bool:
        meet = a & b
        return meet == a or meet == b

    def rec(start: int, chosen: list[int]) -> None:
        if chosen:
            out.append(tuple(chosen))
        for k in range(start, len(masks)):
            m = masks[k]
            if all(not comparable(m, c) for c in chosen):
                chosen.append(m)
                rec(k + 1, chosen)
                chosen.pop()

    rec(0, [])
    return out


def _permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i, target in enumerate(perm):
        if (mask >> i) & 1:
            out |= 1 << target
    return out


def canonical_key(masks, n: int) -> tuple[tuple[int, ...], int]:
    """Lex-least permuted image of the generator masks, plus the orbit size."""
    images = set()
    for perm in permutations(range(n)):
        images.add(tuple(sorted(_permute_mask(m, perm) for m in masks)))
    return min(images), len(images)


def canonical_squarefree_ideals(n: int) -> list[tuple[MonomialIdeal, int]]:
    """One (ideal, orbit size) pair per symmetry class of proper square-free
    ideals on exactly this ambient."""
    seen: dict[tuple[int, ...], int] = {}
    for chain in antichains(n):
        key, orbit = canonical_key(chain, n)
        if key not in seen:
            seen[key] = orbit
    ordered = sorted(seen.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return [(ideal_from_masks(key, n), orbit) for key, orbit in ordered]
