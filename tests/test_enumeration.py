import random

import pytest

import _brute
from frobloc.enumeration import (
    canonical_squarefree_ideals,
    ideal_from_masks,
    symmetry_class,
)
from frobloc.monomials import MonomialIdeal, exponents_to_mask, mask_to_exponents
from frobloc.symbolic import validate_square_free


def test_mask_round_trip():
    for mask in range(1, 16):
        assert exponents_to_mask(mask_to_exponents(mask, 4)) == mask


@pytest.mark.parametrize(
    "n,count",
    [(1, 1), (2, 4), (3, 18), (4, 166)],
)
def test_antichain_counts(n, count):
    # nonempty antichains of nonempty subsets (Dedekind numbers minus two)
    assert len(_brute.antichains(n)) == count


def test_all_enumerated_ideals_validate():
    for chain in _brute.antichains(3):
        validate_square_free(ideal_from_masks(chain, 3))
    for n in range(1, 5):
        for ideal, _ in canonical_squarefree_ideals(n):
            validate_square_free(ideal)


def test_antichain_property():
    for chain in _brute.antichains(3):
        for i, a in enumerate(chain):
            for j, b in enumerate(chain):
                if i != j:
                    assert a & b != a and a & b != b


def test_canonical_key_permutation_invariant():
    # x1*x2, x2*x3 and x1*x3, x2*x3 are the same chain up to relabeling
    key1, orbit1 = _brute.canonical_key((0b011, 0b110), 3)
    key2, orbit2 = _brute.canonical_key((0b101, 0b110), 3)
    assert key1 == key2
    assert orbit1 == orbit2 == 3


def test_orbit_sizes_sum_to_total():
    for n in (2, 3, 4):
        reps = canonical_squarefree_ideals(n)
        assert sum(orbit for _, orbit in reps) == len(_brute.antichains(n))


def test_representative_counts():
    assert len(canonical_squarefree_ideals(1)) == 1
    assert len(canonical_squarefree_ideals(2)) == 3
    assert len(canonical_squarefree_ideals(3)) == 8


def test_too_many_variables_rejected():
    with pytest.raises(ValueError):
        canonical_squarefree_ideals(7)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matches_the_permutation_scan(n):
    # same representatives, same orbit sizes, same order as trying all n!
    # permutations on every antichain
    got = [
        (tuple(sorted(exponents_to_mask(g) for g in ideal.generators())), orbit)
        for ideal, orbit in canonical_squarefree_ideals(n)
    ]
    assert got == _brute.canonical_classes(n)
    for (key, _), (ideal, _) in zip(got, canonical_squarefree_ideals(n)):
        assert ideal == ideal_from_masks(key, n)


def test_ideal_from_masks_matches_the_validating_constructor(squarefree_classes):
    # the canonical rows installed without minimalizing, against the
    # constructor, on every class key and in either mask order
    for n in range(1, 7):
        for ideal, _ in squarefree_classes(n):
            key = sorted(exponents_to_mask(g) for g in ideal.generators())
            reference = MonomialIdeal([mask_to_exponents(m, n) for m in key], n)
            for masks in (key, key[::-1]):
                got = ideal_from_masks(masks, n)
                assert got == reference and hash(got) == hash(reference)
            assert ideal == reference and hash(ideal) == hash(reference)


@pytest.mark.parametrize(
    "n,classes,ideals",
    [(1, 1, 1), (2, 3, 4), (3, 8, 18), (4, 28, 166), (5, 208, 7579), (6, 16351, 7828352)],
)
def test_class_counts_and_orbit_sums(n, classes, ideals):
    # inequivalent monotone Boolean functions (OEIS A003182) and Dedekind
    # numbers, each minus the two constant functions
    reps = canonical_squarefree_ideals(n)
    assert len(reps) == classes
    assert sum(orbit for _, orbit in reps) == ideals


def _relabelled(ideal, m, rng):
    """The ideal on m >= n variables, its variables sent to random places."""
    places = rng.sample(range(m), ideal.n)
    rows = []
    for g in ideal.generators():
        row = [0] * m
        for i, c in enumerate(g):
            row[places[i]] = c
        rows.append(row)
    return MonomialIdeal(rows, m)


def test_symmetry_class_is_a_complete_invariant():
    rng = random.Random(11)
    keys = {}
    for n in range(1, 6):
        for ideal, _ in canonical_squarefree_ideals(n):
            key = symmetry_class(ideal)
            assert key is not None
            for m in (n, n + 1, 8):
                assert symmetry_class(_relabelled(ideal, m, rng)) == key
            used = tuple(sorted({i for g in ideal.generators() for i, c in enumerate(g) if c}))
            if len(used) == n:
                assert key not in keys, (ideal, keys.get(key))
                keys[key] = ideal
    # every class on five variables has exactly one full-support class on
    # its support
    assert len(keys) == 208


def test_symmetry_class_outside_its_range():
    assert symmetry_class(MonomialIdeal([(1,) * 7])) is None
    assert symmetry_class(MonomialIdeal([(2, 1)])) is None
    assert symmetry_class(MonomialIdeal.unit(3)) is None
    assert symmetry_class(MonomialIdeal.zero(3)) is None
