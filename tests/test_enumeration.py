import random

import numpy as np
import pytest

import _brute
from frobloc import enumeration
from frobloc.enumeration import (
    _canonical,
    _localized,
    census,
    class_openness,
    ideal_from_masks,
    stratum_table,
)
from frobloc.locus import build_locus, enumerate_strata, u_prime_strata
from frobloc.monomials import (
    MonomialIdeal,
    exponents_to_mask,
    mask_to_exponents,
    substitute,
)
from frobloc.symbolic import (
    GenerationClass,
    compute_u_prime,
    decompose,
    validate_square_free,
)


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
        for ideal, _ in census(n).classes:
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
        reps = census(n).classes
        assert sum(orbit for _, orbit in reps) == len(_brute.antichains(n))


def test_representative_counts():
    assert len(census(1).classes) == 1
    assert len(census(2).classes) == 3
    assert len(census(3).classes) == 8


def test_too_many_variables_rejected():
    with pytest.raises(ValueError):
        census(7)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matches_the_permutation_scan(n):
    # same representatives, same orbit sizes, same order as trying all n!
    # permutations on every antichain
    got = [
        (tuple(sorted(exponents_to_mask(g) for g in ideal.generators())), orbit)
        for ideal, orbit in census(n).classes
    ]
    assert got == _brute.canonical_classes(n)
    for (key, _), (ideal, _) in zip(got, census(n).classes):
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
    reps = census(n).classes
    assert len(reps) == classes
    assert sum(orbit for _, orbit in reps) == ideals


# ---------------------------------------------------------------------------
# the census: each stratum's class looked up, not classified


def _truth_table(ideal):
    """Bit m set iff x^m lies in the square-free ideal."""
    masks = [exponents_to_mask(g) for g in ideal.generators()]
    return sum(1 << m for m in range(1 << ideal.n) if any(g & m == g for g in masks))


def _generations(c, rows, p):
    """The verdict of every class that a stratum of ``rows`` localizes to,
    and the census-wide infinite flags with those classes filled in."""
    needed = np.unique(rows[rows >= 0]).tolist()
    generation = {k: decompose(c.classes[k][0], p).generation_class for k in needed}
    infinite = np.zeros(len(c.classes), dtype=bool)
    infinite[needed] = [generation[k] is GenerationClass.INFINITE for k in needed]
    return generation, infinite


def _assert_matches_build_locus(c, table, indexes, p):
    rows = table[list(indexes)]
    generation, infinite = _generations(c, rows, p)
    checked = 0
    for index, row in zip(indexes, rows):
        ideal = c.classes[index][0]
        strata = np.flatnonzero(row >= 0)
        local = row[strata]
        strata = strata.tolist()
        report = build_locus(ideal, p)
        assert strata == enumerate_strata(ideal), ideal
        verdicts = [generation[k] for k in local.tolist()]
        assert list(zip(strata, verdicts)) == list(report.verdicts), ideal
        assert class_openness(row, infinite) is report.openness, ideal
        assert generation[index] is decompose(ideal, p).generation_class
        # no stratum localizes to a later class: the order the oracle runs in
        assert local.max() <= index, ideal
        checked += len(strata)
    return checked


@pytest.mark.parametrize("p", [2, 3])
def test_census_verdicts_equal_build_locus(censuses, stratum_tables, p):
    for n in range(1, 6):
        c, table = censuses(n), stratum_tables(n)
        checked = _assert_matches_build_locus(c, table, range(len(c.classes)), p)
    assert checked == 3328


@pytest.mark.parametrize("p", [2, 3])
def test_census_verdicts_equal_build_locus_on_sampled_n6(censuses, stratum_tables, p):
    c = censuses(6)
    sample = random.Random(6).sample(range(len(c.classes)), 120)
    assert _assert_matches_build_locus(c, stratum_tables(6), sample, p) > len(sample)


def test_blocked_table_equals_the_per_class_lookup(censuses, stratum_tables):
    # the census-wide table, localized and canonicalized in blocks of
    # classes over distinct tables, against one class at a time
    c, table = censuses(6), stratum_tables(6)
    for index in random.Random(20).sample(range(len(c.classes)), 300):
        local = _localized(c.tables[index], 6)
        strata = np.flatnonzero(local & np.uint64(1) == 0)
        least, _ = _canonical(local[strata], 6)
        at = np.searchsorted(c.keys, least)
        assert (c.keys[at] == least).all()
        assert np.flatnonzero(table[index] >= 0).tolist() == strata.tolist()
        assert table[index, strata].tolist() == c.key_class[at].tolist()


def test_table_does_not_depend_on_the_block(censuses, stratum_tables, monkeypatch):
    # blocks of one class up to the whole census give the same table
    for block in (1 << 5, 1 << 9):
        monkeypatch.setattr(enumeration, "_BLOCK", block)
        assert (stratum_table(censuses(5)) == stratum_tables(5)).all()


def test_localized_tables_equal_substitute(censuses):
    for n in range(1, 5):
        c = censuses(n)
        full = (1 << n) - 1
        for index, (ideal, _) in enumerate(c.classes):
            assert int(c.tables[index]) == _truth_table(ideal)
            local = _localized(int(c.tables[index]), n)
            for z in range(1 << n):
                inverted = [i + 1 for i in range(n) if (full ^ z) >> i & 1]
                assert int(local[z]) == _truth_table(substitute(ideal, inverted))


def test_stratum_lookup_misses_raise(censuses):
    # without the class of (x1), the localization of (x1*x2) at x2 misses
    c = censuses(3)
    x1 = np.array([_truth_table(MonomialIdeal([(1, 0, 0)]))], dtype=np.uint64)
    kept = c.keys != _canonical(x1, 3)[0]
    broken = c._replace(keys=c.keys[kept], key_class=c.key_class[kept])
    with pytest.raises(RuntimeError, match="missing from the census"):
        stratum_table(broken)


@pytest.mark.parametrize("p", [2, 3])
def test_abstract_claims_hold_on_the_census(censuses, stratum_tables, p):
    # on all 248 classes with n <= 5: U has a stratum inside V(I), and every
    # stratum of U' is principal; U' is empty on 13 classes and all of U on
    # only 83, so U \ U' is often nonempty
    classes = empty = equal = 0
    for n in range(1, 6):
        c, table = censuses(n), stratum_tables(n)
        _, infinite = _generations(c, table, p)
        for index, (ideal, _) in enumerate(c.classes):
            strata = np.flatnonzero(table[index] >= 0)
            u = set(strata[~infinite[table[index, strata]]].tolist())
            assert u, ideal
            u_prime = set(u_prime_strata(ideal, compute_u_prime(decompose(ideal, p))))
            assert u_prime <= u, ideal
            classes += 1
            empty += not u_prime
            equal += u_prime == u
    assert (classes, empty, equal) == (248, 13, 83)


def test_u_prime_does_not_depend_on_p(squarefree_classes):
    # A = (I^[p] : J_p) has exponents in {0, 1, p} in a pattern that does not
    # involve p (the compute_u_prime docstring): its generator supports and
    # the strata of U' are the same at every p
    for n in range(1, 6):
        for ideal, _ in squarefree_classes(n):
            seen = set()
            for p in (2, 3, 5, 7):
                annihilator = compute_u_prime(decompose(ideal, p))
                assert set(annihilator.gens.ravel().tolist()) <= {0, 1, p}, ideal
                supports = tuple(exponents_to_mask(g) for g in annihilator.generators())
                strata = u_prime_strata(ideal, annihilator)
                seen.add((supports, strata))
            assert len(seen) == 1, ideal
