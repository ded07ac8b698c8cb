import numpy as np
import pytest

import _brute
from frobloc import _kernels


def _random_unique(rng, m, k, hi):
    return np.unique(rng.integers(0, hi, size=(m, k), dtype=np.int64), axis=0)


@pytest.mark.parametrize("seed", range(5))
def test_minimal_mask_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    rows = _random_unique(rng, 40, 4, 5)
    keep = _kernels.minimal_mask(rows)
    expected = _brute.minimalize([tuple(r) for r in rows])
    assert sorted(map(tuple, rows[keep])) == expected


@pytest.mark.parametrize("seed", range(5))
def test_divides_any_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    gens = _random_unique(rng, 10, 4, 4)
    queries = rng.integers(0, 8, size=(60, 4), dtype=np.int64)
    got = _kernels.divides_any(gens, queries)
    gens_t = [tuple(g) for g in gens]
    for flag, q in zip(got, queries):
        assert bool(flag) == _brute.contains(gens_t, tuple(q))


def test_edge_shapes():
    empty = np.empty((0, 3), dtype=np.int64)
    rows = np.array([[1, 2, 3]], dtype=np.int64)
    assert _kernels.minimal_mask(empty).shape == (0,)
    assert _kernels.minimal_mask(rows).tolist() == [True]
    assert _kernels.divides_any(empty, rows).tolist() == [False]
    assert _kernels.divides_any(rows, empty).shape == (0,)
    # the degree test is strict, so equal rows never mask each other: every
    # copy survives, which is why _minimal_rows deduplicates first
    copies = np.array([[1, 0], [1, 0], [1, 1]], dtype=np.int64)
    assert _kernels.minimal_mask(copies).tolist() == [True, True, False]
