import os
import subprocess
import sys

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


@pytest.mark.skipif(not _kernels.NUMBA_AVAILABLE, reason="numba not importable")
def test_backends_agree():
    rng = np.random.default_rng(7)
    rows = _random_unique(rng, 200, 5, 6)
    queries = rng.integers(0, 12, size=(150, 5), dtype=np.int64)
    np_mask, np_div = _kernels.IMPLEMENTATIONS["numpy"]
    nb_mask, nb_div = _kernels.IMPLEMENTATIONS["numba"]
    assert np.array_equal(np_mask(rows), nb_mask(rows))
    assert np.array_equal(np_div(rows, queries), nb_div(rows, queries))


def test_set_backend_roundtrip():
    original = _kernels.ACTIVE_BACKEND
    try:
        _kernels.set_backend("numpy")
        assert _kernels.ACTIVE_BACKEND == "numpy"
        rows = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.int64)
        assert _kernels.minimal_mask(rows).tolist() == [True, True, False]
    finally:
        _kernels.set_backend(original)
    with pytest.raises(RuntimeError):
        _kernels.set_backend("cuda")


def test_env_flag_selects_numpy_backend():
    code = (
        "import frobloc._kernels as k; "
        "assert k.ACTIVE_BACKEND == 'numpy', k.ACTIVE_BACKEND; "
        "import frobloc; "
        "i = frobloc.MonomialIdeal([(1, 1, 0), (0, 1, 1)]); "
        "assert frobloc.decompose(i, 2).j_part.num_generators() == 2"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={
            "FROBLOC_BACKEND": "numpy",
            "PATH": "/usr/bin:/bin",
            # the child must import the same uninstalled frobloc as the parent
            "PYTHONPATH": os.environ.get("PYTHONPATH", ""),
        },
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
