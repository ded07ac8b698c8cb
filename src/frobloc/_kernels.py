"""Integer-matrix kernels shared by all ideal arithmetic.

Monomials are rows of int64 matrices (one column per exponent slot).  The
two operations that dominate every heavier computation in this package are

* ``minimal_mask``  -- antichain reduction: flag rows not strictly dominated
  (componentwise >=) by another row, and
* ``divides_any``   -- batch divisibility: for each query row, does some
  generator row divide it componentwise.

Both exist in a numba ``@njit`` flavour and a pure-numpy flavour.  The env
variable ``FROBLOC_BACKEND`` selects one explicitly (``numba`` or ``numpy``);
unset, numba is used when importable and numpy otherwise.  ``python -m
frobloc.bench`` compares the two on identical workloads.

All callers must pass matrices with pairwise-distinct rows to
``minimal_mask`` (duplicate rows would mask each other); ``as_matrix`` plus
``numpy.unique`` upstream guarantees this.
"""

from __future__ import annotations

import os

import numpy as np

_ENV_FLAG = "FROBLOC_BACKEND"
# cap on elements touched per broadcast block in the numpy paths: one
# block's boolean comparison temporary stays near 256 KiB
_BLOCK_ELEMS = 1 << 18


def _np_minimal_mask(rows: np.ndarray) -> np.ndarray:
    m, k = rows.shape
    keep = np.ones(m, dtype=bool)
    if m <= 1:
        return keep
    deg = rows.sum(axis=1)
    block = max(1, _BLOCK_ELEMS // (m * max(k, 1)))
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        # dominated[i, j]: row j divides row i (strictly, by degree pruning)
        dominated = (rows[None, :, :] <= rows[lo:hi, None, :]).all(axis=2)
        dominated &= deg[None, :] < deg[lo:hi, None]
        keep[lo:hi] = ~dominated.any(axis=1)
    return keep


def _np_divides_any(gens: np.ndarray, queries: np.ndarray) -> np.ndarray:
    m = queries.shape[0]
    if gens.shape[0] == 0 or m == 0:
        return np.zeros(m, dtype=bool)
    out = np.empty(m, dtype=bool)
    block = max(1, _BLOCK_ELEMS // (gens.shape[0] * max(gens.shape[1], 1)))
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        le = (gens[None, :, :] <= queries[lo:hi, None, :]).all(axis=2)
        out[lo:hi] = le.any(axis=1)
    return out


_requested = os.environ.get(_ENV_FLAG, "").strip().lower()
if _requested not in ("", "numpy", "numba"):
    raise RuntimeError(
        f"{_ENV_FLAG}={_requested!r} is not a valid backend (use 'numpy' or 'numba')"
    )

NUMBA_AVAILABLE = False
if _requested != "numpy":
    try:
        from numba import njit

        NUMBA_AVAILABLE = True
    except ImportError:
        if _requested == "numba":
            raise RuntimeError(
                f"{_ENV_FLAG}=numba was requested but numba cannot be imported"
            )

if NUMBA_AVAILABLE:

    @njit(cache=True)
    def _nb_minimal_mask(rows):  # pragma: no cover - exercised via dispatch
        m, k = rows.shape
        keep = np.ones(m, dtype=np.bool_)
        if m <= 1:
            return keep
        deg = np.empty(m, dtype=np.int64)
        for i in range(m):
            s = 0
            for t in range(k):
                s += rows[i, t]
            deg[i] = s
        for i in range(m):
            di = deg[i]
            for j in range(m):
                # equal-degree divisibility would force equal rows, which
                # the unique-rows precondition rules out
                if deg[j] >= di:
                    continue
                ok = True
                for t in range(k):
                    if rows[j, t] > rows[i, t]:
                        ok = False
                        break
                if ok:
                    keep[i] = False
                    break
        return keep

    @njit(cache=True)
    def _nb_divides_any(gens, queries):  # pragma: no cover - via dispatch
        g, k = gens.shape
        m = queries.shape[0]
        out = np.zeros(m, dtype=np.bool_)
        if g == 0:
            return out
        gdeg = np.empty(g, dtype=np.int64)
        for j in range(g):
            s = 0
            for t in range(k):
                s += gens[j, t]
            gdeg[j] = s
        for i in range(m):
            qd = 0
            for t in range(k):
                qd += queries[i, t]
            for j in range(g):
                if gdeg[j] > qd:
                    continue
                ok = True
                for t in range(k):
                    if gens[j, t] > queries[i, t]:
                        ok = False
                        break
                if ok:
                    out[i] = True
                    break
        return out

    IMPLEMENTATIONS = {
        "numpy": (_np_minimal_mask, _np_divides_any),
        "numba": (_nb_minimal_mask, _nb_divides_any),
    }
else:
    IMPLEMENTATIONS = {"numpy": (_np_minimal_mask, _np_divides_any)}

ACTIVE_BACKEND = "numba" if (NUMBA_AVAILABLE and _requested != "numpy") else "numpy"
_active = IMPLEMENTATIONS[ACTIVE_BACKEND]


def set_backend(name: str) -> None:
    """Switch the active backend at runtime (used by tests and the bench)."""
    global ACTIVE_BACKEND, _active
    if name not in IMPLEMENTATIONS:
        raise RuntimeError(f"backend {name!r} is not available in this process")
    ACTIVE_BACKEND = name
    _active = IMPLEMENTATIONS[name]


def minimal_mask(rows: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not strictly dominated by another (distinct) row."""
    return _active[0](np.ascontiguousarray(rows, dtype=np.int64))


def divides_any(gens: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For each query row: does some generator row divide it componentwise."""
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    queries = np.ascontiguousarray(queries, dtype=np.int64)
    return _active[1](gens, queries)


def warmup() -> None:
    """Force JIT compilation of the active kernels on a tiny input."""
    tiny = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.int64)
    minimal_mask(tiny)
    divides_any(tiny, tiny)
