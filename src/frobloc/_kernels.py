"""Integer-matrix kernels shared by all ideal arithmetic.

Monomials are rows of int64 matrices (one column per exponent slot): the
concrete exponents of ``monomials`` and the 0/1/2 ranks of ``symbolic``.
The two operations that dominate every heavier computation in this package
are

* ``minimal_mask``  -- antichain reduction: flag rows not strictly dominated
  (componentwise >=) by another row, and
* ``divides_any``   -- batch divisibility: for each query row, does some
  generator row divide it componentwise.

Both are blocked numpy broadcasts.  ``perfbench/run.py --trace 1`` reports
their call, row and pair-operation counts on the end-to-end workloads.

All callers must pass matrices with pairwise-distinct rows to
``minimal_mask`` (duplicate rows would mask each other); ``as_matrix`` plus
``numpy.unique`` upstream guarantees this.
"""

from __future__ import annotations

import numpy as np

# numpy is the only backend.  The constant stays because the benchmark
# reads it (perfbench/run.py records it among its environment facts), as the
# module name stays because perfbench/layertrace.py wraps this module by name.
ACTIVE_BACKEND = "numpy"

# cap on elements touched per broadcast block: one block's boolean
# comparison temporary stays near 256 KiB
_BLOCK_ELEMS = 1 << 18


def minimal_mask(rows: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not strictly dominated by another (distinct) row."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
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


def divides_any(gens: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For each query row: does some generator row divide it componentwise."""
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    queries = np.ascontiguousarray(queries, dtype=np.int64)
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
