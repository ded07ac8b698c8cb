"""Benchmark of the numba kernels against the pure-numpy fallback.

Run as ``python -m frobloc.bench``.  Two workload families:

* synthetic antichain reduction / batch divisibility on random exponent
  matrices of growing size (the raw kernels), and
* an end-to-end generation-profile run (colon ideals, ideal products,
  repeated minimalization) on a random square-free ideal.

Numba timings exclude JIT compilation (a warmup call runs first).
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from . import _kernels
from .monomials import MonomialIdeal
from .oracle import classify_up_to


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _random_rows(rng, m: int, k: int, hi: int) -> np.ndarray:
    rows = rng.integers(0, hi, size=(m, k), dtype=np.int64)
    return np.unique(rows, axis=0)


def _random_squarefree(rng, n: int, gens: int) -> MonomialIdeal:
    # fixed-weight generators are automatically an antichain
    weight = max(2, n // 2)
    rows = set()
    while len(rows) < gens:
        support = set(rng.choice(n, weight, replace=False).tolist())
        rows.add(tuple(int(i in support) for i in range(n)))
    return MonomialIdeal(sorted(rows), n)


def run(sizes: list[int], repeats: int, seed: int) -> None:
    backends = list(_kernels.IMPLEMENTATIONS)
    if len(backends) < 2:
        print("numba backend unavailable; only numpy timings follow")
    rng = np.random.default_rng(seed)
    datasets = {m: _random_rows(rng, m, 6, 12) for m in sizes}
    queries = {m: _random_rows(rng, m, 6, 24) for m in sizes}

    print(f"kernel timings (best of {repeats}, seconds)")
    header = f"{'workload':<28}" + "".join(f"{b:>12}" for b in backends)
    print(header)
    for m in sizes:
        rows = datasets[m]
        qs = queries[m]
        for label, fn_name, args in (
            (f"minimal_mask m={rows.shape[0]}", 0, (rows,)),
            (f"divides_any m={qs.shape[0]}", 1, (rows, qs)),
        ):
            cells = []
            for backend in backends:
                impl = _kernels.IMPLEMENTATIONS[backend][fn_name]
                impl(*args)  # warmup / JIT
                cells.append(_time(lambda: impl(*args), repeats))
            print(f"{label:<28}" + "".join(f"{c:>12.4f}" for c in cells))

    ideal = _random_squarefree(rng, 6, 5)
    print(f"\nend-to-end generation profile, I = {ideal.render()}, p=2, max_e=3")
    original = _kernels.ACTIVE_BACKEND
    try:
        for backend in backends:
            _kernels.set_backend(backend)
            classify_up_to(ideal, 2, 3)  # warmup
            best = _time(lambda: classify_up_to(ideal, 2, 3), repeats)
            print(f"{backend:>8}: {best:.4f}s")
    finally:
        _kernels.set_backend(original)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[200, 2000, 20000],
        help="row counts for the synthetic kernel workloads",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    run(args.sizes, args.repeats, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
