"""In-process span tracing of the ``frobloc`` layers.

``Tracer.install`` wraps, from outside the package, every public function of
each layer module plus three ``MonomialIdeal`` methods, and replaces every
import-time binding of the wrapped function in every loaded ``frobloc``
module (``decompose`` alone is bound in ``symbolic``, ``locus``, ``cli`` and
the package itself).  The private budget check ``_check_budget`` is wrapped
the same way, without a span, to record the peak intermediate generator
count.  ``uninstall`` restores the originals, so the untimed and untraced
code runs exactly as shipped.

A span is ``[name, start, end, parent, command]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``command`` the id the benchmark
assigns to each CLI invocation.  Spans stay in memory until written out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "locus", "symbolic", "oracle", "enumeration", "monomials", "_kernels")
METHODS = {"__mul__": "mul", "__and__": "intersect", "colon": "colon"}

# Per-layer metrics: (name, unit, better, end-to-end metric and workload it
# should move).  Kernel operation and byte counts are computed from array
# shapes, not measured: pair_ops counts exponent comparisons (m*m*k for
# minimal_mask, g*m*k for divides_any) and bytes the int64 inputs plus the
# boolean result.
LAYER_METRICS = [
    ("symbolic.decompose.calls", "count", "lower", "wall_s on locus-graph, enumerate-5"),
    ("symbolic.decompose_per_stratum", "ratio", "lower", "wall_s on locus-graph, enumerate-5"),
    ("symbolic.decompose.self_s", "s", "lower", "wall_s on locus-graph, enumerate-5"),
    ("symbolic.colon_symbolic.calls", "count", "lower", "wall_s on locus-graph, enumerate-5"),
    ("symbolic.colon_symbolic.self_s", "s", "lower", "wall_s on locus-graph, enumerate-5"),
    ("locus.build_locus.self_s", "s", "lower", "wall_s on locus-graph"),
    ("locus.classify_stratum.calls", "count", "lower", "wall_s on locus-graph"),
    ("locus.classify_stratum.self_s", "s", "lower", "wall_s on locus-graph"),
    ("locus.openness.self_s", "s", "lower", "wall_s on locus-graph"),
    ("enumeration.canonical_key.calls", "count", "lower", "wall_s on enumerate-5"),
    ("enumeration.canonical_key.busy_s", "s", "lower", "wall_s on enumerate-5"),
    ("enumeration.antichains.busy_s", "s", "lower", "wall_s on enumerate-5"),
    ("enumeration.images_per_class", "ratio", "lower", "wall_s on enumerate-5"),
    ("oracle.compute_f.calls", "count", "lower", "wall_s on oracle-deep"),
    ("oracle.compute_f.self_s", "s", "lower", "wall_s on oracle-deep"),
    ("oracle.compute_l.calls", "count", "lower", "wall_s on oracle-deep"),
    ("oracle.compute_l.self_s", "s", "lower", "wall_s on oracle-deep"),
    ("oracle.products_per_l", "ratio", "lower", "wall_s on oracle-deep"),
    ("monomials.mul.calls", "count", "lower", "peak_rss_mib, error_rate on oracle-deep"),
    ("monomials.mul.self_s", "s", "lower", "peak_rss_mib, error_rate on oracle-deep"),
    ("monomials.intersect.calls", "count", "lower", "peak_rss_mib, error_rate on oracle-deep"),
    ("monomials.intersect.self_s", "s", "lower", "peak_rss_mib, error_rate on oracle-deep"),
    ("monomials.colon.calls", "count", "lower", "peak_rss_mib, error_rate on oracle-deep"),
    ("monomials.colon.self_s", "s", "lower", "peak_rss_mib, error_rate on oracle-deep"),
    ("monomials.peak_gens", "count", "lower", "peak_rss_mib, error_rate on oracle-deep"),
    ("monomials.peak_gens_budget_frac", "ratio", "lower", "peak_rss_mib, error_rate on oracle-deep"),
    ("kernels.minimal_mask.calls", "count", "lower", "wall_s on all three workloads"),
    ("kernels.minimal_mask.rows_in", "count", "lower", "wall_s on all three workloads"),
    ("kernels.minimal_mask.keep_ratio", "ratio", "higher", "wall_s on all three workloads"),
    ("kernels.minimal_mask.max_rows", "count", "lower", "wall_s on oracle-deep"),
    ("kernels.minimal_mask.busy_s", "s", "lower", "wall_s on all three workloads"),
    ("kernels.minimal_mask.pair_ops", "ops_computed", "lower", "wall_s on oracle-deep"),
    ("kernels.minimal_mask.bytes", "B_computed", "lower", "wall_s on oracle-deep"),
    ("kernels.divides_any.calls", "count", "lower", "wall_s on locus-graph, enumerate-5"),
    ("kernels.divides_any.busy_s", "s", "lower", "wall_s on locus-graph, enumerate-5"),
    ("kernels.divides_any.pair_ops", "ops_computed", "lower", "wall_s on locus-graph, enumerate-5"),
    ("kernels.divides_any.bytes", "B_computed", "lower", "wall_s on locus-graph, enumerate-5"),
    ("cli.main.self_s", "s", "lower", "flat on every workload"),
    ("trace.overhead_s", "s", "lower", "flat on every workload"),
    ("trace.untraced_wall_s", "s", "lower", "wall_s on the same workload"),
    ("trace.traced_wall_s", "s", "lower", "wall_s on the same workload"),
]


def _layer_name(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    def __init__(self):
        self.command = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass: drop spans and shape counters, keep patches."""
        self.spans = []
        self._stack[:] = [-1]
        self.stats = defaultdict(float)
        self.class_keys: set = set()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer, stack, clock = self, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], tracer.command]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_minimal_mask(self, args, keep) -> None:
        m, k = args[0].shape
        s = self.stats
        s["mm_rows"] += m
        s["mm_kept"] += int(keep.sum())
        s["mm_max"] = max(s["mm_max"], m)
        s["mm_ops"] += m * m * k
        s["mm_bytes"] += 8 * m * k + m

    def _after_divides_any(self, args, out) -> None:
        g, k = args[0].shape
        m = args[1].shape[0]
        self.stats["da_ops"] += g * m * k
        self.stats["da_bytes"] += 8 * (g + m) * k + m

    def _after_canonical_key(self, args, result) -> None:
        self.stats["images"] += math.factorial(args[1])
        self.class_keys.add(result[0])

    def _peak_budget(self, fn):
        tracer = self

        @functools.wraps(fn)
        def check_budget(count):
            tracer.stats["peak_gens"] = max(tracer.stats["peak_gens"], count)
            return fn(count)

        return check_budget

    def install(self) -> None:
        """Wrap every layer and rebind each wrapped function everywhere."""
        import frobloc.monomials as monomials

        after = {
            "kernels.minimal_mask": self._after_minimal_mask,
            "kernels.divides_any": self._after_divides_any,
            "enumeration.canonical_key": self._after_canonical_key,
        }
        method_spans = {f"monomials.{short}" for short in METHODS.values()}
        replacements = {}
        for short in LAYERS:
            module = importlib.import_module(f"frobloc.{short}")
            for attr, obj in vars(module).items():
                name = f"{_layer_name(module.__name__)}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                    # monomials.colon(j, i) only forwards to the method
                    and name not in method_spans
                ):
                    replacements[id(obj)] = (obj, self._wrap(name, obj, after.get(name)))
        budget = monomials._check_budget
        replacements[id(budget)] = (budget, self._peak_budget(budget))

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "frobloc" or name.startswith("frobloc.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        cls = monomials.MonomialIdeal
        for attr, short in METHODS.items():
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"monomials.{short}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- analysis -----------------------------------------------------------

    def pass_metrics(self, budget: int) -> dict[str, float]:
        """Per-layer figures of the spans recorded since the last reset."""
        spans = self.spans
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(spans)
        open_names: list[set] = []  # names on the path from the root, per span
        products_in_l = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            if parent >= 0:
                child_time[parent] += duration
                ancestors = open_names[parent] | {spans[parent][0]}
            else:
                ancestors = frozenset()
            open_names.append(ancestors)
            calls[name] += 1
            if name not in ancestors:
                busy[name] += duration
            if name == "monomials.mul" and "oracle.compute_l" in ancestors:
                products_in_l += 1
        for i, span in enumerate(spans):
            self_time[span[0]] += span[2] - span[1] - child_time[i]

        s = self.stats
        strata = calls["locus.classify_stratum"]
        l_calls = calls["oracle.compute_l"]
        out = {
            "symbolic.decompose_per_stratum": calls["symbolic.decompose"] / strata if strata else 0.0,
            "locus.openness.self_s": self_time["locus.is_open"] + self_time["locus.render_expression"],
            "enumeration.images_per_class": s["images"] / len(self.class_keys) if self.class_keys else 0.0,
            "oracle.products_per_l": products_in_l / l_calls if l_calls else 0.0,
            "monomials.peak_gens": s["peak_gens"],
            "monomials.peak_gens_budget_frac": s["peak_gens"] / budget,
            "kernels.minimal_mask.rows_in": s["mm_rows"],
            "kernels.minimal_mask.keep_ratio": s["mm_kept"] / s["mm_rows"] if s["mm_rows"] else 0.0,
            "kernels.minimal_mask.max_rows": s["mm_max"],
            "kernels.minimal_mask.pair_ops": s["mm_ops"],
            "kernels.minimal_mask.bytes": s["mm_bytes"],
            "kernels.divides_any.pair_ops": s["da_ops"],
            "kernels.divides_any.bytes": s["da_bytes"],
        }
        for name, _, _, _ in LAYER_METRICS:
            if name in out or name.startswith("trace."):
                continue
            span_name, kind = name.rsplit(".", 1)
            table = {"calls": calls, "busy_s": busy, "self_s": self_time}[kind]
            out[name] = table[span_name]
        return out

    def dump(self, path, passes: list[list[list]]) -> None:
        """Write the spans of every traced pass as gzipped JSON."""
        names = sorted({s[0] for spans in passes for s in spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start", "end", "parent", "command"],
            "names": names,
            "passes": [
                [[index[n], round(a, 7), round(b, 7), p, c] for n, a, b, p, c in spans]
                for spans in passes
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
