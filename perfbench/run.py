"""Benchmark of the frobloc CLI on three seeded workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The commands run in this process through ``frobloc.cli.main`` with stdout
captured, single-threaded, in back-to-back passes (a closed loop: one pass
after the other) for ``--seconds``, at least three passes.

``--trace 0`` reports the end-to-end metrics: the median pass time
``wall_s``, ``units_per_s`` (strata, classes or oracle degrees per second),
``setup_s`` (median of seven fresh interpreters that import frobloc, build
the inputs and make one small warm call) and ``peak_rss_mib`` of this
process.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of ``layertrace.LAYER_METRICS`` (medians over the
traced passes); the spans are written to ``perfbench-out/``.

Every output is checked by the workload's gate after the timed passes; a
nonzero exit, an exception or a wrong payload counts in ``failed``.  The last
stdout line is the JSON result; the line before it records the environment,
the pass-time quartiles and the error rate.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from layertrace import LAYER_METRICS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = wl.ROOT / "perfbench-out"
SETUP_REPEATS = 7
MIN_PASSES = 3
UNITS = {"locus-graph": "strata", "enumerate-5": "classes", "oracle-deep": "degrees"}


def run_command(cli, argv) -> tuple:
    """(exit status, captured stdout); an uncaught error becomes the status."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    except Exception:  # the benchmark keeps going and counts the failure
        rc = traceback.format_exc(limit=3)
    return rc, out.getvalue()


def setup_samples(workload: str, seed: int) -> list[float]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=wl.ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def measure(cli, commands, seconds: float, tracer: "Tracer | None", budget: int):
    """Run passes for ``seconds``; with a tracer every second pass is traced."""
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    results = []  # (command index, status, stdout) of every execution
    layer, spans = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls["untraced"]) > len(walls["traced"])
        if traced:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        outputs = []
        for command in commands:
            if traced:
                tracer.command += 1
            outputs.append(run_command(cli, command.argv))
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            layer.append(tracer.pass_metrics(budget))
            spans.append(tracer.spans)
        walls["traced" if traced else "untraced"].append(wall)
        results.extend((i, rc, out) for i, (rc, out) in enumerate(outputs))
        # stop before a pass that would end past ``seconds``
        done = walls["untraced"] + walls["traced"]
        elapsed = time.perf_counter() - start
        if len(done) >= MIN_PASSES and elapsed + statistics.median(done) > seconds:
            return walls, results, layer, spans


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "n": len(values)}


def git_revision() -> "str | None":
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(frobloc) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "frobloc").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": frobloc.ACTIVE_BACKEND,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
        "frobloc_max_gens": frobloc.monomials.generator_budget(),
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        frobloc = wl.load_frobloc()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    setup = setup_samples(args.workload, args.seed) if not args.trace else []
    commands = wl.build(frobloc, args.workload, args.seed)
    warm_rc, _ = run_command(frobloc.cli, wl.warm_argv(args.workload, args.seed))
    budget = frobloc.monomials.generator_budget()
    tracer = Tracer() if args.trace else None
    walls, results, layer, spans = measure(
        frobloc.cli, commands, args.seconds, tracer, budget
    )
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # gates, outside the timed passes; each distinct output is checked once
    verdicts: dict = {}
    failures = [] if warm_rc == 0 else [f"warm call: exit status {warm_rc}"]
    for index, rc, out in results:
        key = (index, str(rc), out)
        if key not in verdicts:
            verdicts[key] = wl.verify(commands[index], rc, out)
        if verdicts[key] is not None:
            failures.append(f"{' '.join(commands[index].argv[:2])}: {verdicts[key]}")
    attempted = len(results) + 1

    wall_s = statistics.median(walls["untraced"])
    if args.trace:
        traced_wall = statistics.median(walls["traced"])
        values = {
            name: statistics.median(m[name] for m in layer)
            for name, _, _, _ in LAYER_METRICS
            if not name.startswith("trace.")
        }
        values["trace.untraced_wall_s"] = wall_s
        values["trace.traced_wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - wall_s
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in LAYER_METRICS
        }
    else:
        units = sum(c.units for c in commands)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "units_per_s": {"value": units / wall_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "unit_counted": UNITS[args.workload],
        "environment": environment(frobloc),
        "pass_s": {kind: quartiles(w) for kind, w in walls.items() if w},
        "setup_samples_s": setup,
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": metrics,
    }
    if args.trace:
        details["layer_metric_targets"] = {n: moves for n, _, _, moves in LAYER_METRICS}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.json.gz", spans)
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
