"""One set-up sample: import frobloc, build the seeded inputs, make the first
warm call.  Prints ``{"setup_s": ...}``; run by ``run.py`` in a fresh
interpreter so the import is cold every time.

Usage: python3 perfbench/probe.py WORKLOAD SEED
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    frobloc = wl.load_frobloc()
    wl.build(frobloc, workload, seed)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = frobloc.cli.main(list(wl.warm_argv(workload, seed)))
    elapsed = time.perf_counter() - START
    if rc != 0:
        print(f"warm call exited with {rc}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
