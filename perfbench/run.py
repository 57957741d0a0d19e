"""Benchmark of l1sample: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the ``src`` next to this directory, never
from elsewhere; without it the run exits with code 1.  The run sets up (import, inputs, warm-up) several times, then runs whole
rounds of the workload until another round would pass ``--seconds``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A record of the
run, with each round's outputs, goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import sys
import time

_START = time.perf_counter()

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
# BLAS threads per workload, fixed so runs compare and capped at the CPUs
# available.  The phase table's products (at most 160 x 257) run slower on
# two threads, and far slower when another process holds a core; the other
# workloads' products gain from both cores.
BLAS_THREADS = {"phase-table": 1, "rates-chebyshev": 2, "torus2d-fit": 2}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BLAS_THREADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package(blas_threads):
    """Import l1sample from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "l1sample" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no l1sample package under {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(src))
    import l1sample

    if pathlib.Path(l1sample.__file__).resolve().parent != (src / "l1sample").resolve():
        raise SystemExit(f"perfbench: l1sample imported from {l1sample.__file__}")


def set_up(workload):
    """Median over repeats of making the inputs plus one warm-up operation."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.make_inputs()
        workload.warm_up(inputs)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times)


def run_rounds(seconds, step):
    """Call step() at least once, and again while another call is expected
    to end within ``seconds``."""
    elapsed = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        elapsed.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(elapsed) > seconds:
            return


def main(argv=None):
    args = parse_args(argv)
    blas_threads = min(BLAS_THREADS[args.workload], len(os.sched_getaffinity(0)))
    import_package(blas_threads)
    import workloads

    import_s = time.perf_counter() - _START
    workload = workloads.WORKLOADS[args.workload](args.seed)
    inputs, inputs_s = set_up(workload)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    totals = {"attempted": 0, "failed": 0, "errors": [], "rounds": []}
    times = {False: [], True: []}  # program seconds of untraced and traced rounds

    def play(traced):
        clock = workloads.Clock(tracer if traced else None)
        if traced:
            tracer.install()
        try:
            outcome = workload.run_round(inputs, clock)
        finally:
            if traced:
                tracer.uninstall()
        totals["attempted"] += outcome.attempted
        totals["failed"] += outcome.failed
        totals["errors"] += outcome.errors
        times[traced].append(clock.seconds)
        totals["rounds"].append(dict(outcome.summary, seconds=clock.seconds, traced=traced))

    if tracer is None:
        run_rounds(args.seconds, lambda: play(False))
        values = {
            "wall_s": statistics.median(times[False]),
            "setup_s": import_s + inputs_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    else:
        # pairs of an untraced and a traced round; their difference is the
        # tracing overhead
        run_rounds(args.seconds, lambda: (play(False), play(True)))
        values = tracer.metrics(len(times[True]))
        values["trace.overhead_s"] = (statistics.median(times[True])
                                      - statistics.median(times[False]))
        totals["errors"] += tracer.errors
        units = tracing.UNITS

    for error in totals["errors"]:
        print("perfbench:", error, file=sys.stderr)
    result = {
        "correct": not totals["errors"],
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, blas_threads=blas_threads, import_s=import_s,
                  inputs_s=inputs_s, rounds=totals["rounds"], errors=totals["errors"])
    RECORD_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RECORD_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
