"""Benchmark entry point: run one workload for a time budget, print metrics.

    python3 perfbench/run.py --workload g2_paper --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are wall_s, setup_s and peak_rss_mb; with --trace 1 they
are the per-layer metrics BENCHMARK.json lists, from rounds that
alternate untraced and traced, and the span file is written under
.perfbench_out/spans/.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# The timed part is single-threaded: numpy's BLAS would otherwise spread
# the dipole sums over every core and make the figures depend on load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("g2_paper", "g2_dense", "scenario_suite")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run_rounds(workload, seconds, tracer=None):
    """Whole rounds until the next one would overrun the budget.

    With a tracer, even rounds run untraced and odd rounds traced, and
    at least one of each runs.  Returns (untraced times, traced times,
    check errors).
    """
    untraced, traced, errors = [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        use_trace = tracer is not None and r % 2 == 1
        if use_trace:
            tracer.round = r
            tracer.install()
        span = tracer.record("bench.round") if use_trace else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            out = workload.run_round(r)
        elapsed = time.perf_counter() - t0
        if use_trace:
            tracer.uninstall()
        (traced if use_trace else untraced).append(elapsed)
        errors.extend(workload.check_round(r, out))
        r += 1
        total = time.perf_counter() - start
        if r >= (2 if tracer else 1) and total + total / r > seconds:
            return untraced, traced, errors


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lgi_echo", "__init__.py")):
        print(f"no program to benchmark: {SRC}/lgi_echo is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lgi_echo

    if not os.path.abspath(lgi_echo.__file__).startswith(SRC + os.sep):
        print(f"lgi_echo imported from {lgi_echo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    # set-up: import the program and build the workload's configurations
    workload = workloads.build(args.workload, args.seed, OUT_ROOT)
    setup_s = time.perf_counter() - _START
    try:
        if args.trace:
            metrics, errors = traced_run(workload, args)
        else:
            untraced, _, errors = run_rounds(workload, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(f"{args.workload}: {len(untraced)} rounds, seconds per round "
                  + " ".join(f"{t:.4f}" for t in untraced))
            metrics = {
                "wall_s": {"value": statistics.median(untraced), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        errors.extend(workload.final_checks())
    finally:
        workload.close()
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0


def traced_run(workload, args):
    from layers import TARGETS, import_times, layer_metrics, reported_metrics
    from tracer import Tracer

    tracer = Tracer(TARGETS)
    untraced, traced, errors = run_rounds(workload, args.seconds, tracer)
    metrics = layer_metrics(reported_metrics(ROOT), tracer.summary(), len(traced),
                            statistics.median(untraced), statistics.median(traced),
                            import_times(ROOT))
    spans_dir = os.path.join(OUT_ROOT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    path = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "traced_rounds": len(traced), "absent": tracer.absent,
                   "spans": tracer.to_records()}, fh)
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced "
          f"rounds, spans in {os.path.relpath(path, ROOT)}")
    for name in tracer.absent:
        print(f"absent: {name} (reported as 0 calls)")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    return metrics, errors


if __name__ == "__main__":
    sys.exit(main())
