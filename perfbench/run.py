"""Benchmark of ``dynclear run``: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics that ``BENCHMARK.json`` declares (``setup_s``, ``run_ref``,
``peak_rss_mb``, ``output_bytes``); with ``--trace 1`` it holds the declared
per-layer metrics of the traced run instead.  Lines before it describe the
environment and print every metric with its unit, plus the wall-time
``run_s`` and ``rounds_per_s`` and ``fail_rate``.  The
exit status is 1 when any sample path failed its correctness gate.
Scratch files go to ``.perfbench_run/`` in the checkout; the spans of a
traced run are kept there as ``spans-<workload>-seed<N>.csv``.
"""

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_run")

#: Metrics a timed run prints but does not declare: raw wall time moves with
#: the host's speed, so ``run_ref`` is the one ``BENCHMARK.json`` gates.
UNDECLARED_UNITS = {"run_s": "s", "rounds_per_s": "1/s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dynclear", "__init__.py")):
        print(f"no dynclear sources under {ROOT}/src", file=sys.stderr)
        return 2
    # single-threaded BLAS for steady timings; must precede the numpy import
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy
    import scipy

    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} "
        f"nproc={os.cpu_count()} threads=1"
    )
    os.makedirs(SCRATCH, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=SCRATCH, prefix=f"{args.workload}-")
    try:
        if args.trace:
            run = measure.Run(args.workload, args.seed, ROOT, work_dir)
            spans = os.path.join(SCRATCH, f"spans-{args.workload}-seed{args.seed}.csv")
            values = measure.traced(run, args.seconds, spans)
        else:
            setup_s = measure.measure_setup(args.workload, args.seed, ROOT, work_dir)
            run = measure.Run(args.workload, args.seed, ROOT, work_dir)
            values = {"setup_s": setup_s, **measure.timed(run, args.seconds)}
        attempted, failed = run.outcome()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    durations = values.pop("durations", [])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:>16.6g} {metric['unit']}")
    for name, unit in UNDECLARED_UNITS.items():
        if name in values:
            print(f"{name:28s} {values[name]:>16.6g} {unit}  (wall time, not gated)")
    print(f"{'calls':28s} {len(durations):>16d} count  (s: "
          + " ".join(f"{d:.3f}" for d in durations) + ")")
    print(f"{'fail_rate':28s} {failed / attempted:>16.6g} ratio ({failed}/{attempted} paths)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
