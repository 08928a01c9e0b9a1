"""Run every workload over several seeds and summarise the benchmark.

    python3 perfbench/report.py [--seeds 10] [--workload NAME ...]
                                [--record FILE --label TEXT --note TEXT ...]

Seeds run from 1 to ``--seeds``, each (workload, seed) as one
``run.py --trace 0`` process of ``run_seconds`` from ``BENCHMARK.json``; the
first seed of each workload also gets a ``--trace 1`` run for the per-layer
metrics.  The table gives, per end-to-end metric, the median over seeds, the
quartiles as ``statistics.quantiles(n=4)`` computes them, and their distance
as a share of the median next to the bound in ``BENCHMARK.json``; it also prints
the same for the wall-time ``run_s``, which is not gated, and ``fail_rate``
(failed / attempted sample paths).  ``--record`` appends the
numbers, with the git commit and library versions, to a JSON trajectory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(
    workload: str, seed: int, seconds: int, trace: int
) -> tuple[dict, list[str]]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    # a failed gate exits nonzero after its result line, which still counts
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} gave no result:\n{done.stderr}")
    return json.loads(lines[-1]), lines


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "repeats": len(values),
        "values": values,
    }


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--record")
    parser.add_argument("--label", default="")
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("quartiles need at least 2 seeds")

    spec = bench_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = args.workload or list(whys)
    seeds = range(1, args.seeds + 1)

    entry = {"label": args.label, "git_sha": git_sha(), "seconds": seconds,
             "seeds": list(seeds), "notes": args.note, "workloads": {}}
    for name in names:
        results, wall = [], []
        for seed in seeds:
            result, lines = run_once(name, seed, seconds, 0)
            results.append(result)
            wall.append(float(next(
                line.split()[1] for line in lines if line.startswith("run_s ")
            )))
        header = lines[0]
        layers, _ = run_once(name, seeds[0], seconds, 1)
        fields = dict(f.split("=", 1) for f in header.split() if "=" in f)
        entry["environment"] = {
            k: fields[k] for k in ("python", "numpy", "scipy", "nproc", "threads")
        }
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        end_to_end = {}
        print(f"\n{name}: {whys[name]}")
        print(f"{'metric':14s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'iqr/med':>8s} {'bound':>6s}")
        for metric in results[0]["metrics"]:
            stats = spread([r["metrics"][metric]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][metric]["unit"]
            end_to_end[metric] = stats
            flag = "" if stats["iqr_share"] < bounds[metric] / 3 else "  <-- wide"
            print(f"{metric:14s} {stats['unit']:5s} {stats['median']:12.6g} "
                  f"{stats['q1']:12.6g} {stats['q3']:12.6g} "
                  f"{stats['iqr_share']:8.4f} {bounds[metric]:6.2f}{flag}")
        stats = spread(wall)
        print(f"{'run_s':14s} {'s':5s} {stats['median']:12.6g} {stats['q1']:12.6g} "
              f"{stats['q3']:12.6g} {stats['iqr_share']:8.4f}  wall time, not gated")
        print(f"{'fail_rate':14s} {'ratio':5s} {failed / attempted:12.6g}"
              f"   ({failed}/{attempted} paths)")
        print("per layer, seed", seeds[0], ":", ", ".join(
            f"{k}={v['value']:.6g}" for k, v in layers["metrics"].items()))
        entry["workloads"][name] = {
            "why": whys[name],
            "fail_rate": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "wall_run_s": stats,
            "per_layer": {k: v["value"] for k, v in layers["metrics"].items()},
        }

    if args.record:
        trajectory = []
        if os.path.exists(args.record):
            with open(args.record, encoding="utf-8") as handle:
                trajectory = json.load(handle)
        trajectory.append(entry)
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(trajectory, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
