"""Tests of the benchmark itself: gates, tracer hygiene and count stability.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import dynclear.runner  # noqa: E402
import measure  # noqa: E402
import run as run_script  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)

#: Counts that must repeat exactly between two traced runs of one input.
STABLE_COUNTS = (
    "clearing.lp_calls",
    "clearing.lp_rows",
    "clearing.highs_iters",
    "discrete.rounding_attempts",
    "runner.trace_rows",
)


def tiny_run(name, tmp_path, seed=5):
    work = tmp_path / name
    work.mkdir(parents=True)
    return measure.Run(name, seed, ROOT, str(work), tiny=True)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_passes_its_gate(name, tmp_path):
    run = tiny_run(name, tmp_path)
    measure.timed(run, seconds=0.0)
    attempted, failed = run.outcome()
    assert attempted == run.config.samples
    assert failed == 0


def _corrupt_summary(out_dir):
    path = os.path.join(out_dir, "summary.json")
    with open(path) as handle:
        data = json.load(handle)
    data["total_value_mean"] += 1.0
    with open(path, "w") as handle:
        json.dump(data, handle)


def _corrupt_first_trace_row(out_dir):
    path = os.path.join(out_dir, "trace.csv")
    with open(path) as handle:
        lines = handle.read().splitlines()
    fields = lines[1].split(",")
    fields[3] = repr(float(fields[3]) + 1.0)  # outstanding total P
    lines[1] = ",".join(fields)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", NAMES)
def test_gate_rejects_corrupted_output(name, tmp_path):
    run = tiny_run(name, tmp_path)
    run.call()
    if name in ("fairness_sbm50", "discrete_sbm100"):
        _corrupt_first_trace_row(run.reference)
    else:
        _corrupt_summary(run.reference)
    attempted, failed = run.outcome()
    assert failed >= 1


def _namespaces_snapshot():
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "dynclear"]
    owners += [cls for cls, _, _ in tracing.METHODS]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _namespaces_snapshot()
    run = tiny_run("discrete_sbm100", tmp_path)
    metrics = measure.traced(run, 0.0, str(tmp_path / "spans.csv"))
    assert metrics["clearing.lp_calls"] > 0
    assert tracing.installed_wrappers() == []
    after = _namespaces_snapshot()
    assert before.keys() == after.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        changed = [a for a in attrs if now.get(a) is not attrs[a]]
        assert changed == [], (owner, changed)
        assert now.keys() == attrs.keys(), owner


def test_timed_run_installs_no_wrapper(tmp_path, monkeypatch):
    seen = []
    original = dynclear.runner.run_experiment

    def spy(*args, **kwargs):
        seen.append(len(tracing.installed_wrappers()))
        return original(*args, **kwargs)

    run = tiny_run("fairness_sbm50", tmp_path)
    monkeypatch.setattr(dynclear.runner, "run_experiment", spy)
    measure.timed(run, seconds=0.0)
    assert seen == [0]
    measure.traced(run, 0.0, str(tmp_path / "spans.csv"))
    untraced, traced = seen[1:]
    assert untraced == 0 and traced > 0


@pytest.mark.parametrize("name", NAMES)
def test_layer_counts_repeat_across_traced_runs(name, tmp_path):
    first = measure.traced(tiny_run(name, tmp_path / "a"), 0.0, str(tmp_path / "a.csv"))
    second = measure.traced(tiny_run(name, tmp_path / "b"), 0.0, str(tmp_path / "b.csv"))
    for count in STABLE_COUNTS:
        assert first[count] == second[count], count
    assert first["runner.trace_rows"] > 0
    if name == "discrete_sbm100":
        assert first["discrete.rounding_attempts"] > 0


def test_declared_metrics_match_what_a_run_reports(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
    run = tiny_run("discrete_sbm100", tmp_path)
    timed = measure.timed(run, 0.0)
    layers = measure.traced(run, 0.0, str(tmp_path / "spans.csv"))
    declared_end_to_end = {m["name"] for m in spec["end_to_end"]}
    reported = set(timed) - {"durations"} - set(run_script.UNDECLARED_UNITS)
    assert declared_end_to_end == reported | {"setup_s"}
    assert timed["run_ref"] > 0
    assert {m["name"] for m in spec["per_layer"]} == set(layers) - {"durations"}


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "discrete_sbm100",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
