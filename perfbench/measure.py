"""Timed and traced runs of one workload.

A run prepares the workload once, warms up on its tiny variant, then calls
``run_experiment`` on the same inputs until ``seconds`` have passed and
reports medians over the calls.  The timed run installs no wrapper and
times the reference kernel of :mod:`reference` after every call, so that the
run time can also be given in units of the host's speed at that moment; the
traced run alternates untraced and traced calls, so that the difference of
their medians is the tracing overhead.  Every call writes to a fresh
``out_dir``: the first one is checked by the workload's gate, every later
one must be byte-identical to it, and timings never go into it.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import dynclear.runner as runner
from dynclear.errors import DynclearError
import reference
from tracing import ROOT, Tracer, layer_metrics, median_metrics
from workloads import WORKLOADS

#: Fresh processes timed for ``setup_s``; the run reports their median.
SETUP_PROBES = 5

PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")


def measure_setup(name: str, seed: int, root: str, work_dir: str) -> float:
    """Median set-up time of :data:`SETUP_PROBES` fresh interpreters: the
    imports, config validation, ``build_environment`` and input files."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = os.path.join(work_dir, f"setup-{k}")
        os.mkdir(probe_dir)
        done = subprocess.run(
            [sys.executable, PROBE, name, str(seed), root, probe_dir],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def _digest(out_dir: str) -> tuple[str, int]:
    """Content hash and total size of every file the call wrote."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            data = handle.read()
        h.update(name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


class Run:
    """Calls of one workload on fixed inputs, with their outcome."""

    def __init__(
        self, name: str, seed: int, root: str, work_dir: str, tiny: bool = False
    ):
        self.workload = WORKLOADS[name]
        self.work_dir = work_dir
        self.config, self.env = self.workload.prepare(seed, root, work_dir, tiny)
        warm_dir = os.path.join(work_dir, "warmup")
        os.mkdir(warm_dir)
        warm_config, warm_env = self.workload.prepare(seed, root, warm_dir, True)
        runner.run_experiment(warm_config, warm_env)
        self.reference: str | None = None  # out_dir of the first good call
        self.reference_digest = None
        self.output_bytes = 0
        self.bad_calls = 0
        self.good_calls = 0

    def call(self, tracer: Tracer | None = None) -> float:
        """One ``run_experiment`` call; returns its wall time."""
        out_dir = tempfile.mkdtemp(dir=self.work_dir, prefix="out-")
        config = dataclasses.replace(self.config, out_dir=out_dir)
        start = time.perf_counter()
        try:
            if tracer is None:
                runner.run_experiment(config, self.env)
            else:
                with tracer, tracer.span(ROOT):
                    runner.run_experiment(config, self.env)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            self.bad_calls += 1
            shutil.rmtree(out_dir)
            return elapsed
        elapsed = time.perf_counter() - start
        digest, size = _digest(out_dir)
        if self.reference is None:
            self.reference, self.reference_digest = out_dir, digest
            self.output_bytes = size
            self.good_calls += 1
            return elapsed
        if digest == self.reference_digest:
            self.good_calls += 1
        else:
            print("outputs differ from the first call", file=sys.stderr)
            self.bad_calls += 1
        shutil.rmtree(out_dir)
        return elapsed

    def outcome(self) -> tuple[int, int]:
        """Sample paths attempted and failed over all calls."""
        samples = self.config.samples
        failed_in_reference = 0
        if self.reference is not None:
            try:
                _, failed_in_reference = self.workload.check(
                    self.config, self.env, self.reference
                )
            except (OSError, ValueError, KeyError, DynclearError):
                traceback.print_exc()
                failed_in_reference = samples
        calls = self.good_calls + self.bad_calls
        return (
            samples * calls,
            samples * self.bad_calls + failed_in_reference * self.good_calls,
        )

    @property
    def rounds_per_call(self) -> int:
        return self.config.samples * (self.config.horizon or self.env.horizon)


def _another_call(start: float, seconds: float, durations: list[float]) -> bool:
    """At least one call; then another only if a call of median length
    still ends within ``seconds`` of ``start``."""
    if not durations:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(durations) <= seconds


def timed(run: Run, seconds: float) -> dict:
    """End-to-end metrics of untraced calls repeated for ``seconds``, each
    followed by a block of the reference kernel.  ``run_ref`` is the median
    call time over the median seconds per reference unit."""
    durations, units, spent = [], [], []
    start = time.perf_counter()
    while _another_call(start, seconds, spent):
        began = time.perf_counter()
        durations.append(run.call())
        units.append(reference.block(durations[-1]))
        spent.append(time.perf_counter() - began)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = statistics.median(durations)
    return {
        "run_ref": run_s / statistics.median(units),
        "run_s": run_s,
        "rounds_per_s": run.rounds_per_call / run_s,
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": run.output_bytes,
        "durations": durations,
    }


def traced(run: Run, seconds: float, spans_path: str) -> dict:
    """Per-layer metrics: medians over traced calls, alternating with
    untraced calls for ``trace.overhead_s``.  All spans go to
    ``spans_path`` as CSV when the run ends."""
    plain, wrapped, per_call, tracers = [], [], [], []
    start = time.perf_counter()
    while _another_call(start, seconds, [p + w for p, w in zip(plain, wrapped)]):
        plain.append(run.call())
        tracer = Tracer()
        wrapped.append(run.call(tracer))
        metrics = layer_metrics(tracer.spans, tracer.counters)
        metrics["runner.trace_rows"] = _trace_rows(run.reference)
        metrics["runner.bytes_written"] = run.output_bytes
        per_call.append(metrics)
        tracers.append(tracer)
    _write_spans(spans_path, tracers)
    metrics = median_metrics(per_call)
    metrics["trace.overhead_s"] = statistics.median(wrapped) - statistics.median(plain)
    metrics["durations"] = wrapped
    return metrics


def _trace_rows(out_dir: str | None) -> int:
    if out_dir is None:
        return 0
    with open(os.path.join(out_dir, "trace.csv"), "rb") as handle:
        return sum(1 for _ in handle) - 1


def _write_spans(path: str, tracers: list[Tracer]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle)
        out.writerow(["call", "span", "name", "start_s", "end_s", "parent"])
        for call, tracer in enumerate(tracers):
            origin = min(s[1] for s in tracer.spans)
            for index, (name, start, end, parent) in enumerate(tracer.spans):
                out.writerow([call, index, name, repr(start - origin),
                              repr(end - origin), parent])
