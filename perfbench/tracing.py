"""Span tracing of ``dynclear`` from outside the package.

The package binds names at import time (``from .clearing import solve_lp``),
so a wrapper has to replace a function in every module namespace that holds
it, not only where it is defined.  :class:`Tracer` finds those namespaces by
identity, installs one wrapper per binding, and restores every original on
exit.  Spans ``(name, start, end, parent)`` are kept in memory; per-layer
self times and counts are derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import Counter

import numpy as np
import scipy.optimize

from dynclear import clearing, discrete, environments, fairness, fractional
from dynclear import horizon, network, runner

#: Marker set on every wrapper, so a test can tell a wrapped attribute apart.
MARK = "__perfbench_span__"

ROOT = "runner.run_experiment"
BOOKKEEPING = "trace.bookkeeping"


def _count_lp(counters, args, kwargs, result):
    lp = args[0]
    counters["clearing.lp_rows"] += len(lp.constraints)
    counters["clearing.lp_cols"] += lp.n_variables
    counters["clearing.lp_nnz"] += sum(
        int(np.count_nonzero(coeffs)) for coeffs, _, _ in lp.constraints
    )
    counters["clearing.lp_nonoptimal"] += result.status != "optimal"


def _count_highs(counters, args, kwargs, result):
    counters["clearing.highs_iters"] += int(result.nit)


def _count_block(counters, args, kwargs, result):
    counters["fairness.slacks"] += result.n_slacks


def _count_rounding(counters, args, kwargs, result):
    actions, attempts = result
    counters["discrete.rounding_attempts"] += attempts
    counters["discrete.feasible_schedules"] += all(a.feasible for a in actions)


#: Functions traced in every namespace that binds them: (defining module,
#: attribute, span name, counter hook).
FUNCTIONS = (
    (network, "advance_state", "network.advance_state", None),
    (network, "relative_matrix", "network.relative_matrix", None),
    (clearing, "clear_fixed_point", "clearing.clear_fixed_point", None),
    (clearing, "solve_lp", "clearing.solve_lp", _count_lp),
    (scipy.optimize, "linprog", "clearing.linprog", _count_highs),
    (fractional, "per_round_lp", "fractional.per_round_lp", None),
    (fractional, "value_given_sample_path", "fractional.value_given_sample_path", None),
    (fractional, "sampled_runs", "fractional.sampled_runs", None),
    (fairness, "fairness_constraint_block", "fairness.fairness_constraint_block",
     _count_block),
    (fairness, "gini_coefficient", "fairness.gini_coefficient", None),
    (discrete, "sample_interventions", "discrete.sample_interventions",
     _count_rounding),
    (discrete, "simulate_discrete_policy", "discrete.simulate_discrete_policy", None),
    (discrete, "discrete_runs", "discrete.discrete_runs", None),
    (horizon, "check_constant_proportions", "horizon.check_constant_proportions",
     None),
    (horizon, "solve_horizon_primal", "horizon.solve_horizon_primal", None),
    (horizon, "solve_horizon_dual", "horizon.solve_horizon_dual", None),
    (runner, "_horizon_lp_runs", "runner._horizon_lp_runs", None),
)

#: Methods traced on the class that defines them: (class, attribute, span).
METHODS = (
    (environments.EnvironmentModel, "sample_path", "environments.sample_path"),
    (environments.ReplayEnvironment, "sample_path", "environments.sample_path"),
    (environments.SbmEnvironment, "sample_round", "environments.sample_round"),
    (environments.GammaEnvironment, "sample_round", "environments.sample_round"),
    (fairness.FairnessSpec, "weights_for", "fairness.weights_for"),
)

#: Layer self-time metrics: metric name -> span names whose self time it sums.
SELF_TIMES = {
    "environments.sample_s": ("environments.sample_path", "environments.sample_round"),
    "network.advance_s": ("network.advance_state", "network.relative_matrix"),
    "clearing.picard_s": ("clearing.clear_fixed_point",),
    "clearing.highs_s": ("clearing.linprog",),
    "clearing.lp_convert_s": ("clearing.solve_lp",),
    "fractional.lp_build_s": ("fractional.per_round_lp",),
    "fractional.sequential_s": ("fractional.value_given_sample_path",),
    "fractional.mc_s": ("fractional.sampled_runs",),
    "fairness.weights_s": ("fairness.weights_for",),
    "fairness.block_s": ("fairness.fairness_constraint_block",),
    "fairness.gini_s": ("fairness.gini_coefficient",),
    "discrete.rounding_s": ("discrete.sample_interventions",),
    "discrete.rollout_s": ("discrete.simulate_discrete_policy",),
    "discrete.runs_s": ("discrete.discrete_runs",),
    "horizon.certificate_s": ("horizon.check_constant_proportions",),
    "horizon.primal_s": ("horizon.solve_horizon_primal",),
    "horizon.dual_s": ("horizon.solve_horizon_dual",),
    "runner.replay_s": ("runner._horizon_lp_runs",),
    "trace.bookkeeping_s": (BOOKKEEPING,),
}

#: Spans that are the solve stage of ``run_experiment``; output follows them.
SOLVE_SPANS = frozenset(
    ("fractional.sampled_runs", "discrete.discrete_runs", "runner._horizon_lp_runs")
)


def _namespaces():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "dynclear" or name.startswith("dynclear."))
    ]


def installed_wrappers() -> list[tuple[object, str]]:
    """Traced attributes currently in place across ``dynclear``; empty
    whenever no :class:`Tracer` is active."""
    sites = [(m, a) for m in _namespaces() for a, v in vars(m).items()
             if getattr(v, MARK, False)]
    sites += [(cls, attr) for cls, attr, _ in METHODS
              if getattr(vars(cls).get(attr), MARK, False)]
    return sites


class Tracer:
    """Context manager that records a span for every call to a traced
    ``dynclear`` function while active.

    Use ``with tracer.span(name):`` for spans opened by the caller, such as
    the root ``run_experiment`` span.  Counter hooks run after their span
    closes and are themselves recorded as ``trace.bookkeeping`` spans, so
    they never inflate a layer's self time.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook=None):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counters, args, kwargs, result)
                spans.append((BOOKKEEPING, end, clock(), parent))
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        try:
            namespaces = _namespaces()
            for home, attr, name, hook in FUNCTIONS:
                original = getattr(home, attr)
                wrapper = self._wrap(original, name, hook)
                for module in namespaces:
                    if vars(module).get(attr) is original:
                        self._replace(module, attr, wrapper)
            for cls, attr, name in METHODS:
                self._replace(cls, attr, self._wrap(vars(cls)[attr], name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the enclosed block, e.g. the root call."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer self times and counts for the spans of one root call.

    A span's self time is its duration minus the durations of its direct
    children; a layer sums the self times of its spans.
    """
    child_time = [0.0] * len(spans)
    calls = Counter()
    for name, start, end, parent in spans:
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    self_time = Counter()
    for (name, start, end, _), children in zip(spans, child_time):
        self_time[name] += end - start - children

    root = next(i for i, s in enumerate(spans) if s[0] == ROOT)
    _, root_start, root_end, _ = spans[root]
    solve_end = max(
        (end for name, _, end, parent in spans
         if parent == root and name in SOLVE_SPANS),
        default=root_start,
    )
    drawn_by_mc = sum(
        1 for name, _, _, parent in spans
        if name == "environments.sample_path"
        and parent >= 0 and spans[parent][0] == "fractional.sampled_runs"
    )
    solved_by_mc = sum(
        1 for name, _, _, parent in spans
        if name == "fractional.value_given_sample_path"
        and parent >= 0 and spans[parent][0] == "fractional.sampled_runs"
    )
    attempts = counters["discrete.rounding_attempts"]

    metrics = {
        metric: sum(self_time[name] for name in names)
        for metric, names in SELF_TIMES.items()
    }
    metrics["runner.output_s"] = root_end - solve_end
    run_s = root_end - root_start
    metrics["trace.other_s"] = run_s - sum(metrics.values())
    metrics["trace.run_s"] = run_s
    metrics.update({
        "environments.paths": calls["environments.sample_path"],
        "network.advance_calls": calls["network.advance_state"],
        "clearing.picard_calls": calls["clearing.clear_fixed_point"],
        "clearing.lp_calls": calls["clearing.solve_lp"],
        "clearing.highs_iters": counters["clearing.highs_iters"],
        "clearing.lp_rows": counters["clearing.lp_rows"],
        "clearing.lp_cols": counters["clearing.lp_cols"],
        "clearing.lp_nnz": counters["clearing.lp_nnz"],
        "clearing.lp_nonoptimal": counters["clearing.lp_nonoptimal"],
        "fractional.paths_solved": calls["fractional.value_given_sample_path"],
        "fractional.memo_hit_ratio": (
            (drawn_by_mc - solved_by_mc) / drawn_by_mc if drawn_by_mc else 0.0
        ),
        "fairness.slacks": counters["fairness.slacks"],
        "discrete.rounding_attempts": attempts,
        "discrete.feasible_ratio": (
            counters["discrete.feasible_schedules"] / attempts if attempts else 0.0
        ),
    })
    return metrics


def median_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced calls of one run."""
    return {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
