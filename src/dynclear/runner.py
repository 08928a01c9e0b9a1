"""Experiment runner: wires a configured environment to a policy mode,
collects traces, and emits reproducible CSV/JSON outputs."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig, build_environment
from .discrete import RoundingReport, discrete_runs
from .errors import CertificateError, ValidationError
from .fairness import price_of_fairness
from .fractional import (
    PolicyStepResult,
    broadcast_caps,
    lp_step,
    once_per_distinct_path,
    rollout,
    sample_paths,
    sampled_runs,
    stderr,
)
from .horizon import check_constant_proportions, solve_horizon_primal
from .network import SystemState


class Trace(NamedTuple):
    """Every sample's steps stacked along (samples, rounds, n): round
    numbers ``rounds``, per-node ``totals``, ``cleared``, ``interventions``
    and ``beta``, and the round ``rewards`` of shape (samples, rounds)."""

    rounds: np.ndarray
    totals: np.ndarray
    cleared: np.ndarray
    interventions: np.ndarray
    beta: np.ndarray
    rewards: np.ndarray


class OlsFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    degenerate: bool


@dataclass(frozen=True, eq=False)
class ScatterSummary:
    """Per-node aggregates plus OLS fits of interventions on payments and on
    mean connectivity."""

    nodes: np.ndarray
    total_payments: np.ndarray
    total_interventions: np.ndarray
    mean_beta: np.ndarray
    payments_fit: OlsFit
    connectivity_fit: OlsFit


@dataclass(frozen=True, eq=False)
class SummaryReport:
    mode: str
    samples: int
    seed: int
    budget: float
    horizon: int
    total_value_mean: float
    total_value_stderr: float
    per_round_rewards: tuple[float, ...]
    scatter: ScatterSummary
    gini_per_round: tuple[float, ...] | None = None
    fairness_kind: str | None = None
    fairness_cap: float | None = None
    pof: float | None = None
    pof_unconstrained: float | None = None
    pof_constrained: float | None = None
    rounding: tuple[RoundingReport, ...] | None = None
    certificate_info: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "budget": self.budget,
            "horizon": self.horizon,
            "total_value_mean": self.total_value_mean,
            "total_value_stderr": self.total_value_stderr,
            "per_round_rewards": list(self.per_round_rewards),
            "ols": {
                "interventions_on_payments": self.scatter.payments_fit._asdict(),
                "interventions_on_connectivity": (
                    self.scatter.connectivity_fit._asdict()
                ),
            },
        }
        if self.gini_per_round is not None:
            out["fairness"] = {
                "kind": self.fairness_kind,
                "g": self.fairness_cap,
                "gini_per_round": list(self.gini_per_round),
            }
        if self.pof is not None:
            out["price_of_fairness"] = {
                "unconstrained": self.pof_unconstrained,
                "constrained": self.pof_constrained,
                "pof": self.pof,
            }
        if self.rounding is not None:
            out["rounding"] = {
                "mean_ratio": float(np.mean([r.ratio for r in self.rounding])),
                "mean_bound": float(
                    np.mean([1.0 - r.gamma_hat for r in self.rounding])
                ),
                "infeasible_samples": sum(
                    1 for r in self.rounding if not r.feasible
                ),
            }
        if self.certificate_info is not None:
            out["certificate"] = self.certificate_info
        return out


def _stack(all_steps: list[list[PolicyStepResult]]) -> Trace:
    def field(get):
        return np.array([[get(s) for s in steps] for steps in all_steps], float)

    return Trace(
        rounds=np.array([s.round for s in all_steps[0]]),
        totals=field(lambda s: s.totals),
        cleared=field(lambda s: s.clearing),
        interventions=field(lambda s: s.intervention.amounts),
        beta=field(lambda s: s.beta),
        rewards=field(lambda s: s.reward),
    )


def _per_round(values: np.ndarray) -> np.ndarray:
    """(samples, rounds) values with one contiguous row per round, so each
    round reduces over its samples like a 1-D array."""
    return np.ascontiguousarray(values.T)


def _ols(x: np.ndarray, y: np.ndarray) -> OlsFit:
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx <= 0.0:
        return OlsFit(slope=0.0, intercept=float(y.mean()), r_squared=0.0,
                      degenerate=True)
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst <= 0.0:
        return OlsFit(slope=slope, intercept=intercept, r_squared=0.0,
                      degenerate=True)
    ssr = float(np.sum((y - (intercept + slope * x)) ** 2))
    return OlsFit(slope=slope, intercept=intercept,
                  r_squared=1.0 - ssr / sst, degenerate=False)


def summarize_scatter(trace: Trace) -> ScatterSummary:
    """Average per-node totals over samples and fit interventions against
    payments and against mean connectivity.  Zero-variance regressors are
    flagged degenerate with slope and R^2 reported as 0."""
    if trace.cleared.size == 0:
        raise ValidationError("no trace rows to summarize")
    total_payments = trace.cleared.sum(axis=1).mean(axis=0)
    total_interventions = trace.interventions.sum(axis=1).mean(axis=0)
    mean_beta = trace.beta.sum(axis=1).mean(axis=0) / len(trace.rounds)
    return ScatterSummary(
        nodes=np.arange(trace.cleared.shape[2]),
        total_payments=total_payments,
        total_interventions=total_interventions,
        mean_beta=mean_beta,
        payments_fit=_ols(total_payments, total_interventions),
        connectivity_fit=_ols(mean_beta, total_interventions),
    )


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(str, row)))  # str(float) is its repr
    write_atomic(path, "\n".join(lines) + "\n")


PLOTS_README = """\
Plot-ready tables emitted by the experiment runner
==================================================

trace.csv          sample,t,node,P,p_tilde,z,reward
                   Full per-node trajectory; `reward` repeats the round
                   reward on every node row of that (sample, t).
rewards.csv        t,mean_reward,stderr           reward over time
interventions.csv  t,mean_total_interventions     allocation mass over time
scatter.csv        node,total_payments,total_interventions,mean_beta
                   Per-node averages over samples; see summary.json for the
                   OLS fits.
gini.csv           t,kind,g,gc_realized           (fairness runs only)
rounding.csv       sample,attempts,feasible,value_sol,value_rel,ratio,bound
                   (discrete runs only; bound = 1 - worst connectivity)
pof.csv            value_unconstrained,value_constrained,pof
                   (paired fairness runs only)
summary.json       run-level aggregates, OLS fits, certificate/duality info
"""


def emit_plot_data(
    report: SummaryReport,
    trace: Trace,
    out_dir: str,
    reward_stderr: list[float],
) -> dict[str, str]:
    """Write ``trace.csv``, the per-figure CSV families reduced from it and
    the column-reference README; ``reward_stderr`` gives the reward's
    standard error per round."""
    files: dict[str, str] = {}

    def table(name: str, header: list[str], rows) -> None:
        files[name] = os.path.join(out_dir, f"{name}.csv")
        _write_csv(files[name], header, rows)

    sample, t, node = np.indices(trace.cleared.shape)
    columns = (sample, trace.rounds[t], node, trace.totals, trace.cleared,
               trace.interventions,
               np.broadcast_to(trace.rewards[..., None], trace.cleared.shape))
    table("trace", ["sample", "t", "node", "P", "p_tilde", "z", "reward"],
          zip(*(column.ravel().tolist() for column in columns)))
    rounds = trace.rounds.tolist()
    table("rewards", ["t", "mean_reward", "stderr"],
          zip(rounds, report.per_round_rewards, reward_stderr))
    mean_z = _per_round(trace.interventions.sum(axis=2)).mean(axis=1)
    table("interventions", ["t", "mean_total_interventions"],
          zip(rounds, mean_z.tolist()))
    scatter = report.scatter
    table("scatter",
          ["node", "total_payments", "total_interventions", "mean_beta"],
          zip(scatter.nodes.tolist(), scatter.total_payments.tolist(),
              scatter.total_interventions.tolist(), scatter.mean_beta.tolist()))
    if report.gini_per_round is not None:
        table("gini", ["t", "kind", "g", "gc_realized"],
              [(t, report.fairness_kind, report.fairness_cap, g)
               for t, g in zip(rounds, report.gini_per_round)])
    if report.rounding is not None:
        table("rounding",
              ["sample", "attempts", "feasible", "value_sol", "value_rel",
               "ratio", "bound"],
              [(r.sample_index, r.attempts, int(r.feasible), r.value_sol,
                r.value_rel, r.ratio, 1.0 - r.gamma_hat)
               for r in report.rounding])
    if report.pof is not None:
        table("pof", ["value_unconstrained", "value_constrained", "pof"],
              [(report.pof_unconstrained, report.pof_constrained, report.pof)])

    path = os.path.join(out_dir, "PLOTS_README.md")
    write_atomic(path, PLOTS_README)
    files["plots_readme"] = path
    return files


def _horizon_lp_runs(env, horizon, n_samples, budget, caps, seed):
    """One whole-horizon LP per distinct sampled path (a replay is solved
    once), its schedule replayed along the path for trace output, and the
    duality gap taken against the dual read from the same solve.  Replaying
    clips payments to the replayed totals and interventions to the caps and
    rescales them onto the budget; a repair beyond ``LP_REPAIR_TOL`` raises
    :class:`SolverError`."""
    _, paths = sample_paths(env, n_samples, seed, horizon)
    caps_vec = broadcast_caps(caps, env.n)

    def solve(path):
        certificate = check_constant_proportions(path)
        if not certificate.valid:
            raise CertificateError(
                "horizon_lp mode needs constant liability proportions; "
                f"sample {paths.index(path)} deviates by "
                f"{certificate.max_violation}"
            )
        primal = solve_horizon_primal(path, budget, caps, certificate)

        def step(t, shock, state, matrix):
            return lp_step(
                "horizon LP replay", shock.round, state.totals, matrix,
                primal.clearing[t], primal.interventions[t], budget, caps_vec,
            )

        value, steps = rollout(SystemState.empty(path.n), path, step)
        gap = abs(primal.value - primal.dual.value)
        return value, steps, certificate.max_violation, gap

    solved = once_per_distinct_path(paths, solve)
    runs = [(path, value, steps) for path, (value, steps, _, _) in zip(paths, solved)]
    info = {
        "valid": True,
        "max_violation": max(v for _, _, v, _ in solved),
        "max_duality_gap": max(g for _, _, _, g in solved),
    }
    return runs, info


def run_experiment(
    config: ExperimentConfig, env=None
) -> tuple[SummaryReport, dict[str, str]]:
    """Execute one configured experiment and write its trace files.

    Outputs are deterministic for a fixed (config, seed) and independent of
    the thread count; files are written atomically (temp file + rename).
    """
    if env is None:
        env = build_environment(config)
    start = SystemState.empty(env.n)
    caps = config.caps
    rounding_reports = None
    certificate_info = None
    pof = pof_unc = pof_con = None

    if config.mode in ("zero_input", "fractional"):
        runs = sampled_runs(
            env, start, config.samples, config.budget, caps,
            fairness=config.fairness, seed=config.seed,
            threads=config.threads, horizon=config.horizon,
        )
        if config.paired_pof:
            baseline = sampled_runs(
                env, start, config.samples, config.budget, caps,
                fairness=None, seed=config.seed,
                threads=config.threads, horizon=config.horizon,
            )
            pof_unc = float(np.mean([v for _, v, _ in baseline]))
            pof_con = float(np.mean([v for _, v, _ in runs]))
            pof = price_of_fairness(pof_unc, pof_con)
    elif config.mode == "discrete":
        results = discrete_runs(
            env, start, config.samples, config.budget, caps,
            tau=config.retries, seed=config.seed,
            threads=config.threads, horizon=config.horizon,
        )
        rounding_reports = tuple(r for _, r, _ in results)
        runs = [(p, r.value_sol, s) for p, r, s in results]
    elif config.mode == "horizon_lp":
        runs, certificate_info = _horizon_lp_runs(
            env, config.horizon, config.samples, config.budget, caps, config.seed
        )
    else:  # pragma: no cover - guarded by config validation
        raise ValidationError(f"unknown mode {config.mode}")

    values = [v for _, v, _ in runs]
    all_steps = [s for _, _, s in runs]
    trace = _stack(all_steps)
    by_round = _per_round(trace.rewards)
    reward_stderr = [stderr(r) for r in by_round]

    gini_per_round = None
    if config.fairness is not None:
        gini = np.array([[s.gini for s in steps] for steps in all_steps], float)
        gini_per_round = tuple(_per_round(gini).mean(axis=1).tolist())

    scatter = summarize_scatter(trace)
    report = SummaryReport(
        mode=config.mode,
        samples=config.samples,
        seed=config.seed,
        budget=config.budget,
        horizon=len(trace.rounds),
        total_value_mean=float(np.mean(values)),
        total_value_stderr=stderr(values),
        per_round_rewards=tuple(by_round.mean(axis=1).tolist()),
        scatter=scatter,
        gini_per_round=gini_per_round,
        fairness_kind=None if config.fairness is None else config.fairness.kind,
        fairness_cap=None if config.fairness is None else config.fairness.g,
        pof=pof,
        pof_unconstrained=pof_unc,
        pof_constrained=pof_con,
        rounding=rounding_reports,
        certificate_info=certificate_info,
    )

    os.makedirs(config.out_dir, exist_ok=True)
    files = emit_plot_data(report, trace, config.out_dir, reward_stderr)
    path = os.path.join(config.out_dir, "summary.json")
    write_atomic(
        path, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )
    files["summary"] = path
    return report, files
