"""Experiment runner: wires a configured environment to a policy mode,
collects traces, and emits reproducible CSV/JSON outputs."""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig, build_environment, effective_horizon
from .discrete import RoundingReport, discrete_runs
from .errors import CertificateError, ValidationError
from .fractional import (
    PolicyStepResult,
    _onto_budget,
    _repair,
    broadcast_caps,
    once_per_distinct_path,
    rollout,
    sampled_runs,
    substream,
)
from .horizon import check_constant_proportions, solve_horizon_primal
from .network import InterventionVector, SystemState


class TraceRow(NamedTuple):
    sample: int
    round: int
    node: int
    totals: float
    cleared: float
    intervention: float
    reward: float  # round reward, repeated on each node row of the round
    beta: float


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


def _stderr(values) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _steps_to_rows(all_steps: list[list[PolicyStepResult]]) -> list[TraceRow]:
    rows = []
    for sample, steps in enumerate(all_steps):
        for step in steps:
            for node in range(step.totals.shape[0]):
                rows.append(
                    TraceRow(
                        sample=sample,
                        round=step.round,
                        node=node,
                        totals=float(step.totals[node]),
                        cleared=float(step.clearing[node]),
                        intervention=float(step.intervention.amounts[node]),
                        reward=step.reward,
                        beta=float(step.beta[node]),
                    )
                )
    return rows


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


def summarize_scatter(rows: list[TraceRow]) -> ScatterSummary:
    """Average per-node totals over samples and fit interventions against
    payments and against mean connectivity.  Zero-variance regressors are
    flagged degenerate with slope and R^2 reported as 0."""
    if not rows:
        raise ValidationError("no trace rows to summarize")
    samples = sorted({r.sample for r in rows})
    nodes = sorted({r.node for r in rows})
    n_rounds = len({r.round for r in rows})
    payments = np.zeros((len(samples), len(nodes)))
    interventions = np.zeros_like(payments)
    betas = np.zeros_like(payments)
    for r in rows:
        payments[r.sample, r.node] += r.cleared
        interventions[r.sample, r.node] += r.intervention
        betas[r.sample, r.node] += r.beta
    total_payments = payments.mean(axis=0)
    total_interventions = interventions.mean(axis=0)
    mean_beta = betas.mean(axis=0) / n_rounds
    return ScatterSummary(
        nodes=np.array(nodes),
        total_payments=total_payments,
        total_interventions=total_interventions,
        mean_beta=mean_beta,
        payments_fit=_ols(total_payments, total_interventions),
        connectivity_fit=_ols(mean_beta, total_interventions),
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


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
        lines.append(",".join(_fmt(v) for v in row))
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
    rows: list[TraceRow],
    out_dir: str,
    reward_stderr_by_round: dict[int, float],
) -> dict[str, str]:
    """Write the per-figure CSV families and the column-reference README."""
    files: dict[str, str] = {}
    rounds = sorted({r.round for r in rows})
    n_samples = report.samples

    rewards_rows = []
    interventions_rows = []
    for t in rounds:
        per_sample_rewards = {}
        per_sample_z = {}
        for r in rows:
            if r.round == t:
                per_sample_rewards[r.sample] = r.reward
                per_sample_z[r.sample] = per_sample_z.get(r.sample, 0.0) + (
                    r.intervention
                )
        mean_reward = float(np.mean(list(per_sample_rewards.values())))
        rewards_rows.append((t, mean_reward, reward_stderr_by_round[t]))
        interventions_rows.append(
            (t, float(np.mean(list(per_sample_z.values()))))
        )
    path = os.path.join(out_dir, "rewards.csv")
    _write_csv(path, ["t", "mean_reward", "stderr"], rewards_rows)
    files["rewards"] = path
    path = os.path.join(out_dir, "interventions.csv")
    _write_csv(path, ["t", "mean_total_interventions"], interventions_rows)
    files["interventions"] = path

    scatter = report.scatter
    path = os.path.join(out_dir, "scatter.csv")
    _write_csv(
        path,
        ["node", "total_payments", "total_interventions", "mean_beta"],
        zip(
            scatter.nodes.tolist(),
            scatter.total_payments.tolist(),
            scatter.total_interventions.tolist(),
            scatter.mean_beta.tolist(),
        ),
    )
    files["scatter"] = path

    if report.gini_per_round is not None:
        path = os.path.join(out_dir, "gini.csv")
        _write_csv(
            path,
            ["t", "kind", "g", "gc_realized"],
            [
                (t, report.fairness_kind, report.fairness_cap, g)
                for t, g in zip(rounds, report.gini_per_round)
            ],
        )
        files["gini"] = path

    if report.rounding is not None:
        path = os.path.join(out_dir, "rounding.csv")
        _write_csv(
            path,
            ["sample", "attempts", "feasible", "value_sol", "value_rel",
             "ratio", "bound"],
            [
                (r.sample_index, r.attempts, int(r.feasible), r.value_sol,
                 r.value_rel, r.ratio, 1.0 - r.gamma_hat)
                for r in report.rounding
            ],
        )
        files["rounding"] = path

    if report.pof is not None:
        path = os.path.join(out_dir, "pof.csv")
        _write_csv(
            path,
            ["value_unconstrained", "value_constrained", "pof"],
            [(report.pof_unconstrained, report.pof_constrained, report.pof)],
        )
        files["pof"] = path

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
    paths = [
        env.sample_path(1, horizon, substream(seed, i)) for i in range(n_samples)
    ]
    caps_vec = broadcast_caps(caps, env.n)
    source = "horizon LP replay"

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
            clearing = _repair(primal.clearing[t], 0.0, state.totals, "clearing",
                               source)
            # + 0.0 turns the LP's -0.0 into 0.0, as per_round_lp writes it
            z = _repair(primal.interventions[t], 0.0, caps_vec, "intervention",
                        source) + 0.0
            z = _onto_budget(z, budget, source)
            return PolicyStepResult(
                round=shock.round,
                totals=state.totals.copy(),
                clearing=clearing,
                intervention=InterventionVector(
                    amounts=z, budget=budget, caps=caps_vec
                ),
                reward=float(clearing.sum()),
                beta=matrix.row_sums.copy(),
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
    horizon = effective_horizon(config, env)
    start = SystemState.empty(env.n)
    caps = config.caps
    rounding_reports = None
    certificate_info = None
    pof = pof_unc = pof_con = None

    if config.mode in ("zero_input", "fractional"):
        runs = sampled_runs(
            env, start, config.samples, config.budget, caps,
            fairness=config.fairness, seed=config.seed,
            threads=config.threads, horizon=horizon,
        )
        if config.paired_pof:
            baseline = sampled_runs(
                env, start, config.samples, config.budget, caps,
                fairness=None, seed=config.seed,
                threads=config.threads, horizon=horizon,
            )
            from .fairness import price_of_fairness

            pof_unc = float(np.mean([v for _, v, _ in baseline]))
            pof_con = float(np.mean([v for _, v, _ in runs]))
            pof = price_of_fairness(pof_unc, pof_con)
    elif config.mode == "discrete":
        results = discrete_runs(
            env, start, config.samples, config.budget, caps,
            tau=config.retries, seed=config.seed,
            threads=config.threads, horizon=horizon,
        )
        rounding_reports = tuple(r for _, r, _ in results)
        runs = [(p, r.value_sol, s) for p, r, s in results]
    elif config.mode == "horizon_lp":
        runs, certificate_info = _horizon_lp_runs(
            env, horizon, config.samples, config.budget, caps, config.seed
        )
    else:  # pragma: no cover - guarded by config validation
        raise ValidationError(f"unknown mode {config.mode}")

    values = [v for _, v, _ in runs]
    all_steps = [s for _, _, s in runs]
    rows = _steps_to_rows(all_steps)
    rounds = sorted({r.round for r in rows})

    per_round = {t: [] for t in rounds}
    for steps in all_steps:
        for step in steps:
            per_round[step.round].append(step.reward)
    per_round_rewards = tuple(float(np.mean(per_round[t])) for t in rounds)
    reward_stderr = {t: _stderr(per_round[t]) for t in rounds}

    gini_per_round = None
    if config.fairness is not None:
        gini_per_round = tuple(
            float(np.mean([
                s.gini for steps in all_steps for s in steps
                if s.round == t and s.gini is not None
            ]))
            for t in rounds
        )

    scatter = summarize_scatter(rows)
    report = SummaryReport(
        mode=config.mode,
        samples=config.samples,
        seed=config.seed,
        budget=config.budget,
        horizon=horizon,
        total_value_mean=float(np.mean(values)),
        total_value_stderr=_stderr(values),
        per_round_rewards=per_round_rewards,
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
    files: dict[str, str] = {}
    path = os.path.join(config.out_dir, "trace.csv")
    _write_csv(
        path,
        ["sample", "t", "node", "P", "p_tilde", "z", "reward"],
        [
            (r.sample, r.round, r.node, r.totals, r.cleared, r.intervention,
             r.reward)
            for r in rows
        ],
    )
    files["trace"] = path
    files.update(emit_plot_data(report, rows, config.out_dir, reward_stderr))
    path = os.path.join(config.out_dir, "summary.json")
    write_atomic(
        path, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )
    files["summary"] = path
    return report, files
