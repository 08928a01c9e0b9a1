"""Experiment runner: wires a configured environment to a policy mode,
collects traces, and emits reproducible CSV/JSON outputs."""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clearing import clear_fixed_point
from .config import ExperimentConfig, build_environment
from .discrete import RoundingReport, discrete_runs
from .errors import CertificateError, ValidationError
from .fairness import price_of_fairness
from .fractional import (
    PolicyStepResult,
    broadcast_caps,
    lp_step,
    per_sample,
    rollout,
    sampled_runs,
    stderr,
)
from .horizon import GAP_TOL, check_constant_proportions, solve_horizon_primal
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
        interventions=field(lambda s: s.intervention),
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


def write_atomic(path: str, *text: str) -> None:
    """Write ``text`` to ``path`` by a rename, so no reader sees a partial
    file, with the mode ``open(path, "w")`` gives, not ``mkstemp``'s 0600."""
    directory = os.path.dirname(path) or "."
    umask = os.umask(0)  # the umask is read only by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _float_cells(*arrays: np.ndarray) -> list[list[str]]:
    """Each float64 array's cells as ``str`` of its floats: one ``repr`` per
    distinct bit pattern over all arrays, so ``-0.0`` and ``0.0`` stay apart."""
    bits, inverse = np.unique(np.concatenate([a.ravel() for a in arrays])
                              .view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    ends = np.cumsum([a.size for a in arrays[:-1]], dtype=int)
    return [text[part].tolist() for part in np.split(inverse, ends)]


def _cells(*columns) -> list[list[str]]:
    """Cell strings: a float64 array's by :func:`_float_cells`, else ``str``."""
    return [_float_cells(c)[0] if isinstance(c, np.ndarray) and c.dtype == float
            else list(map(str, c)) for c in columns]


def _write_csv(path: str, header: list[str], columns: list[list[str]]) -> None:
    """Write a table given as columns of cell strings, one row per index.
    Rows are joined a block at a time, so that no list of every row is held
    beside the columns."""
    rows = map(",".join, zip(*columns))
    blocks = [",".join(header) + "\n"]
    while block := list(itertools.islice(rows, 4096)):
        blocks.append("\n".join(block) + "\n")
    write_atomic(path, *blocks)


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

    def table(name: str, header: list[str], columns: list[list[str]]) -> None:
        files[name] = os.path.join(out_dir, f"{name}.csv")
        _write_csv(files[name], header, columns)

    # one repr per distinct float of P, p_tilde, z and the reward, which is
    # formatted per (sample, round) and then repeated on its n node rows
    samples, _, n = trace.cleared.shape
    *values, rewards = _float_cells(trace.totals, trace.cleared,
                                    trace.interventions, trace.rewards)
    rounds = trace.rounds.tolist()
    nodes = list(map(str, range(n)))
    prefix = [f"{s},{t}" for s in range(samples) for t in rounds]
    table("trace", ["sample", "t", "node", "P", "p_tilde", "z", "reward"],
          [[p for p in prefix for _ in nodes], nodes * len(prefix), *values,
           [r for r in rewards for _ in nodes]])
    table("rewards", ["t", "mean_reward", "stderr"],
          _cells(rounds, report.per_round_rewards, reward_stderr))
    mean_z = _per_round(trace.interventions.sum(axis=2)).mean(axis=1)
    table("interventions", ["t", "mean_total_interventions"],
          _cells(rounds, mean_z))
    scatter = report.scatter
    table("scatter",
          ["node", "total_payments", "total_interventions", "mean_beta"],
          _cells(scatter.nodes.tolist(), scatter.total_payments,
                 scatter.total_interventions, scatter.mean_beta))
    if report.gini_per_round is not None:
        table("gini", ["t", "kind", "g", "gc_realized"],
              _cells(rounds, [report.fairness_kind] * len(rounds),
                     [report.fairness_cap] * len(rounds), report.gini_per_round))
    if report.rounding is not None:
        table("rounding",
              ["sample", "attempts", "feasible", "value_sol", "value_rel",
               "ratio", "bound"],
              _cells(*zip(*[(r.sample_index, r.attempts, int(r.feasible),
                             r.value_sol, r.value_rel, r.ratio, 1.0 - r.gamma_hat)
                            for r in report.rounding])))
    if report.pof is not None:
        table("pof", ["value_unconstrained", "value_constrained", "pof"],
              _cells([report.pof_unconstrained], [report.pof_constrained],
                     [report.pof]))

    path = os.path.join(out_dir, "PLOTS_README.md")
    write_atomic(path, PLOTS_README)
    files["plots_readme"] = path
    return files


def _horizon_lp_runs(env, horizon, n_samples, budget, caps, seed):
    """One whole-horizon solve per distinct sampled path (a replay is solved
    once, :func:`per_sample`), its schedule replayed along the path for
    trace output, and the duality gap taken against the verified dual of the
    same solve: the closed-form dual point where every node stays in
    default, the HiGHS marginals otherwise.  Replaying clips payments to the replayed totals
    and interventions to the caps and rescales them onto the budget; a
    repair beyond ``LP_REPAIR_TOL`` raises :class:`SolverError`.

    A closed-form schedule is the maximal clearing of every replayed round
    by construction.  A schedule HiGHS solved need not be, since the horizon
    LP lets a solvent node pay late, so each of its replayed rounds is
    compared with the maximal clearing (:func:`clear_fixed_point`) of the
    replayed state and intervention; a gap beyond ``GAP_TOL`` raises
    :class:`CertificateError` naming the sample and the round."""
    caps = broadcast_caps(caps, env.n)

    def solve(index, path):
        certificate = check_constant_proportions(path)
        if not certificate.valid:
            raise CertificateError(
                "horizon_lp mode needs constant liability proportions; "
                f"sample {index} deviates by "
                f"{certificate.max_violation}"
            )
        primal = solve_horizon_primal(path, budget, caps, certificate)

        def step(t, shock, state, matrix):
            result = lp_step(
                "horizon LP replay", shock.round, state.totals, matrix,
                primal.clearing[t], primal.interventions[t], budget, caps,
            )
            if not primal.closed_form:
                maximal = clear_fixed_point(matrix, state.totals,
                                            shock.external_assets,
                                            result.intervention)
                gap = float(np.abs(result.clearing - maximal).max())
                if not gap <= GAP_TOL:
                    raise CertificateError(
                        f"the horizon schedule of sample {index} "
                        f"pays {gap:.3g} away from the maximal clearing in "
                        f"round {shock.round}, so it is not a trajectory of the "
                        "clearing dynamics"
                    )
            return result

        value, steps = rollout(SystemState.empty(path.n), path, step)
        gap = abs(primal.value - primal.dual.value)
        return value, steps, certificate.max_violation, gap

    solved = per_sample(env, n_samples, seed, solve, horizon=horizon)
    runs = [(value, steps) for value, steps, _, _ in solved]
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
            pof_unc = float(np.mean([v for v, _ in baseline]))
            pof_con = float(np.mean([v for v, _ in runs]))
            pof = price_of_fairness(pof_unc, pof_con)
    elif config.mode == "discrete":
        results = discrete_runs(
            env, start, config.samples, config.budget, caps,
            tau=config.retries, seed=config.seed,
            threads=config.threads, horizon=config.horizon,
        )
        rounding_reports = tuple(r for r, _ in results)
        runs = [(r.value_sol, s) for r, s in results]
    elif config.mode == "horizon_lp":
        runs, certificate_info = _horizon_lp_runs(
            env, config.horizon, config.samples, config.budget, caps, config.seed
        )
    else:  # pragma: no cover - guarded by config validation
        raise ValidationError(f"unknown mode {config.mode}")

    values = [v for v, _ in runs]
    all_steps = [s for _, s in runs]
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
