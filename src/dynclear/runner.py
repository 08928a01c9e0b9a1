"""Experiment runner: wires a configured environment to a policy mode,
collects traces, and emits reproducible CSV/JSON outputs."""

from __future__ import annotations

import functools
import itertools
import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clearing import clear_fixed_point
from .config import ExperimentConfig, build_environment
from .discrete import RoundingReport, discrete_runs
from .errors import CertificateError, ValidationError
from .fairness import price_of_fairness
from .fractional import (
    broadcast_caps,
    lp_step,
    per_sample,
    sampled_runs,
    stderr,
)
from .horizon import GAP_TOL, check_constant_proportions, solve_horizon_primal
from .network import RelativeLiabilityMatrix, SystemState, play


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
                "mean_bound": float(np.mean([1.0 - r.gamma_hat
                                             for r in self.rounding])),
                "infeasible_samples": sum(not r.feasible for r in self.rounding),
            }
        if self.certificate_info is not None:
            out["certificate"] = self.certificate_info
        return out


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


def summarize_scatter(payments: np.ndarray, interventions: np.ndarray,
                      beta: np.ndarray, rounds: int) -> ScatterSummary:
    """Average the (samples, n) sums over each sample's ``rounds`` rounds
    over samples and fit interventions against payments and against mean
    connectivity.  Zero-variance regressors are flagged degenerate with
    slope and R^2 reported as 0."""
    if payments.size == 0:
        raise ValidationError("no trace rows to summarize")
    total_payments = payments.mean(axis=0)
    total_interventions = interventions.mean(axis=0)
    mean_beta = beta.mean(axis=0) / rounds
    return ScatterSummary(
        nodes=np.arange(payments.shape[1]),
        total_payments=total_payments,
        total_interventions=total_interventions,
        mean_beta=mean_beta,
        payments_fit=_ols(total_payments, total_interventions),
        connectivity_fit=_ols(mean_beta, total_interventions),
    )


def write_atomic(path: str, text: Iterable[str]) -> None:
    """Write the strings of ``text`` to ``path`` by a rename, so no reader
    sees a partial file and a failure leaves ``path`` as it was, with the
    mode ``open(path, "w")`` gives, not ``mkstemp``'s 0600."""
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
    """Write a table given as columns of cell strings, one row per index."""
    write_atomic(path, (",".join(row) + "\n"
                        for row in itertools.chain([header], zip(*columns))))


def _trace_blocks(runs: Iterable, kept: list) -> Iterator[str]:
    """``trace.csv`` a sample at a time as ``runs`` yields ``(record,
    steps)``, keeping in ``kept`` only ``(record, rounds, rewards, gini,
    round_z, payments, interventions, beta)``: the round numbers, per round
    the reward, Gini and total intervention, and per node the sums over the
    rounds.  Steps that are the previous sample's (a replay solved once)
    reuse its reductions and cells; each distinct float and each (sample,
    round) prefix is formatted once per sample."""
    yield "sample,t,node,P,p_tilde,z,reward\n"
    previous = None
    for sample, (record, steps) in enumerate(runs):
        if steps is not previous:
            previous = steps
            totals, cleared, z, beta, rewards = (
                np.array([getattr(s, name) for s in steps], float)
                for name in ("totals", "clearing", "intervention", "beta", "reward")
            )
            rounds = [s.round for s in steps]
            reduced = (rounds, rewards, [s.gini for s in steps], z.sum(axis=1),
                       cleared.sum(axis=0), z.sum(axis=0), beta.sum(axis=0))
            *values, reward = _float_cells(totals, cleared, z, rewards)
            nodes = list(map(str, range(z.shape[1])))
            cells = [nodes * len(steps), *values,
                     [r for r in reward for _ in nodes]]
        kept.append((record, *reduced))
        prefix = [f"{sample},{t}" for t in rounds]
        rows = zip([p for p in prefix for _ in nodes], *cells)
        yield "\n".join(map(",".join, rows)) + "\n"


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


def emit_plot_data(report: SummaryReport, out_dir: str, rounds: list[int],
                   reward_stderr: list[float],
                   mean_interventions: np.ndarray) -> dict[str, str]:
    """Write the per-figure CSV families beside ``trace.csv`` and the
    column-reference README; ``rounds`` are the round numbers, and
    ``reward_stderr`` and ``mean_interventions`` give each round's reward
    standard error and mean total intervention."""
    files: dict[str, str] = {}

    def table(name: str, header: list[str], columns: list[list[str]]) -> None:
        files[name] = os.path.join(out_dir, f"{name}.csv")
        _write_csv(files[name], header, columns)

    table("rewards", ["t", "mean_reward", "stderr"],
          _cells(rounds, report.per_round_rewards, reward_stderr))
    table("interventions", ["t", "mean_total_interventions"],
          _cells(rounds, mean_interventions))
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
    write_atomic(path, [PLOTS_README])
    files["plots_readme"] = path
    return files


def _horizon_lp_runs(env, horizon, n_samples, budget, caps, seed) -> Iterator:
    """``((value, max_violation, gap), steps)`` of each sample in order: one
    whole-horizon solve per distinct sampled path (a replay is solved once,
    :func:`per_sample`), its schedule replayed along the path for trace
    output, and the duality gap taken against the verified dual of the same
    solve: the closed-form dual point where every node stays in default, the
    HiGHS marginals otherwise.  Replaying clips payments to the replayed totals
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

        def step(t, shock, totals, entries):
            matrix = RelativeLiabilityMatrix(entries)
            result = lp_step(
                "horizon LP replay", shock.round, totals, matrix,
                primal.clearing[t], primal.interventions[t], budget, caps,
            )
            if not primal.closed_form:
                maximal = clear_fixed_point(matrix, totals, shock.external_assets,
                                            result.intervention)
                gap = float(np.abs(result.clearing - maximal).max())
                if not gap <= GAP_TOL:
                    raise CertificateError(
                        f"the horizon schedule of sample {index} "
                        f"pays {gap:.3g} away from the maximal clearing in "
                        f"round {shock.round}, so it is not a trajectory of the "
                        "clearing dynamics"
                    )
            return result.clearing, result

        steps = list(play(SystemState.empty(path.n), path, step))
        value = float(sum(s.reward for s in steps))
        gap = abs(primal.value - primal.dual.value)
        return (value, certificate.max_violation, gap), steps

    return per_sample(env, n_samples, seed, solve, horizon=horizon)


def run_experiment(
    config: ExperimentConfig, env=None
) -> tuple[SummaryReport, dict[str, str]]:
    """Execute one configured experiment and write its trace files.

    Each sample's ``trace.csv`` rows are written as it arrives, and only its
    reductions are kept (:func:`_trace_blocks`).  Outputs are deterministic
    for a fixed (config, seed) and independent of the thread count; files
    are written atomically (temp file + rename), so a failed run leaves an
    existing ``out_dir`` as it was.
    """
    if env is None:
        env = build_environment(config)
    start = SystemState.empty(env.n)
    caps = config.caps
    rounding_reports = certificate_info = pof = pof_unc = None

    if config.mode in ("zero_input", "fractional"):
        runs_under = functools.partial(
            sampled_runs, env, start, config.samples, config.budget, caps,
            seed=config.seed, threads=config.threads, horizon=config.horizon,
        )
        if config.paired_pof:
            pof_unc = float(np.mean([v for v, _ in runs_under(fairness=None)]))
        runs = runs_under(fairness=config.fairness)
    elif config.mode == "discrete":
        runs = discrete_runs(
            env, start, config.samples, config.budget, caps,
            tau=config.retries, seed=config.seed,
            threads=config.threads, horizon=config.horizon,
        )
    elif config.mode == "horizon_lp":
        runs = _horizon_lp_runs(
            env, config.horizon, config.samples, config.budget, caps, config.seed
        )
    else:  # pragma: no cover - guarded by config validation
        raise ValidationError(f"unknown mode {config.mode}")

    os.makedirs(config.out_dir, exist_ok=True)
    files = {"trace": os.path.join(config.out_dir, "trace.csv")}
    kept: list[tuple] = []
    write_atomic(files["trace"], _trace_blocks(runs, kept))
    records, rounds, rewards, gini, round_z, payments, interventions, beta = (
        zip(*kept))
    if config.mode == "discrete":
        rounding_reports = records
        values = [r.value_sol for r in records]
    elif config.mode == "horizon_lp":
        values, violations, gaps = zip(*records)
        certificate_info = {"valid": True, "max_violation": max(violations),
                            "max_duality_gap": max(gaps)}
    else:
        values = records

    rounds = rounds[0]
    by_round = _per_round(np.array(rewards))
    gini_per_round = None
    if config.fairness is not None:
        gini_per_round = tuple(
            _per_round(np.array(gini, float)).mean(axis=1).tolist())
    mean_value = float(np.mean(values))
    if config.paired_pof:
        pof = price_of_fairness(pof_unc, mean_value)

    report = SummaryReport(
        mode=config.mode,
        samples=config.samples,
        seed=config.seed,
        budget=config.budget,
        horizon=len(rounds),
        total_value_mean=mean_value,
        total_value_stderr=stderr(values),
        per_round_rewards=tuple(by_round.mean(axis=1).tolist()),
        scatter=summarize_scatter(np.array(payments), np.array(interventions),
                                  np.array(beta), len(rounds)),
        gini_per_round=gini_per_round,
        fairness_kind=None if config.fairness is None else config.fairness.kind,
        fairness_cap=None if config.fairness is None else config.fairness.g,
        pof=pof,
        pof_unconstrained=pof_unc,
        pof_constrained=mean_value if config.paired_pof else None,
        rounding=rounding_reports,
        certificate_info=certificate_info,
    )

    files.update(emit_plot_data(
        report, config.out_dir, rounds, [stderr(r) for r in by_round],
        _per_round(np.array(round_z)).mean(axis=1),
    ))
    path = os.path.join(config.out_dir, "summary.json")
    write_atomic(
        path, [json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"]
    )
    files["summary"] = path
    return report, files
