"""Optimal fractional interventions: the per-round joint clearing and
allocation LP, the sequential solve along a shock realization, and Monte
Carlo aggregation of the value function."""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .clearing import LEQ, LP_REPAIR_TOL, LinearProgram, SolverError, solve_lp
from .errors import ValidationError
from .fairness import FairnessSpec, gini_coefficient
from .network import (
    InterventionVector,
    RelativeLiabilityMatrix,
    SamplePath,
    SystemState,
    advance_state,
    relative_matrix,
)


@dataclass(frozen=True, eq=False)
class PolicyStepResult:
    """One round of the policy: realized totals, optimal clearing and
    intervention, and the round reward (total payments)."""

    round: int
    totals: np.ndarray
    clearing: np.ndarray
    intervention: InterventionVector
    reward: float
    beta: np.ndarray
    gini: float | None = None


@dataclass(frozen=True, eq=False)
class ValueEstimate:
    """Monte Carlo estimate of the value function."""

    mean: float
    values: tuple[float, ...]
    sample_count: int
    horizon_len: int

    def __post_init__(self):
        if self.sample_count != len(self.values):
            raise ValidationError("sample_count inconsistent with values")
        if abs(self.mean - float(np.mean(self.values))) > 1e-12:
            raise ValidationError("mean inconsistent with per-sample values")

    @property
    def stderr(self) -> float:
        if self.sample_count < 2:
            return 0.0
        return float(np.std(self.values, ddof=1) / math.sqrt(self.sample_count))

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        half = z * self.stderr
        return (self.mean - half, self.mean + half)


def broadcast_caps(caps, n: int) -> np.ndarray:
    """Scalar caps broadcast to ``L * ones``; vectors pass through."""
    arr = np.asarray(caps, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValidationError(f"caps must be scalar or length {n}")
    if np.any(arr < 0):
        raise ValidationError("caps must be nonnegative")
    return arr


def _repair(values: np.ndarray, lo, hi, what: str, source: str) -> np.ndarray:
    """Clip an LP primal into its bounds, raising :class:`SolverError` when
    the clip moves any entry by more than ``LP_REPAIR_TOL``."""
    fixed = np.clip(values, lo, hi)
    gap = float(np.abs(fixed - values).max(initial=0.0))
    if not gap <= LP_REPAIR_TOL:  # NaN counts as a failure too
        raise SolverError(
            f"{source} put the {what} {gap:.3g} outside its "
            f"bounds, beyond LP_REPAIR_TOL={LP_REPAIR_TOL:g}"
        )
    return fixed


def _onto_budget(z: np.ndarray, budget: float, source: str) -> np.ndarray:
    """Rescale an intervention that overspends ``budget`` (zero included)
    onto it, raising :class:`SolverError` when the excess is larger than
    ``LP_REPAIR_TOL``."""
    total = float(z.sum())
    if total > budget:
        if total - budget > LP_REPAIR_TOL:
            raise SolverError(
                f"{source} spent {total - budget:.3g} over the budget, "
                f"beyond LP_REPAIR_TOL={LP_REPAIR_TOL:g}"
            )
        z = z * (budget / total)  # shave solver noise, never real mass
    return z


def per_round_lp(
    matrix: RelativeLiabilityMatrix,
    totals,
    assets,
    budget: float,
    caps,
    fairness: FairnessSpec | None = None,
    round_index: int = 0,
) -> PolicyStepResult:
    """Jointly maximize one round's payments over clearing and intervention.

    Variables are ``(P_tilde, Z)`` plus one slack per unordered fairness
    pair when a fairness spec is attached.  The base problem is always
    feasible (zero intervention plus the zero-input clearing), so a
    non-optimal status only arises from genuinely conflicting extra rows and
    is raised as :class:`SolverError`.  The optimal primal is clipped into
    its bounds and the intervention rescaled onto the budget; a repair
    larger than ``LP_REPAIR_TOL`` is raised as :class:`SolverError` too.
    """
    totals = np.asarray(totals, dtype=float)
    assets = np.asarray(assets, dtype=float)
    n = matrix.n
    caps = broadcast_caps(caps, n)
    if budget < 0:
        raise ValidationError("budget must be nonnegative")

    block = None
    fair_weights = None
    if fairness is not None:
        fair_weights = fairness.weights_for(matrix)
        from .fairness import fairness_constraint_block

        block = fairness_constraint_block(fair_weights, fairness.g)

    n_slack = block.n_slacks if block is not None else 0
    dim = 2 * n + n_slack
    objective = np.zeros(dim)
    objective[:n] = 1.0

    n_rows = n + 1 + (block.rhs.size if block is not None else 0)
    lhs = np.zeros((n_rows, dim))
    # default constraint: (I - A^T) P_tilde - Z <= c
    lhs[:n, :n] = np.eye(n) - matrix.entries.T
    lhs[:n, n : 2 * n] = -np.eye(n)
    # budget: 1^T Z <= B
    lhs[n, n : 2 * n] = 1.0
    rhs = [float(a) for a in assets] + [float(budget)]
    if block is not None:
        lhs[n + 1 :, n : 2 * n] = block.z_rows
        lhs[n + 1 :, 2 * n :] = block.slack_rows
        rhs += [float(b) for b in block.rhs]
    rows = tuple((row, LEQ, b) for row, b in zip(lhs, rhs))

    bounds = [(0.0, float(p)) for p in totals]
    bounds += [(0.0, float(c)) for c in caps]
    bounds += [(0.0, float("inf"))] * n_slack

    sol = solve_lp(
        LinearProgram(
            objective=objective,
            constraints=rows,
            variable_bounds=tuple(bounds),
        )
    )
    if sol.status != "optimal":
        raise SolverError(
            f"per-round allocation LP returned status {sol.status}: "
            f"{sol.message}",
            status=sol.status,
        )
    source = "per-round allocation LP"
    clearing = _repair(sol.primal[:n], 0.0, totals, "clearing", source)
    z = _repair(sol.primal[n : 2 * n], 0.0, caps, "intervention", source)
    z = _onto_budget(z, budget, source)
    gini = None
    if fair_weights is not None:
        gini = gini_coefficient(z, fair_weights)
    return PolicyStepResult(
        round=round_index,
        totals=totals.copy(),
        clearing=clearing,
        intervention=InterventionVector(amounts=z, budget=float(budget), caps=caps),
        reward=float(clearing.sum()),
        beta=matrix.row_sums.copy(),
        gini=gini,
    )


def rollout(start: SystemState, path: SamplePath, step):
    """Carry a policy forward along one shock realization.

    Each round folds the shock and the previous round's clearing into the
    state (:func:`advance_state`, from ``start`` with nothing cleared), then
    calls ``step(t, shock, state, matrix)`` for that round's
    :class:`PolicyStepResult`, whose clearing feeds the next round.  Returns
    the total reward and the per-round results.
    """
    if start.n != path.n:
        raise ValidationError("start state and path disagree on node count")
    state = start
    clearing = np.zeros(start.n)
    steps: list[PolicyStepResult] = []
    for t, shock in enumerate(path):
        state = advance_state(state, clearing, shock)
        steps.append(step(t, shock, state, relative_matrix(state)))
        clearing = steps[-1].clearing
    return float(sum(s.reward for s in steps)), steps


def value_given_sample_path(
    start: SystemState,
    path: SamplePath,
    budget: float,
    caps,
    fairness: FairnessSpec | None = None,
) -> tuple[float, list[PolicyStepResult]]:
    """Sequentially solve the per-round LPs along one shock realization.

    ``start`` is the state of the round before the path begins, with no
    clearing executed against it (the canonical debt-free start).  Each
    round's optimal clearing feeds the next round's state.
    """
    return rollout(
        start, path,
        lambda t, shock, state, matrix: per_round_lp(
            matrix, state.totals, shock.external_assets, budget, caps,
            fairness=fairness, round_index=shock.round,
        ),
    )


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-sample stream: independent of scheduling order."""
    return np.random.default_rng([int(seed), int(index)])


def _path_key(path: SamplePath) -> bytes:
    h = hashlib.sha1()
    for shock in path:
        h.update(shock.external_liabilities.tobytes())
        h.update(shock.external_assets.tobytes())
        h.update(shock.internal_liabilities.tobytes())
    return h.digest()


def once_per_distinct_path(paths: list[SamplePath], solve, threads: int = 1):
    """``[solve(path) for path in paths]`` with ``solve`` called once per
    distinct path (identical shocks, as a replay draws), in order of first
    appearance and on ``threads`` workers; results keep the order of
    ``paths`` whatever the worker count."""
    keys = [_path_key(p) for p in paths]
    first: dict[bytes, SamplePath] = {}
    for key, path in zip(keys, paths):
        first.setdefault(key, path)
    if threads <= 1:
        solved = [solve(p) for p in first.values()]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            solved = list(pool.map(solve, first.values()))
    by_key = dict(zip(first, solved))
    return [by_key[key] for key in keys]


def sampled_runs(
    env,
    start: SystemState,
    n_samples: int,
    budget: float,
    caps,
    fairness: FairnessSpec | None = None,
    seed: int = 0,
    threads: int = 1,
    horizon: int | None = None,
) -> list[tuple[SamplePath, float, list[PolicyStepResult]]]:
    """Draw ``n_samples`` paths on per-sample substreams and solve each.

    Results are ordered by sample index, so the output is bitwise identical
    for a fixed seed regardless of the worker count.  Identical paths (as
    produced by replay or other degenerate environments) are solved once.
    """
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    last = env.horizon if horizon is None else horizon
    paths = [
        env.sample_path(1, last, substream(seed, i)) for i in range(n_samples)
    ]
    solved = once_per_distinct_path(
        paths, lambda p: value_given_sample_path(start, p, budget, caps, fairness),
        threads,
    )
    return [(p, v, s) for p, (v, s) in zip(paths, solved)]


def aggregate_value(
    env,
    start: SystemState,
    n_samples: int,
    budget: float,
    caps,
    fairness: FairnessSpec | None = None,
    seed: int = 0,
    threads: int = 1,
) -> ValueEstimate:
    """Monte Carlo value estimate: mean of the per-path sequential optima."""
    runs = sampled_runs(
        env, start, n_samples, budget, caps,
        fairness=fairness, seed=seed, threads=threads,
    )
    values = tuple(v for _, v, _ in runs)
    return ValueEstimate(
        mean=float(np.mean(values)),
        values=values,
        sample_count=n_samples,
        horizon_len=len(runs[0][0]),
    )


def required_samples(
    delta: float, epsilon: float, horizon_len: int, shock_norm_bound: float
) -> int:
    """Samples needed for an epsilon-accurate estimate with probability
    1 - delta: ``ceil(log(2/delta) * horizon^2 * bound^2 / (2 eps^2))``,
    floored at one sample."""
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie in (0, 1)")
    if epsilon <= 0 or horizon_len <= 0 or shock_norm_bound <= 0:
        raise ValidationError("epsilon, horizon and bound must be positive")
    raw = (
        math.log(2.0 / delta)
        * horizon_len**2
        * shock_norm_bound**2
        / (2.0 * epsilon**2)
    )
    return max(1, int(math.ceil(raw)))
