"""Optimal fractional interventions: the per-round joint clearing and
allocation LP, the sequential solve along a shock realization, and Monte
Carlo aggregation of the value function."""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .clearing import (
    LP_REPAIR_TOL,
    LinearProgram,
    SolverError,
    clear_stack,
    dense_coo,
    leq_program,
    solve_optimal,
)
from .errors import ContractionError, ValidationError
from .fairness import FairnessSpec, fairness_constraint_block, gini_coefficient
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
        return stderr(self.values)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        half = z * self.stderr
        return (self.mean - half, self.mean + half)


def stderr(values) -> float:
    """Standard error of the mean of ``values``; 0 below two values."""
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


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


#: Largest gap between the knapsack route's primal value and the objective
#: of its dual certificate, relative to the primal value (or 1 when that is
#: smaller), at which the route's step counts as optimal.
KNAPSACK_GAP_TOL = 1e-9


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

    Without a fairness spec the round is first solved as a knapsack on the
    default set (see :func:`_knapsack_round`); a step whose LP duality
    certificate holds is returned without an LP.  Every other round is the
    LP over ``(P_tilde, Z)``, plus one slack per unordered fairness pair
    when a fairness spec is attached, solved by HiGHS.  The base problem is
    always feasible (zero intervention plus the zero-input clearing), so a
    non-optimal status only arises from genuinely conflicting extra rows and
    is raised as :class:`SolverError`.  Either way the clearing is clipped
    into its bounds and the intervention rescaled onto the budget; a repair
    larger than ``LP_REPAIR_TOL`` is raised as :class:`SolverError` too.
    """
    totals = np.asarray(totals, dtype=float)
    assets = np.asarray(assets, dtype=float)
    n = matrix.n
    caps = broadcast_caps(caps, n)
    if budget < 0:
        raise ValidationError("budget must be nonnegative")

    fair_weights = block = None
    if fairness is None:
        certified = _knapsack_round(matrix, totals, assets, float(budget), caps)
        if certified is not None:
            return lp_step("per-round knapsack", round_index, totals, matrix,
                           *certified, budget, caps)
    else:
        fair_weights = fairness.weights_for(matrix)
        block = fairness_constraint_block(fair_weights, fairness.g)

    source = "per-round allocation LP"
    lp = _allocation_lp(matrix, totals, assets, budget, caps, block)
    sol = solve_optimal(lp, source)
    return lp_step(
        source, round_index, totals, matrix, sol.primal[:n], sol.primal[n : 2 * n],
        budget, caps, fair_weights,
    )


def _allocation_lp(matrix: RelativeLiabilityMatrix, totals: np.ndarray,
                   assets: np.ndarray, budget: float, caps: np.ndarray,
                   block=None) -> LinearProgram:
    """The per-round LP over ``(P_tilde, Z)`` and the slacks of a fairness
    ``block`` (none when None): maximize ``1^T P_tilde`` subject to
    ``(I - A^T) P_tilde - Z <= c``, ``1^T Z <= B`` and the block's rows,
    with ``P_tilde <= totals`` and ``Z <= caps``."""
    n = matrix.n
    n_slack = block.n_slacks if block is not None else 0
    objective = np.concatenate([np.ones(n), np.zeros(n + n_slack)])
    k = np.arange(n)
    triplets = [
        # default constraint: (I - A^T) P_tilde - Z <= c
        dense_coo(np.eye(n) - matrix.entries.T),
        (k, n + k, np.full(n, -1.0)),
        # budget: 1^T Z <= B
        (np.full(n, n), n + k, np.ones(n)),
    ]
    rhs = np.append(assets, float(budget))
    if block is not None:
        e = np.arange(n_slack)  # -varpi_k in pair row k, 2 w'_k varpi_k in the cap row
        triplets += [dense_coo(block.z_rows, n + 1, n),
                     (n + 1 + e, 2 * n + e, np.full(n_slack, -1.0)),
                     (np.full(n_slack, n + 1 + n_slack), 2 * n + e, block.cap_slack)]
        rhs = np.concatenate([rhs, block.rhs])
    upper = np.concatenate([totals, caps, np.full(n_slack, np.inf)])
    return leq_program(objective, triplets, rhs, upper)


def _knapsack_round(matrix: RelativeLiabilityMatrix, totals: np.ndarray,
                    assets: np.ndarray, budget: float, caps: np.ndarray):
    """``(clearing, Z)`` solving the fairness-free per-round LP when the
    intervention leaves the zero-intervention default set ``D`` as it is,
    and None when that cannot be certified.

    While ``D`` is fixed, a unit given to node ``i`` in ``D`` raises total
    payments by ``v_i = [(I - A_DD)^-1 1]_i``, so ``Z`` fills the caps of
    ``D`` in order of decreasing ``v`` (ties to the lower index) until the
    budget is spent, and ``D`` pays ``x_D`` solving
    ``(I - A_DD^T) x_D = c_D + Z_D + A_SD^T P_S`` while the solvent set
    ``S`` pays ``P_S``.  The step is returned only when ``(x, Z)`` is
    feasible to ``LP_REPAIR_TOL`` and its value matches, to
    ``KNAPSACK_GAP_TOL``, the objective of the dual point ``y = v`` on
    ``D`` and 0 on ``S``, ``mu = v`` of the first node left under its cap
    (0 when none is), ``gamma = max(0, y - mu)`` and
    ``alpha = max(0, 1 - (I - A) y)``, which is dual feasible whenever
    ``y >= 0``: by weak duality ``(x, Z)`` is then optimal.
    """
    entries = matrix.entries
    try:
        cleared = clear_stack(entries[None], totals[None], assets[None])[0]
    except ContractionError:  # a row sum of 1: the LP is still well posed
        return None
    short = entries.T @ cleared + assets < totals
    defaults, solvent = np.flatnonzero(short), np.flatnonzero(~short)
    eye = np.eye(defaults.size)
    inner = entries[np.ix_(defaults, defaults)]
    v = np.linalg.solve(eye - inner, np.ones(defaults.size))
    order = np.argsort(-v, kind="stable")
    room = caps[defaults][order]
    fill = np.clip(budget - np.concatenate(([0.0], np.cumsum(room)[:-1])),
                   0.0, room)
    z = np.zeros(matrix.n)
    z[defaults[order]] = fill
    x = totals.copy()
    x[defaults] = np.linalg.solve(
        eye - inner.T,
        assets[defaults] + z[defaults]
        + entries[np.ix_(solvent, defaults)].T @ totals[solvent],
    )
    tol = LP_REPAIR_TOL
    feasible = (
        np.all((-tol <= x) & (x <= totals + tol))
        and np.all(x - entries.T @ x - z <= assets + tol)
        and z.sum() <= budget + tol
    )
    y = np.zeros(matrix.n)
    y[defaults] = v
    under = np.flatnonzero(fill < room)
    mu = float(v[order[under[0]]]) if under.size else 0.0
    alpha = np.maximum(0.0, 1.0 - (y - entries @ y))
    dual = (assets @ y + budget * mu + totals @ alpha
            + caps @ np.maximum(0.0, y - mu))
    primal = float(x.sum())
    if not (feasible and np.all(y >= 0.0)
            and abs(dual - primal) <= KNAPSACK_GAP_TOL * max(1.0, primal)):
        return None
    return x, z


def lp_step(source: str, round_index: int, totals: np.ndarray,
            matrix: RelativeLiabilityMatrix, clearing: np.ndarray, z: np.ndarray,
            budget: float, caps: np.ndarray, weights=None) -> PolicyStepResult:
    """One round of an LP solution as a :class:`PolicyStepResult`.

    The clearing is clipped into ``[0, totals]``, the intervention into
    ``[0, caps]`` and rescaled onto ``budget``; a repair larger than
    ``LP_REPAIR_TOL`` raises :class:`SolverError` naming ``source``.  The
    Gini of the intervention is recorded when fairness ``weights`` are given.
    """
    clearing = _repair(clearing, 0.0, totals, "clearing", source)
    # + 0.0 turns the LP's -0.0 into 0.0 whatever the memory layout of caps
    z = _repair(z, 0.0, caps, "intervention", source) + 0.0
    z = _onto_budget(z, budget, source)
    return PolicyStepResult(
        round=round_index,
        totals=totals.copy(),
        clearing=clearing,
        intervention=InterventionVector(amounts=z, budget=float(budget), caps=caps),
        reward=float(clearing.sum()),
        beta=matrix.row_sums.copy(),
        gini=None if weights is None else gini_coefficient(z, weights),
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
    round's optimal clearing feeds the next round's state.  Without
    ``fairness`` a round whose knapsack on the default set is certified
    optimal needs no LP (see :func:`per_round_lp`); a zero budget always is.
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


def sample_paths(
    env, n_samples: int, seed: int, horizon: int | None = None
) -> tuple[list[np.random.Generator], list[SamplePath]]:
    """Sample ``i`` draws rounds ``1..horizon`` (``env.horizon`` when None)
    on ``substream(seed, i)``.  Returns the per-sample streams, left where
    the path draw ends so later per-sample draws continue them, and the
    paths."""
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    last = env.horizon if horizon is None else horizon
    rngs = [substream(seed, i) for i in range(n_samples)]
    return rngs, [env.sample_path(1, last, rng) for rng in rngs]


def ordered_map(fn, items, threads: int = 1) -> list:
    """``[fn(item) for item in items]`` on ``threads`` workers; results keep
    the order of ``items`` whatever the worker count."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def once_per_distinct_path(paths: list[SamplePath], solve, threads: int = 1):
    """``[solve(path) for path in paths]`` with ``solve`` called once per
    distinct path (identical shocks, as a replay draws), in order of first
    appearance and on ``threads`` workers; results keep the order of
    ``paths`` whatever the worker count."""
    keys = [_path_key(p) for p in paths]
    first: dict[bytes, SamplePath] = {}
    for key, path in zip(keys, paths):
        first.setdefault(key, path)
    by_key = dict(zip(first, ordered_map(solve, first.values(), threads)))
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
    _, paths = sample_paths(env, n_samples, seed, horizon)
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
