"""Optimal fractional interventions: the per-round joint clearing and
allocation LP, the sequential solve along a shock realization, and Monte
Carlo aggregation of the value function."""

from __future__ import annotations

import math
import threading
import weakref
from collections import deque
from collections.abc import Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .clearing import (
    LP_REPAIR_TOL,
    LinearProgram,
    SolverError,
    clear_stack,
    dense_coo,
    gap_closes,
    leq_program,
    round_arrays,
    solve_optimal,
)
from .errors import ContractionError, ValidationError
from .fairness import FairnessSpec, fairness_constraint_block, gini_coefficient
from .network import (
    CONNECTIVITY_MARGIN,
    RelativeLiabilityMatrix,
    SamplePath,
    SystemState,
    play,
)


@dataclass(frozen=True, eq=False)
class PolicyStepResult:
    """One round of the policy: realized totals, optimal clearing and
    intervention amounts, and the round reward (total payments)."""

    round: int
    totals: np.ndarray
    clearing: np.ndarray
    intervention: np.ndarray
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
    if (arr < 0).any():
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
        scale = budget / total  # shave solver noise, never real mass
        while (z * scale).sum() > budget:  # the product can round an ulp over
            scale = np.nextafter(scale, 0.0)
        z = z * scale
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
    The arrays are checked by :func:`round_arrays`, and a budget that is
    not finite and >= 0 raises :class:`ValidationError`.
    """
    totals, assets, _ = round_arrays(matrix, totals, assets)
    n = matrix.n
    caps = broadcast_caps(caps, n)
    if not 0.0 <= budget < np.inf:
        raise ValidationError(f"budget = {budget} is not finite and >= 0")

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
    with ``P_tilde <= totals`` and ``Z <= caps``.

    With a block the LP carries a start basis: the slack ``varpi_k`` of pair
    ``{i < j}`` starts basic in place of its row's slack (the row tight)
    when ``kappa_i >= kappa_j``, with ``kappa = beta + A beta`` (``beta``
    the row sums) the first terms of the Katz centrality ``(I - A)^-1 1``.  At ``x = 0``
    that is a feasible vertex like the all-slack one, and a triangular
    basis, since each such ``varpi_k`` has -1 in its own row and its
    cap-row entry meets the cap row's basic slack (see README, "Numerical
    conventions")."""
    n = matrix.n
    n_slack = block.n_slacks if block is not None else 0
    basis = None
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
        triplets.append(block.triplets(n + 1, n, 2 * n))
        rhs = np.concatenate([rhs, np.zeros(n_slack + 1)])
        beta = matrix.row_sums
        centrality = beta + matrix.entries @ beta
        tight = np.flatnonzero(centrality[block.first] >= centrality[block.second])
        basis = np.stack([2 * n + tight, n + 1 + tight])
    upper = np.concatenate([totals, caps, np.full(n_slack, np.inf)])
    return leq_program(objective, triplets, rhs, upper, basis)


def _knapsack_round(matrix: RelativeLiabilityMatrix, totals: np.ndarray,
                    assets: np.ndarray, budget: float, caps: np.ndarray):
    """``(clearing, Z)`` solving the fairness-free per-round LP when the
    intervention leaves the zero-intervention default set ``D`` as it is,
    and None when that cannot be certified (see :func:`_certify_default_set`).

    Under the all-default gate of :func:`clear_stack` (every row sum below
    ``1 - CONNECTIVITY_MARGIN`` and ``c + A^T c < P`` at every node) the
    round is first certified on ``D = N`` without clearing it: weak duality
    makes a certificate valid whatever ``D`` it was built on.  Otherwise,
    or when that is refused, ``D`` comes from :func:`clear_stack` at
    ``Z = 0``; when it is every node, the attempt already made on it is the
    answer.  On ``D = N`` both attempts are the same expressions on the
    same arrays, so the result is bit for bit that of clearing first.  The
    first attempt can only certify a round whose ``D`` is smaller on the
    boundary where some node's all-default payment ``x_N`` lies within
    ``LP_REPAIR_TOL`` above its total; the step is then still optimal.
    """
    entries = matrix.entries
    gate = (float(matrix.row_sums.max(initial=0.0)) < 1.0 - CONNECTIVITY_MARGIN
            and bool((entries.T @ assets + assets < totals).all()))
    if gate:
        certified = _certify_default_set(matrix, totals, assets, budget, caps,
                                         np.ones(matrix.n, dtype=bool))
        if certified is not None:
            return certified
    try:
        cleared = clear_stack(entries[None], totals[None], assets[None])[0]
    except ContractionError:  # a row sum of 1: the LP is still well posed
        return None
    short = entries.T @ cleared + assets < totals
    if gate and short.all():
        return None  # refused on D = N above
    return _certify_default_set(matrix, totals, assets, budget, caps, short)


def _certify_default_set(matrix: RelativeLiabilityMatrix, totals: np.ndarray,
                         assets: np.ndarray, budget: float, caps: np.ndarray,
                         short: np.ndarray):
    """``(clearing, Z)`` of the knapsack on the default set ``D`` that the
    mask ``short`` marks, or None when its LP certificate fails.

    While ``D`` is fixed, a unit given to node ``i`` in ``D`` raises total
    payments by ``v_i = [(I - A_DD)^-1 1]_i``, so ``Z`` fills the caps of
    ``D`` by decreasing ``v`` (:func:`fill_caps`), and ``D`` pays ``x_D``
    solving ``(I - A_DD^T) x_D = c_D + Z_D + A_SD^T P_S`` while the solvent
    set ``S`` pays ``P_S``.  The step is returned only when ``(x, Z)`` is
    feasible to ``LP_REPAIR_TOL`` and its value matches, by
    :func:`gap_closes`, the objective of the dual point ``y = v`` on
    ``D`` and 0 on ``S``, the threshold ``mu`` of :func:`fill_caps`,
    ``gamma = max(0, y - mu)`` and
    ``alpha = max(0, 1 - (I - A) y)``, which is dual feasible whenever
    ``y >= 0``: by weak duality ``(x, Z)`` is then optimal, whichever ``D``
    it was built on.
    """
    entries = matrix.entries
    defaults, solvent = np.flatnonzero(short), np.flatnonzero(~short)
    if solvent.size:
        inner = entries[np.ix_(defaults, defaults)]
        inflow = entries[np.ix_(solvent, defaults)].T @ totals[solvent]
    else:  # D = N: no gather, and no solvent inflow to add
        inner, inflow = entries, 0.0
    lhs = np.eye(defaults.size) - inner
    v = np.linalg.solve(lhs, np.ones(defaults.size))
    z = np.zeros(matrix.n)
    z[defaults], mu = fill_caps(v, caps[defaults], budget)
    x = totals.copy()
    x[defaults] = np.linalg.solve(lhs.T, assets[defaults] + z[defaults] + inflow)
    tol = LP_REPAIR_TOL
    feasible = (
        ((-tol <= x) & (x <= totals + tol)).all()
        and (x - entries.T @ x - z <= assets + tol).all()
        and z.sum() <= budget + tol
    )
    y = np.zeros(matrix.n)
    y[defaults] = v
    alpha = np.maximum(0.0, 1.0 - (y - entries @ y))
    gamma = np.maximum(0.0, y - mu)
    # an infinite cap has gamma = 0 and adds 0, not inf * 0
    dual = (assets @ y + budget * mu + totals @ alpha
            + np.where(gamma > 0.0, caps, 0.0) @ gamma)
    primal = float(x.sum())
    if not (feasible and (y >= 0.0).all() and gap_closes(dual, primal)):
        return None
    return x, z


def fill_caps(v: np.ndarray, caps: np.ndarray, budget: float):
    """``(z, mu)`` of the fractional knapsack that spends ``budget`` on
    items of unit value ``v`` and capacity ``caps``: ``z`` fills the caps in
    order of decreasing ``v`` (a stable sort, so ties go to the lower index)
    until the budget is spent, and ``mu``, the budget's multiplier in the
    knapsack's LP dual, is the ``v`` of the first item left under its cap
    (0 when every cap is filled)."""
    order = np.argsort(-v, kind="stable")
    room = caps[order]
    fill = np.clip(budget - np.concatenate(([0.0], np.cumsum(room)[:-1])),
                   0.0, room)
    z = np.empty_like(fill)
    z[order] = fill
    under = np.flatnonzero(fill < room)
    return z, float(v[order[under[0]]]) if under.size else 0.0


def lp_step(source: str, round_index: int, totals: np.ndarray,
            matrix: RelativeLiabilityMatrix, clearing: np.ndarray, z: np.ndarray,
            budget: float, caps: np.ndarray, weights=None) -> PolicyStepResult:
    """One round of an LP solution as a :class:`PolicyStepResult`.

    The clearing is clipped into ``[0, totals]``, the intervention into
    ``[0, caps]`` and rescaled onto ``budget``; a repair larger than
    ``LP_REPAIR_TOL`` raises :class:`SolverError` naming ``source``.  After
    the clip every intervention of at most ``LP_REPAIR_TOL`` (solver noise
    such as ``6e-15``, and the LP's ``-0.0``) is set to exactly 0.  The
    Gini of the intervention is recorded when fairness ``weights`` are given.
    """
    clearing = _repair(clearing, 0.0, totals, "clearing", source)
    z = _repair(z, 0.0, caps, "intervention", source)
    z[z <= LP_REPAIR_TOL] = 0.0
    z = _onto_budget(z, budget, source)
    return PolicyStepResult(
        round=round_index,
        totals=totals.copy(),
        clearing=clearing,
        intervention=z,
        reward=float(clearing.sum()),
        beta=matrix.row_sums.copy(),
        gini=None if weights is None else gini_coefficient(z, weights),
    )


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
    def step(t, shock, totals, entries):
        result = per_round_lp(
            RelativeLiabilityMatrix(entries), totals, shock.external_assets,
            budget, caps, fairness=fairness, round_index=shock.round,
        )
        return result.clearing, result

    steps = list(play(start, path, step))
    return float(sum(s.reward for s in steps)), steps


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-sample stream: independent of scheduling order."""
    return np.random.default_rng([int(seed), int(index)])


def ordered_map(fn, items, threads: int = 1):
    """``fn(item)`` for each of ``items``, yielded in their order whatever
    the worker count; the ``threads`` workers run at most ``2 * threads``
    items ahead of the consumer."""
    if threads <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead: deque[Future] = deque()
        for item in items:
            ahead.append(pool.submit(fn, item))
            if len(ahead) > 2 * threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def per_sample(env, n_samples: int, seed: int, solve, tail=None,
               threads: int = 1, horizon: int | None = None) -> Iterator:
    """Draw, solve and drop each sample's path in turn, on ``threads``
    workers, so at most ``threads`` paths are alive at once; results are
    yielded in sample order whatever the worker count.

    Sample ``i`` draws rounds ``1..horizon`` (``env.horizon`` when None) on
    ``rng = substream(seed, i)`` and gives ``solve(i, path)``, passed on as
    ``tail(i, rng, path, solved)`` when a ``tail`` continues the stream.
    ``solve`` runs once per distinct path, shared across workers: paths are
    the same when they hold the same shock objects, as replay draws do.  A
    path's memo entry lives only as long as its shocks, because a freed
    shock's id can come back in a later sample."""
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    last = env.horizon if horizon is None else horizon
    memo: dict[tuple[int, ...], tuple[Future, list]] = {}
    lock = threading.RLock()  # re-entered when a shock dies under it

    def run(index: int):
        rng = substream(seed, index)
        path = env.sample_path(1, last, rng)
        key = tuple(map(id, path.shocks))
        with lock:
            future = memo.get(key, (None,))[0]
            if owner := future is None:
                future = Future()

                def forget(_, future=future):
                    with lock:
                        if memo.get(key, (None,))[0] is future:
                            del memo[key]

                memo[key] = future, [weakref.ref(s, forget) for s in path.shocks]
        if owner:
            try:
                future.set_result(solve(index, path))
            except BaseException as exc:
                future.set_exception(exc)
                raise
        solved = future.result()
        return solved if tail is None else tail(index, rng, path, solved)

    def results():
        try:
            yield from ordered_map(run, range(n_samples), threads)
        finally:
            memo.clear()  # the weak references' callbacks refer back to it

    return results()


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
) -> Iterator[tuple[float, list[PolicyStepResult]]]:
    """``(value, steps)`` of :func:`value_given_sample_path` on each of
    ``n_samples`` paths drawn by :func:`per_sample`, in sample order and
    bitwise identical at any worker count; a replayed path is solved once.
    """
    return per_sample(
        env, n_samples, seed,
        lambda _, path: value_given_sample_path(start, path, budget, caps,
                                                fairness),
        threads=threads, horizon=horizon,
    )


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
    runs = [(value, len(steps)) for value, steps in sampled_runs(
        env, start, n_samples, budget, caps,
        fairness=fairness, seed=seed, threads=threads,
    )]
    values = tuple(v for v, _ in runs)
    return ValueEstimate(
        mean=float(np.mean(values)),
        values=values,
        sample_count=n_samples,
        horizon_len=runs[0][1],
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
