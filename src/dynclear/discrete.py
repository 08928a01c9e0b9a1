"""Integral interventions by binomial randomized rounding of the fractional
optimum, an exhaustive oracle for small instances, the approximation-ratio
bookkeeping, and the payment-discretization heuristic."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .clearing import clear_fixed_point, clear_stack
from .errors import EnumerationLimitError, ValidationError
from .fractional import (
    PolicyStepResult,
    broadcast_caps,
    once_per_distinct_path,
    ordered_map,
    rollout,
    sample_paths,
    value_given_sample_path,
)
from .network import (
    InterventionVector,
    RelativeLiabilityMatrix,
    SamplePath,
    SystemState,
    carry_forward,
    relative_entries,
)

DEFAULT_RETRIES = 64

BUDGET_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DiscreteAction:
    """An integral intervention vector with its feasibility verdict
    (budget respected and amounts within caps)."""

    amounts: np.ndarray
    feasible: bool

    def __post_init__(self):
        z = np.asarray(self.amounts)
        if not np.issubdtype(z.dtype, np.integer):
            raise ValidationError("discrete amounts must be integers")
        if np.any(z < 0):
            raise ValidationError("discrete amounts must be nonnegative")
        frozen = z.copy()
        frozen.flags.writeable = False
        object.__setattr__(self, "amounts", frozen)


@dataclass(frozen=True, eq=False)
class RoundingReport:
    """Outcome of rounding one sample path."""

    sample_index: int
    attempts: int
    actions: tuple[DiscreteAction, ...]
    value_sol: float
    value_rel: float
    gamma_hat: float  # worst connectivity seen on the fractional trajectory
    ratio: float

    def __post_init__(self):
        if self.attempts < 1:
            raise ValidationError("attempts must be >= 1")

    @property
    def feasible(self) -> bool:
        return all(a.feasible for a in self.actions)


def _integer_caps(caps: np.ndarray) -> np.ndarray:
    rounded = np.rint(caps)
    if np.max(np.abs(caps - rounded), initial=0.0) > 1e-9:
        raise ValidationError("discrete interventions need integer caps")
    return rounded.astype(int)


def sample_interventions(
    fractional: list[np.ndarray],
    caps,
    budget: float,
    tau: int = DEFAULT_RETRIES,
    rng: np.random.Generator | None = None,
) -> tuple[list[DiscreteAction], int]:
    """Round a fractional intervention schedule to integers.

    Every node and round draws independently from ``Bin(L_i, z*_i / L_i)``,
    so amounts stay within caps surely and match the fractional optimum in
    expectation.  The whole schedule is redrawn until every round respects
    the budget, up to ``tau`` attempts; an exhausted retry budget returns the
    last draw with the offending rounds flagged infeasible.

    Returns the per-round actions and the number of attempts used.
    """
    if tau < 1:
        raise ValidationError("tau must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    shapes = {np.shape(z) for z in fractional}
    if not shapes:
        raise ValidationError("empty fractional schedule")
    if len(shapes) != 1 or len(shapes.pop()) != 1:
        raise ValidationError("inconsistent schedule dimensions")
    frac = np.asarray(fractional, dtype=float)  # (rounds, n)
    caps = _integer_caps(broadcast_caps(caps, frac.shape[1]))
    if np.any((caps == 0) & (frac > 1e-9)):
        raise ValidationError("cap of 0 with a positive fractional amount")
    if np.any(frac < -1e-9) or np.any(frac > caps + 1e-9):
        raise ValidationError("fractional amounts must lie in [0, caps]")
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = np.clip(np.where(caps > 0, frac / caps, 0.0), 0.0, 1.0)

    for attempt in range(1, tau + 1):
        # one draw per (round, node) in row-major order, as a per-round loop
        draws = rng.binomial(caps, probs)
        feasible = draws.sum(axis=1) <= budget + BUDGET_TOL
        if feasible.all():
            break
    actions = [
        DiscreteAction(amounts=d, feasible=bool(f)) for d, f in zip(draws, feasible)
    ]
    return actions, attempt


def simulate_discrete_policy(
    start: SystemState,
    path: SamplePath,
    actions: list[DiscreteAction] | list[np.ndarray],
) -> tuple[float, list[PolicyStepResult]]:
    """Realized value of a fixed action schedule under maximal clearing."""
    if len(actions) != len(path):
        raise ValidationError("one action per round required")

    def step(t, shock, state, matrix):
        z = actions[t]
        z = np.asarray(z.amounts if isinstance(z, DiscreteAction) else z, float)
        clearing = clear_fixed_point(matrix, state.totals, shock.external_assets, z)
        return PolicyStepResult(
            round=shock.round,
            totals=state.totals.copy(),
            clearing=clearing,
            intervention=InterventionVector(
                amounts=z,
                budget=max(float(z.sum()), 0.0),  # may exceed B when flagged
                caps=np.maximum(z, 0.0),
            ),
            reward=float(clearing.sum()),
            beta=matrix.row_sums.copy(),
        )

    return rollout(start, path, step)


def discrete_runs(
    env,
    start: SystemState,
    n_samples: int,
    budget: float,
    caps,
    tau: int = DEFAULT_RETRIES,
    seed: int = 0,
    threads: int = 1,
    horizon: int | None = None,
) -> list[tuple[SamplePath, RoundingReport, list[PolicyStepResult]]]:
    """Per-sample rounding pipeline, returning the realized trajectory along
    with each report.  Results are ordered by sample index regardless of the
    worker count.

    Sample ``i`` draws its path and then its rounding on ``substream(seed,
    i)``; the fractional trajectory in between is solved once per distinct
    path, so replayed copies share it.
    """
    caps_arr = broadcast_caps(caps, start.n)
    _integer_caps(caps_arr)
    rngs, paths = sample_paths(env, n_samples, seed, horizon)
    relaxed = once_per_distinct_path(
        paths, lambda p: value_given_sample_path(start, p, budget, caps_arr), threads
    )

    def run(index: int):
        rng, path = rngs[index], paths[index]
        v_rel, frac_steps = relaxed[index]
        z_star = [s.intervention.amounts for s in frac_steps]
        gamma_hat = max(float(s.beta.max(initial=0.0)) for s in frac_steps)
        actions, attempts = sample_interventions(
            z_star, caps_arr, budget, tau=tau, rng=rng
        )
        v_sol, steps = simulate_discrete_policy(start, path, actions)
        ratio = v_sol / v_rel if v_rel > 0 else 1.0
        report = RoundingReport(
            sample_index=index,
            attempts=attempts,
            actions=tuple(actions),
            value_sol=v_sol,
            value_rel=v_rel,
            gamma_hat=gamma_hat,
            ratio=ratio,
        )
        return path, report, steps

    return ordered_map(run, range(n_samples), threads)


def aggregate_discrete(
    env,
    start: SystemState,
    n_samples: int,
    budget: float,
    caps,
    tau: int = DEFAULT_RETRIES,
    seed: int = 0,
    threads: int = 1,
) -> tuple[float, list[RoundingReport]]:
    """Round the fractional optimum on every sampled path and average the
    realized values.

    Each sample runs on its own substream covering the path draw, the
    fractional solve and the rounding draws.
    """
    results = discrete_runs(
        env, start, n_samples, budget, caps,
        tau=tau, seed=seed, threads=threads,
    )
    reports = [r for _, r, _ in results]
    mean = float(np.mean([r.value_sol for r in reports]))
    return mean, reports


def approximation_bound(
    delta_b: float,
    shock_norm_bound: float,
    horizon_len: int,
    budget: float,
    observed_betas=None,
) -> tuple[float | None, float]:
    """Lower bounds on the rounding approximation ratio.

    Returns ``(empirical, theoretical)``: the empirical bound is
    ``1 - max observed connectivity`` when per-round betas are supplied
    (``None`` otherwise); the theoretical one is ``delta_b / Delta`` when the
    budget exceeds the largest possible round mass, else it loses a factor
    of the horizon length.
    """
    if delta_b <= 0 or shock_norm_bound < delta_b:
        raise ValidationError("need 0 < delta_b <= shock_norm_bound")
    if horizon_len < 1:
        raise ValidationError("horizon must be >= 1")
    if budget > shock_norm_bound:
        theoretical = delta_b / shock_norm_bound
    else:
        theoretical = delta_b / (horizon_len * shock_norm_bound)
    empirical = None
    if observed_betas is not None:
        flat = np.concatenate([np.atleast_1d(b).ravel() for b in observed_betas])
        empirical = float(1.0 - flat.max(initial=0.0))
    return empirical, theoretical


def enumerate_actions(caps, budget: float) -> np.ndarray:
    """All integral intervention vectors within caps and budget, in
    lexicographic order."""
    caps = _integer_caps(np.asarray(caps, dtype=float))
    combos = [
        z
        for z in itertools.product(*(range(c + 1) for c in caps))
        if sum(z) <= budget + BUDGET_TOL
    ]
    return np.array(combos, dtype=int).reshape(len(combos), len(caps))


def brute_force_discrete(
    start: SystemState,
    path: SamplePath,
    budget: float,
    caps,
    max_combinations: int = 10**6,
) -> tuple[float, tuple[np.ndarray, ...]]:
    """Exact optimum over integral action schedules by exhaustive search.

    Simulates every schedule under maximal clearing, expanding the search
    tree breadth-first with all branches advanced in one vectorized sweep;
    the final round is evaluated per action so peak memory stays at the size
    of the second-to-last level.  Guarded by ``max_combinations`` on
    ``|actions| ** rounds``.
    """
    n = start.n
    caps_arr = broadcast_caps(caps, n)
    actions = enumerate_actions(caps_arr, budget)
    m = len(actions)
    rounds = len(path)
    if m**rounds > max_combinations:
        raise EnumerationLimitError(
            f"{m}^{rounds} action sequences exceed the guard of {max_combinations}"
        )

    pairwise = start.pairwise[None, :, :].copy()
    external = start.external[None, :].copy()
    totals = start.totals[None, :].copy()
    clearing = np.zeros((1, n))
    value = np.zeros(1)
    choice = np.zeros((1, 0), dtype=int)

    for t, shock in enumerate(path):
        pairwise, external, totals = carry_forward(
            pairwise, external, totals, clearing, shock
        )
        k = totals.shape[0]
        if t == rounds - 1:
            # evaluate per action; no further state needed
            entries = relative_entries(pairwise, totals)
            cand = np.stack([
                value + clear_stack(entries, totals, assets).sum(axis=1)
                for assets in shock.external_assets + actions.astype(float)
            ])
            # the first maximum in (action, branch) order
            best_action, best_branch = np.unravel_index(np.argmax(cand), cand.shape)
            seq_idx = list(choice[best_branch]) + [best_action]
            best_actions = tuple(actions[i].copy() for i in seq_idx)
            return float(cand[best_action, best_branch]), best_actions
        # expand every branch by every action
        pairwise = np.repeat(pairwise, m, axis=0)
        external = np.repeat(external, m, axis=0)
        totals = np.repeat(totals, m, axis=0)
        value = np.repeat(value, m)
        choice = np.concatenate(
            [
                np.repeat(choice, m, axis=0),
                np.tile(np.arange(m, dtype=int), k)[:, None],
            ],
            axis=1,
        )
        z = np.tile(actions.astype(float), (k, 1))
        clearing = clear_stack(
            relative_entries(pairwise, totals), totals,
            shock.external_assets[None, :] + z,
        )
        value = value + clearing.sum(axis=1)
    raise AssertionError("unreachable: path is nonempty")


def simulate_action_batch(
    start: SystemState,
    path: SamplePath,
    action_sequences: np.ndarray,
) -> np.ndarray:
    """Realized values for a stack of action schedules, shape
    ``(k, rounds, n)`` in, ``(k,)`` out.  Same dynamics as
    :func:`simulate_discrete_policy`, vectorized across schedules."""
    seqs = np.asarray(action_sequences, dtype=float)
    if seqs.ndim != 3 or seqs.shape[1] != len(path) or seqs.shape[2] != start.n:
        raise ValidationError("action_sequences must have shape (k, rounds, n)")
    k = seqs.shape[0]
    pairwise = np.broadcast_to(start.pairwise, (k, start.n, start.n)).copy()
    external = np.broadcast_to(start.external, (k, start.n)).copy()
    totals = np.broadcast_to(start.totals, (k, start.n)).copy()
    clearing = np.zeros((k, start.n))
    value = np.zeros(k)
    for t, shock in enumerate(path):
        pairwise, external, totals = carry_forward(
            pairwise, external, totals, clearing, shock
        )
        clearing = clear_stack(
            relative_entries(pairwise, totals), totals,
            shock.external_assets[None, :] + seqs[:, t, :],
        )
        value += clearing.sum(axis=1)
    return value


def discretize_payments(
    clearing, matrix: RelativeLiabilityMatrix
) -> np.ndarray:
    """Greedy integral split of each node's payment across its recipients.

    For node ``i`` the candidate shares are its relative liabilities plus the
    external share ``1 - beta_i`` (last column).  Shares are visited in
    decreasing order (ties: lower recipient index first, external slot last)
    and each recipient gets ``floor(share * payment)`` while the running
    total still fits the payment; remaining recipients get nothing.
    """
    clearing = np.asarray(clearing, dtype=float)
    n = matrix.n
    if clearing.shape != (n,):
        raise ValidationError("clearing dimension mismatch with matrix")
    if np.any(clearing < 0):
        raise ValidationError("clearing must be nonnegative")
    out = np.zeros((n, n + 1), dtype=int)
    for i in range(n):
        shares = np.append(matrix.entries[i], 1.0 - matrix.row_sums[i])
        order = sorted(
            range(n + 1), key=lambda j: (-shares[j], j == n, j)
        )
        running = 0.0
        for j in order:
            amount = math.floor(shares[j] * clearing[i] + 1e-9)
            if running + amount > clearing[i] + 1e-9:
                break
            out[i, j] = amount
            running += amount
    return out
