"""Horizon-wide formulations available when liability proportions are
time-constant: the constant-proportion certificate, the whole-horizon primal
LP with its verified dual, the prefix-payment one-shot reformulation, and the
sequential-equals-horizon consistency check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clearing import LEQ, LP_REPAIR_TOL, LinearProgram, solve_lp
from .errors import CertificateError, MyopicGapError, SolverError
from .fractional import broadcast_caps, value_given_sample_path
from .network import SamplePath, SystemState, _freeze

CERTIFICATE_TOL = 1e-9
GAP_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class ConstantProportionCertificate:
    """Whether every round allocates new liabilities in the same proportions.

    ``zeta[i, j]`` is the round-1 share of node i's new mass owed to j;
    ``max_violation`` is the largest deviation of any later round from it.
    """

    zeta: np.ndarray
    valid: bool
    max_violation: float

    def __post_init__(self):
        object.__setattr__(self, "zeta", _freeze(np.asarray(self.zeta, float)))

    @property
    def n(self) -> int:
        return self.zeta.shape[0]


@dataclass(frozen=True, eq=False)
class PrefixFormulation:
    """Cumulative view of a schedule: running payments, interventions,
    assets and liabilities, all nondecreasing in the round."""

    cumulative_payments: np.ndarray      # (T, n)
    cumulative_interventions: np.ndarray # (T, n)
    cumulative_assets: np.ndarray        # (T, n)
    cumulative_liabilities: np.ndarray   # (T, n)


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Multipliers of the horizon primal, read from the HiGHS marginals and
    verified dual feasible to ``LP_REPAIR_TOL``.

    ``value`` is the dual objective ``h.lam + c.mu + B sum(nu) + caps.sum(xi)``,
    so by weak duality ``value - primal value`` bounds how far the primal is
    from the optimum.
    """

    value: float
    lam: np.ndarray  # (T, n) prefix-solvency multipliers
    mu: np.ndarray   # (T, n) default-row multipliers
    nu: np.ndarray   # (T,)   budget multipliers
    xi: np.ndarray   # (T, n) cap multipliers


@dataclass(frozen=True, eq=False)
class HorizonSolution:
    value: float
    clearing: np.ndarray       # (T, n)
    interventions: np.ndarray  # (T, n)
    rewards: tuple[float, ...]
    dual: DualSolution


@dataclass(frozen=True, eq=False)
class MyopicReport:
    certificate: ConstantProportionCertificate
    applicable: bool
    sequential_value: float
    horizon_value: float
    gap: float


def _round_ratios(shock) -> np.ndarray:
    mass = shock.external_liabilities + shock.internal_liabilities.sum(axis=1)
    return shock.internal_liabilities / mass[:, None]


def check_constant_proportions(
    path: SamplePath, tol: float = CERTIFICATE_TOL
) -> ConstantProportionCertificate:
    """Extract round-1 proportions and measure how far later rounds drift.

    Any round works as the reference under validity; round 1 is used.  The
    denominators are strictly positive because external liabilities are.
    """
    zeta = _round_ratios(path.shocks[0])
    worst = 0.0
    for shock in path.shocks[1:]:
        worst = max(worst, float(np.abs(_round_ratios(shock) - zeta).max()))
    return ConstantProportionCertificate(
        zeta=zeta, valid=worst <= tol, max_violation=worst
    )


def _require_valid(certificate: ConstantProportionCertificate):
    if not certificate.valid:
        raise CertificateError(
            "liability proportions vary across rounds "
            f"(max deviation {certificate.max_violation}); "
            "the horizon formulation does not apply"
        )


def _prefix_data(path: SamplePath):
    b = np.stack([s.external_liabilities for s in path])
    l = np.stack([s.internal_liabilities.sum(axis=1) for s in path])
    c = np.stack([s.external_assets for s in path])
    h = np.cumsum(b + l, axis=0)
    f = np.cumsum(c, axis=0)
    return c, h, f


def _verified_dual(sol, h, c, budget, caps, zeta) -> DualSolution:
    """The dual of the horizon primal, read off its HiGHS marginals.

    Dual feasibility is checked explicitly: every multiplier is
    nonnegative, ``(I - zeta) mu(t) + sum_{t' >= t} lam(t') >= 1`` for the
    payment columns and ``xi(t) + nu(t) - mu(t) >= 0`` for the intervention
    columns, each to ``LP_REPAIR_TOL``; a breach raises :class:`SolverError`.
    """
    rounds, n = h.shape
    tn = rounds * n
    lam = sol.dual[:tn].reshape(rounds, n)
    mu = sol.dual[tn : 2 * tn].reshape(rounds, n)
    nu = sol.dual[2 * tn :].copy()
    xi = sol.bound_duals_upper[tn:].reshape(rounds, n)
    suffix_lam = np.cumsum(lam[::-1], axis=0)[::-1]
    shortfalls = np.concatenate([
        -lam.ravel(), -mu.ravel(), -nu, -xi.ravel(),
        (1.0 - (mu - mu @ zeta.T) - suffix_lam).ravel(),
        (mu - xi - nu[:, None]).ravel(),
    ])
    breach = float(shortfalls.max(initial=0.0))
    if not breach <= LP_REPAIR_TOL:  # NaN counts as a failure too
        raise SolverError(
            f"horizon LP marginals violate dual feasibility by {breach:.3g}, "
            f"beyond LP_REPAIR_TOL={LP_REPAIR_TOL:g}"
        )
    value = (h * lam).sum() + (c * mu).sum() + budget * nu.sum() + xi.sum(0) @ caps
    return DualSolution(value=float(value), lam=lam, mu=mu, nu=nu, xi=xi)


def _solve_horizon(
    path: SamplePath, budget: float, caps: np.ndarray, zeta: np.ndarray
) -> HorizonSolution:
    rounds, n = len(path), path.n
    c, h, _ = _prefix_data(path)
    tn = rounds * n  # variables: [P_tilde(1..T) | Z(1..T)]
    objective = np.zeros(2 * tn)
    objective[:tn] = 1.0
    lhs = np.zeros((2 * tn + rounds, 2 * tn))
    # prefix solvency: sum_{t' <= t} P_tilde(t') <= h(t)
    lhs[:tn, :tn] = np.kron(np.tril(np.ones((rounds, rounds))), np.eye(n))
    # default: (I - zeta^T) P_tilde(t) - Z(t) <= c(t)
    lhs[tn : 2 * tn, :tn] = np.kron(np.eye(rounds), np.eye(n) - zeta.T)
    lhs[tn : 2 * tn, tn:] = -np.eye(tn)
    # budget: 1^T Z(t) <= B
    lhs[2 * tn :, tn:] = np.kron(np.eye(rounds), np.ones((1, n)))
    rhs = np.concatenate([h.ravel(), c.ravel(), np.full(rounds, float(budget))])
    bounds = [(0.0, float("inf"))] * tn
    bounds += [(0.0, float(caps[i])) for _ in range(rounds) for i in range(n)]
    sol = solve_lp(
        LinearProgram(objective=objective,
                      constraints=tuple((row, LEQ, b) for row, b in zip(lhs, rhs)),
                      variable_bounds=tuple(bounds))
    )
    if sol.status != "optimal":
        raise SolverError(f"horizon LP returned status {sol.status}: "
                          f"{sol.message}", status=sol.status)
    clearing = sol.primal[:tn].reshape(rounds, n)
    interventions = sol.primal[tn:].reshape(rounds, n)
    return HorizonSolution(
        value=float(sol.objective_value),
        clearing=clearing,
        interventions=interventions,
        rewards=tuple(float(r.sum()) for r in clearing),
        dual=_verified_dual(sol, h, c, budget, caps, zeta),
    )


def solve_horizon_primal(
    path: SamplePath,
    budget: float,
    caps,
    certificate: ConstantProportionCertificate,
) -> HorizonSolution:
    """One LP over all rounds with the certified constant proportion matrix
    in place of the per-round relative liabilities.  The solution carries
    the verified dual read from the same solve."""
    _require_valid(certificate)
    caps = broadcast_caps(caps, path.n)
    return _solve_horizon(path, budget, caps, certificate.zeta)


def solve_horizon_dual(
    path: SamplePath,
    budget: float,
    caps,
    certificate: ConstantProportionCertificate,
) -> DualSolution:
    """The dual of the horizon primal: ``lam`` on the prefix-solvency rows,
    ``mu`` on the default rows, ``nu`` on the budgets, ``xi`` on the caps.

    Read from the HiGHS marginals of :func:`solve_horizon_primal` and
    verified dual feasible, so no second LP is solved; strong duality holds
    to solver precision.
    """
    return solve_horizon_primal(path, budget, caps, certificate).dual


@dataclass(frozen=True, eq=False)
class PrefixSolution:
    value: float
    prefix: PrefixFormulation
    clearing: np.ndarray       # (T, n), recovered differences
    interventions: np.ndarray  # (T, n), recovered differences
    rewards: tuple[float, ...]


def solve_prefix_oneshot(
    path: SamplePath,
    budget: float,
    caps,
    certificate: ConstantProportionCertificate,
) -> PrefixSolution:
    """The horizon problem as a single static clearing LP over cumulative
    payments, with the weighted objective ``sum_t 1^T Q(t)`` (equivalently
    ``sum_t t * reward(t)``, another strictly increasing choice).

    The vectorized problem has block-diagonal proportions, prefix assets and
    liabilities, staircase budgets ``1^T W(t) <= t B`` and caps
    ``W(t) <= t L``.  Per-round schedules are recovered by differencing;
    differences below ``-1e-9`` indicate a genuine failure and raise.
    """
    _require_valid(certificate)
    caps = broadcast_caps(caps, path.n)
    rounds, n = len(path), path.n
    c, h, f = _prefix_data(path)
    zeta = certificate.zeta
    tn = rounds * n  # variables: [Q(1..T) | W(1..T)]
    objective = np.zeros(2 * tn)
    objective[:tn] = 1.0
    lhs = np.zeros((tn + rounds, 2 * tn))
    # default: (I - zeta^T) Q(t) - W(t) <= f(t)
    lhs[:tn, :tn] = np.kron(np.eye(rounds), np.eye(n) - zeta.T)
    lhs[:tn, tn:] = -np.eye(tn)
    # staircase budget: 1^T W(t) <= t B
    lhs[tn:, tn:] = np.kron(np.eye(rounds), np.ones((1, n)))
    rhs = np.concatenate([f.ravel(), float(budget) * np.arange(1, rounds + 1)])
    rows = tuple((row, LEQ, b) for row, b in zip(lhs, rhs))
    bounds = [(0.0, float(h[t, i])) for t in range(rounds) for i in range(n)]
    bounds += [
        (0.0, float(caps[i]) * (t + 1)) for t in range(rounds) for i in range(n)
    ]
    sol = solve_lp(
        LinearProgram(objective=objective, constraints=rows,
                      variable_bounds=tuple(bounds))
    )
    if sol.status != "optimal":
        raise SolverError(f"prefix LP returned status {sol.status}: "
                          f"{sol.message}", status=sol.status)
    q = sol.primal[:tn].reshape(rounds, n)
    w = sol.primal[tn:].reshape(rounds, n)
    clearing = np.diff(q, axis=0, prepend=np.zeros((1, n)))
    if clearing.min(initial=0.0) < -1e-9:
        raise SolverError(
            f"recovered per-round payments dip to {clearing.min()}; "
            "prefix recovery failed"
        )
    clearing = np.clip(clearing, 0.0, None)
    interventions = np.diff(w, axis=0, prepend=np.zeros((1, n)))
    return PrefixSolution(
        value=float(clearing.sum()),
        prefix=PrefixFormulation(
            cumulative_payments=q,
            cumulative_interventions=w,
            cumulative_assets=f,
            cumulative_liabilities=h,
        ),
        clearing=clearing,
        interventions=interventions,
        rewards=tuple(float(r.sum()) for r in clearing),
    )


def verify_myopic_optimality(
    path: SamplePath,
    budget: float,
    caps,
    start: SystemState | None = None,
    tol: float = GAP_TOL,
) -> MyopicReport:
    """Compare the sequential per-round solve against the horizon LP.

    On a certificate-valid path the two are provably equal; a gap beyond
    ``tol`` raises :class:`MyopicGapError`.  On an invalid certificate the
    report is returned with ``applicable=False`` (both values listed for
    inspection, nothing asserted).
    """
    caps = broadcast_caps(caps, path.n)
    certificate = check_constant_proportions(path)
    if start is None:
        start = SystemState.empty(path.n)
    sequential, _ = value_given_sample_path(start, path, budget, caps)
    horizon = _solve_horizon(path, budget, caps, certificate.zeta)
    gap = sequential - horizon.value
    report = MyopicReport(
        certificate=certificate,
        applicable=certificate.valid,
        sequential_value=sequential,
        horizon_value=horizon.value,
        gap=gap,
    )
    if certificate.valid and abs(gap) > tol:
        raise MyopicGapError(
            f"sequential value {sequential} and horizon value {horizon.value} "
            f"differ by {gap} on a certificate-valid path"
        )
    return report
