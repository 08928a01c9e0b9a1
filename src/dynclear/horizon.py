"""Horizon-wide formulations available when liability proportions are
time-constant: the constant-proportion certificate, the whole-horizon primal
LP with its verified dual and its closed-form route, and the
sequential-equals-horizon consistency check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clearing import (
    LP_REPAIR_TOL,
    LinearProgram,
    gap_closes,
    kron_coo,
    leq_program,
    solve_optimal,
)
from .errors import CertificateError, MyopicGapError
from .fractional import (
    broadcast_caps,
    fill_caps,
    value_given_sample_path,
)
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


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Multipliers of the horizon primal, verified dual feasible to
    ``LP_REPAIR_TOL``: the closed-form dual point of the all-default regime
    (``lam = 0``, see :func:`_closed_form_horizon`) where that route
    certifies the step, and the HiGHS marginals of the LP everywhere else.

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
    """An optimal schedule of the horizon primal.  ``closed_form`` is True
    when the closed-form route certified it: every node then stays in
    default, and each round's payments are the maximal clearing of the
    replayed state and intervention."""

    value: float
    clearing: np.ndarray       # (T, n)
    interventions: np.ndarray  # (T, n)
    dual: DualSolution
    closed_form: bool


@dataclass(frozen=True, eq=False)
class MyopicReport:
    """Sequential against horizon value on one path.  ``applicable`` is True
    where the two are provably equal: a certificate-valid path whose
    horizon schedule the closed-form route certified."""

    certificate: ConstantProportionCertificate
    applicable: bool
    sequential_value: float
    horizon_value: float
    gap: float


def _round_ratios(shock) -> np.ndarray:
    mass = shock.external_liabilities + shock.internal_liabilities.sum(axis=1)
    return shock.internal_liabilities / mass[:, None]


def check_constant_proportions(path: SamplePath) -> ConstantProportionCertificate:
    """Extract round-1 proportions and measure how far later rounds drift;
    the path is valid when no round drifts by more than ``CERTIFICATE_TOL``.

    Any round works as the reference under validity; round 1 is used.  The
    denominators are strictly positive because external liabilities are.
    """
    zeta = _round_ratios(path.shocks[0])
    worst = 0.0
    for shock in path.shocks[1:]:
        worst = max(worst, float(np.abs(_round_ratios(shock) - zeta).max()))
    return ConstantProportionCertificate(
        zeta=zeta, valid=worst <= CERTIFICATE_TOL, max_violation=worst
    )


def _require_valid(certificate: ConstantProportionCertificate):
    if not certificate.valid:
        raise CertificateError(
            "liability proportions vary across rounds "
            f"(max deviation {certificate.max_violation}); "
            "the horizon formulation does not apply"
        )


def _prefix_data(path: SamplePath):
    """``(c, h)``, each (T, n): round t's external assets, liabilities owed by t."""
    b = np.stack([s.external_liabilities for s in path])
    l = np.stack([s.internal_liabilities.sum(axis=1) for s in path])
    c = np.stack([s.external_assets for s in path])
    return c, np.cumsum(b + l, axis=0)


def _dual_point(lam, mu, nu, xi, h, c, budget, caps, zeta):
    """``(dual, breach)``: the :class:`DualSolution` of the multipliers and
    their largest shortfall from dual feasibility.

    Dual feasibility asks that every multiplier be nonnegative,
    ``(I - zeta) mu(t) + sum_{t' >= t} lam(t') >= 1`` for the payment
    columns and ``xi(t) + nu(t) - mu(t) >= 0`` for the intervention
    columns; ``breach`` is NaN when any multiplier is.
    """
    suffix_lam = np.cumsum(lam[::-1], axis=0)[::-1]
    shortfalls = np.concatenate([
        -lam.ravel(), -mu.ravel(), -nu, -xi.ravel(),
        (1.0 - (mu - mu @ zeta.T) - suffix_lam).ravel(),
        (mu - xi - nu[:, None]).ravel(),
    ])
    gamma = xi.sum(0)
    # an infinite cap with gamma = 0 adds 0, not inf * 0
    value = ((h * lam).sum() + (c * mu).sum() + budget * nu.sum()
             + np.where(gamma != 0.0, caps, 0.0) @ gamma)
    dual = DualSolution(value=float(value), lam=lam, mu=mu, nu=nu, xi=xi)
    return dual, float(shortfalls.max(initial=0.0))


def _verified_dual(sol, h, c, budget, caps, zeta) -> DualSolution:
    """The dual of the horizon primal, read off the HiGHS marginals that
    :func:`solve_optimal` has certified dual feasible."""
    rounds, n = h.shape
    tn = rounds * n
    return _dual_point(
        sol.dual[:tn].reshape(rounds, n), sol.dual[tn : 2 * tn].reshape(rounds, n),
        sol.dual[2 * tn :].copy(), sol.bound_duals_upper[tn:].reshape(rounds, n),
        h, c, budget, caps, zeta,
    )[0]


def _horizon_lp(c: np.ndarray, h: np.ndarray, budget: float, caps: np.ndarray,
                zeta: np.ndarray) -> LinearProgram:
    """The horizon primal over ``[P_tilde(1..T) | Z(1..T)]``: maximize
    ``sum_t 1^T P_tilde(t)`` subject to the prefix rows
    ``sum_{t' <= t} P_tilde(t') <= h(t)``, the default rows
    ``(I - zeta^T) P_tilde(t) - Z(t) <= c(t)`` and the budgets
    ``1^T Z(t) <= B``, with ``Z(t) <= caps``; ``c`` and ``h`` are
    :func:`_prefix_data`'s."""
    rounds, n = c.shape
    tn = rounds * n
    objective = np.repeat([1.0, 0.0], tn)
    eye = np.eye(rounds)
    triplets = [
        kron_coo(np.tril(np.ones((rounds, rounds))), np.eye(n)),
        kron_coo(eye, np.eye(n) - zeta.T, tn, 0),
        kron_coo(eye, -np.eye(n), tn, tn),
        kron_coo(eye, np.ones((1, n)), 2 * tn, tn),
    ]
    rhs = np.concatenate([h.ravel(), c.ravel(), np.full(rounds, float(budget))])
    upper = np.concatenate([np.full(tn, np.inf), np.tile(caps, rounds)])
    return leq_program(objective, triplets, rhs, upper)


def _closed_form_horizon(
    c: np.ndarray, h: np.ndarray, budget: float, caps: np.ndarray,
    zeta: np.ndarray,
) -> HorizonSolution | None:
    """The horizon primal solved in closed form when every node stays in
    default, and None when that cannot be certified.

    While no prefix row binds, the LP splits into ``T`` copies of one
    knapsack: a unit given to node ``i`` in any round raises total payments
    by ``v_i = [(I - zeta)^-1 1]_i``.  So every round gets the same ``Z``,
    the caps filled by decreasing ``v`` (:func:`fill_caps`, whose threshold
    is ``nu``), and pays ``P_tilde(t) = (I - zeta^T)^-1 (c(t) + Z)``, all
    rounds in one solve.  The step is returned only when it is primal
    feasible to ``LP_REPAIR_TOL`` (``P_tilde >= 0``, the prefix and default
    rows, the budget) and the dual point ``lam = 0``, ``mu(t) = v``,
    ``nu(t) = nu``, ``xi(t) = max(0, v - nu)`` is dual feasible to
    ``LP_REPAIR_TOL`` with an objective matching the primal value by
    :func:`gap_closes`: by weak duality the step is then optimal.

    A certified schedule is also the maximal clearing of every replayed
    round: with ``P(t) = h(t) - sum_{t' < t} P_tilde(t')`` the prefix rows
    say ``P_tilde(t) <= P(t)``, so ``P_tilde(t)`` is a clearing vector, and
    any clearing vector ``x`` has ``(I - zeta^T) x <= c(t) + Z``, hence
    ``x <= P_tilde(t)`` (Eisenberg & Noe 2001).
    """
    rounds, n = c.shape
    eye = np.eye(n)
    v = np.linalg.solve(eye - zeta, np.ones(n))
    z, nu = fill_caps(v, caps, budget)
    clearing = np.linalg.solve(eye - zeta.T, (c + z).T).T
    tol = LP_REPAIR_TOL
    feasible = (
        clearing.min() >= -tol
        and np.all(np.cumsum(clearing, axis=0) <= h + tol)
        and np.all(clearing - clearing @ zeta - z <= c + tol)
        and z.sum() <= budget + tol
    )
    dual, breach = _dual_point(
        np.zeros((rounds, n)), np.tile(v, (rounds, 1)), np.full(rounds, nu),
        np.tile(np.maximum(0.0, v - nu), (rounds, 1)), h, c, budget, caps, zeta,
    )
    value = float(clearing.sum())
    if not (feasible and breach <= tol and gap_closes(dual.value, value)):
        return None
    return HorizonSolution(
        value=value,
        clearing=clearing,
        interventions=np.tile(z, (rounds, 1)),
        dual=dual,
        closed_form=True,
    )


def _solve_horizon(
    path: SamplePath, budget: float, caps: np.ndarray, zeta: np.ndarray
) -> HorizonSolution:
    """The horizon primal by :func:`_closed_form_horizon`, or, when that
    route refuses, by HiGHS on :func:`_horizon_lp` with its dual read from
    the marginals (:func:`_verified_dual`)."""
    c, h = _prefix_data(path)
    solution = _closed_form_horizon(c, h, budget, caps, zeta)
    if solution is not None:
        return solution
    rounds, n = c.shape
    tn = rounds * n
    sol = solve_optimal(_horizon_lp(c, h, budget, caps, zeta), "horizon LP")
    return HorizonSolution(
        value=float(sol.objective_value),
        clearing=sol.primal[:tn].reshape(rounds, n),
        interventions=sol.primal[tn:].reshape(rounds, n),
        dual=_verified_dual(sol, h, c, budget, caps, zeta),
        closed_form=False,
    )


def solve_horizon_primal(
    path: SamplePath,
    budget: float,
    caps,
    certificate: ConstantProportionCertificate,
) -> HorizonSolution:
    """One LP over all rounds with the certified constant proportion matrix
    in place of the per-round relative liabilities.

    Solved in closed form, with no LP, where every node stays in default
    and that route's primal-dual certificate holds
    (:func:`_closed_form_horizon`); otherwise by HiGHS.  The solution
    carries the verified dual of the same solve: the closed-form dual point
    or the HiGHS marginals."""
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

    The dual of :func:`solve_horizon_primal`'s solve, verified dual
    feasible, so no second LP is solved: the closed-form dual point where
    that route certifies the step, and the HiGHS marginals otherwise.
    Strong duality holds to ``KNAPSACK_GAP_TOL`` or to solver precision.
    """
    return solve_horizon_primal(path, budget, caps, certificate).dual


def verify_myopic_optimality(path: SamplePath, budget: float, caps) -> MyopicReport:
    """Compare the sequential per-round solve from the debt-free state, the
    state the horizon LP starts from, against the horizon LP.

    The two are provably equal on a certificate-valid path on which every
    node stays in default along the horizon schedule, the regime that
    :func:`_closed_form_horizon` certifies: each round of that schedule is
    then a per-round optimum too, reached by the same cap fill.  Only there
    is the report ``applicable``, and a gap beyond ``GAP_TOL`` raises
    :class:`MyopicGapError`.  Once some node turns solvent the horizon LP,
    whose value bounds every policy's, can be a strict relaxation of the
    dynamics, and the sequential policy need not be optimal either; there,
    and on an invalid certificate, the report is returned with
    ``applicable=False`` (both values listed for inspection, nothing
    asserted).
    """
    caps = broadcast_caps(caps, path.n)
    certificate = check_constant_proportions(path)
    sequential, _ = value_given_sample_path(
        SystemState.empty(path.n), path, budget, caps
    )
    horizon = _solve_horizon(path, budget, caps, certificate.zeta)
    gap = sequential - horizon.value
    applicable = certificate.valid and horizon.closed_form
    report = MyopicReport(
        certificate=certificate,
        applicable=applicable,
        sequential_value=sequential,
        horizon_value=horizon.value,
        gap=gap,
    )
    if applicable and abs(gap) > GAP_TOL:
        raise MyopicGapError(
            f"sequential value {sequential} and horizon value {horizon.value} "
            f"differ by {gap} on a path where every node stays in default"
        )
    return report
