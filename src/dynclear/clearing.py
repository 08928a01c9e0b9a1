"""Round clearing for a fixed intervention, by contraction iteration and by
linear program, plus the generic LP contract both routes (and every other LP
in the package) run through."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array

from .errors import ContractionError, SolverError, ValidationError
from .network import RelativeLiabilityMatrix, check_nonvanishing

INF = float("inf")

#: Sup-norm residual at which the Picard iteration stops.
PICARD_TOL = 1e-9

#: Agreement required between the LP and fixed-point clearing routes.
ROUTE_AGREEMENT_TOL = 1e-6

#: Largest clip or rescale applied to an LP primal before it counts as a
#: solver failure: the HiGHS primal feasibility tolerance.
LP_REPAIR_TOL = 1e-7

LEQ, EQ, GEQ = "<=", "=", ">="


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """A maximization LP: ``max objective @ x`` subject to constraint rows
    ``(coefficients, relation, rhs)`` with relation in {<=, =, >=} and
    per-variable bounds ``[lo, hi]`` (``inf`` sentinels allowed)."""

    objective: np.ndarray
    constraints: tuple[tuple[np.ndarray, str, float], ...]
    variable_bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        if obj.ndim != 1:
            raise ValidationError("objective must be a vector")
        d = obj.shape[0]
        rows = []
        for k, (coeffs, rel, rhs) in enumerate(self.constraints):
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (d,):
                raise ValidationError(
                    f"constraint {k} has {coeffs.shape} coefficients, expected ({d},)"
                )
            if rel not in (LEQ, EQ, GEQ):
                raise ValidationError(f"constraint {k} has unknown relation {rel!r}")
            rows.append((coeffs, rel, float(rhs)))
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.variable_bounds)
        if len(bounds) != d:
            raise ValidationError(
                f"{len(bounds)} variable bounds for {d} variables"
            )
        for i, (lo, hi) in enumerate(bounds):
            if math.isnan(lo) or math.isnan(hi) or lo > hi:
                raise ValidationError(f"variable {i} has invalid bounds [{lo}, {hi}]")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(rows))
        object.__setattr__(self, "variable_bounds", bounds)

    @property
    def n_variables(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solver output in the maximize convention.

    ``dual`` carries one multiplier per constraint row (nonnegative for <=
    rows, nonpositive for >=, free for =).  ``bound_duals_lower/upper`` are
    the reduced costs attached to the variable bounds; together with ``dual``
    they reproduce the optimal objective (strong duality), which is what
    :meth:`dual_objective` evaluates.
    """

    status: str  # optimal | infeasible | unbounded | failed
    primal: np.ndarray | None
    dual: np.ndarray | None
    objective_value: float | None
    bound_duals_lower: np.ndarray | None = None
    bound_duals_upper: np.ndarray | None = None
    _rhs: np.ndarray | None = None
    _bounds: tuple[tuple[float, float], ...] | None = None

    def dual_objective(self) -> float:
        if self.status != "optimal":
            raise SolverError("dual objective only defined for optimal solutions")
        total = float(np.dot(self.dual, self._rhs))
        for (lo, hi), zl, zu in zip(
            self._bounds, self.bound_duals_lower, self.bound_duals_upper
        ):
            # a multiplier on an infinite bound is necessarily zero
            if math.isfinite(lo) and zl != 0.0:
                total += zl * lo
            if math.isfinite(hi) and zu != 0.0:
                total += zu * hi
        return total


_STATUS_MAP = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _sparse_rows(rows: list[np.ndarray], sign: np.ndarray, n_cols: int):
    """Dense coefficient rows, each scaled by its ``sign``, stacked into a
    CSR matrix that stores only the nonzero coefficients."""
    dense = np.array(rows, dtype=float).reshape(len(rows), n_cols)
    nonzero = dense != 0.0
    counts = nonzero.sum(axis=1)
    indptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    flat = np.flatnonzero(nonzero)
    data = dense.ravel()[flat] * np.repeat(sign, counts)
    return csr_array((data, flat % n_cols, indptr), shape=(len(rows), n_cols))


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a :class:`LinearProgram` and return primal and dual values.

    The <= and >= rows (>= negated) and the = rows reach HiGHS as sparse
    matrices that store only nonzero coefficients: the matrix scipy's dense
    route would build, without its dense copies and checks.  HiGHS runs
    without presolve (see README, "Numerical conventions").  Numerical
    failure is reported through ``status='failed'``, never raised.  Output
    is deterministic for identical input.
    """
    c = -lp.objective  # scipy minimizes
    rows = lp.constraints
    is_eq = np.array([rel == EQ for _, rel, _ in rows], dtype=bool)
    # a >= row is stored negated as a <= row
    sign = np.array([-1.0 if rel == GEQ else 1.0 for _, rel, _ in rows])
    rhs = np.array([b for _, _, b in rows], dtype=float)
    ub_idx = np.flatnonzero(~is_eq)
    eq_idx = np.flatnonzero(is_eq)
    kwargs = {}
    for idx, a_key, b_key in ((ub_idx, "A_ub", "b_ub"), (eq_idx, "A_eq", "b_eq")):
        if idx.size:
            kwargs[a_key] = _sparse_rows(
                [rows[k][0] for k in idx], sign[idx], lp.n_variables
            )
            kwargs[b_key] = rhs[idx] * sign[idx]
    bounds = [
        (lo if math.isfinite(lo) else None, hi if math.isfinite(hi) else None)
        for lo, hi in lp.variable_bounds
    ]
    try:
        # presolve finds little to remove in these LPs and costs ~1/5 of HiGHS time
        res = linprog(c, bounds=bounds, method="highs",
                      options={"presolve": False}, **kwargs)
    except Exception:  # defensive: backend bugs become a status
        return LpSolution(status="failed", primal=None, dual=None,
                          objective_value=None)
    status = _STATUS_MAP.get(res.status, "failed")
    if status != "optimal":
        return LpSolution(status=status, primal=None, dual=None,
                          objective_value=None)

    dual = np.zeros(len(lp.constraints))
    # negating scipy's minimize-convention marginals yields maximize-convention
    # multipliers; a >= row was negated on the way in, which flips it back
    if ub_idx.size:
        dual[ub_idx] = -res.ineqlin.marginals * sign[ub_idx]
    if eq_idx.size:
        dual[eq_idx] = -res.eqlin.marginals
    return LpSolution(
        status="optimal",
        primal=res.x.copy(),
        dual=dual,
        objective_value=float(-res.fun),
        bound_duals_lower=-res.lower.marginals,
        bound_duals_upper=-res.upper.marginals,
        _rhs=rhs,
        _bounds=lp.variable_bounds,
    )


def _picard_cap(p_norm: float, beta_max: float) -> int:
    # iterations for the geometric tail ||P||_inf * beta^k to fall below 1e-12
    if beta_max <= 0.0 or p_norm <= 1e-12:
        return 64
    return int(math.ceil(math.log(1e-12 / p_norm) / math.log(beta_max))) + 64


def _picard(
    a_entries: np.ndarray,
    totals: np.ndarray,
    assets: np.ndarray,
    beta_max: float,
    tol: float = PICARD_TOL,
    track_residuals: bool = False,
):
    """Iterate ``x -> min(P, A^T x + assets)`` from ``x = P`` downwards.

    Stops on the sup norm of a step; the tracked residuals are l1 step
    sizes, the norm in which the map contracts at rate ``beta_max`` along
    the monotone trajectory.
    """
    cap = _picard_cap(float(totals.max(initial=0.0)), beta_max)
    at = a_entries.T
    x = totals.copy()
    residuals = []
    for _ in range(cap):
        nxt = np.minimum(totals, at @ x + assets)
        step = np.abs(nxt - x)
        if track_residuals:
            residuals.append(float(step.sum()))
        x = nxt
        if float(step.max(initial=0.0)) <= tol:
            return (x, residuals) if track_residuals else x
    raise ContractionError(
        f"fixed-point iteration did not converge within {cap} steps "
        f"(max connectivity {beta_max})"
    )


def clear_fixed_point(
    matrix: RelativeLiabilityMatrix,
    totals,
    assets,
    interventions=None,
    tol: float = PICARD_TOL,
    track_residuals: bool = False,
):
    """Maximal clearing vector as the unique fixed point of
    ``x = P ^ (A^T x + c + Z)``, found by Picard iteration started at ``P``.

    Starting from the totals selects the greatest fixed point, i.e. the
    maximal-clearing equilibrium.  Requires strictly substochastic rows
    (raises :class:`ContractionError` otherwise).

    With ``track_residuals=True`` returns ``(clearing, residuals)`` where
    ``residuals`` lists the sup-norm step sizes, one per iteration.
    """
    totals = np.asarray(totals, dtype=float)
    assets = np.asarray(assets, dtype=float)
    n = matrix.n
    if totals.shape != (n,) or assets.shape != (n,):
        raise ValidationError("totals/assets dimension mismatch with matrix")
    z = np.zeros(n) if interventions is None else np.asarray(interventions, float)
    if z.shape != (n,):
        raise ValidationError("interventions dimension mismatch with matrix")
    if np.any(totals < 0) or np.any(assets < 0) or np.any(z < 0):
        raise ValidationError("totals, assets and interventions must be >= 0")
    if not check_nonvanishing(matrix):
        raise ContractionError(
            f"max connectivity {matrix.max_connectivity} is not < 1; "
            "the clearing map is not a contraction"
        )
    return _picard(
        matrix.entries, totals, assets + z, matrix.max_connectivity,
        tol=tol, track_residuals=track_residuals,
    )


def clearing_lp_model(
    matrix: RelativeLiabilityMatrix, totals, assets, interventions=None
) -> LinearProgram:
    """The clearing problem as a :class:`LinearProgram` over the payment
    vector: maximize total payments subject to the default constraint, with
    the solvency constraint expressed through the variable upper bounds."""
    totals = np.asarray(totals, dtype=float)
    assets = np.asarray(assets, dtype=float)
    n = matrix.n
    z = np.zeros(n) if interventions is None else np.asarray(interventions, float)
    rows = []
    eye = np.eye(n)
    lhs = eye - matrix.entries.T
    rhs = assets + z
    for i in range(n):
        rows.append((lhs[i], LEQ, float(rhs[i])))
    bounds = tuple((0.0, float(p)) for p in totals)
    return LinearProgram(
        objective=np.ones(n), constraints=tuple(rows), variable_bounds=bounds
    )


def clear_lp(
    matrix: RelativeLiabilityMatrix, totals, assets, interventions=None
) -> np.ndarray:
    """Maximal clearing vector by linear program; agrees with
    :func:`clear_fixed_point` to within ``ROUTE_AGREEMENT_TOL``."""
    totals = np.asarray(totals, dtype=float)
    assets = np.asarray(assets, dtype=float)
    if np.any(totals < 0) or np.any(assets < 0):
        raise ValidationError("totals and assets must be >= 0")
    sol = solve_lp(clearing_lp_model(matrix, totals, assets, interventions))
    if sol.status != "optimal":
        raise SolverError(
            f"clearing LP returned status {sol.status}", status=sol.status
        )
    return sol.primal
