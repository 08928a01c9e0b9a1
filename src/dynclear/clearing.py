"""Round clearing for a fixed intervention, by the fictitious-default
algorithm and by linear program, plus the generic LP contract both routes
(and every other LP in the package) run through."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array

from .errors import ContractionError, SolverError, ValidationError
from .network import RelativeLiabilityMatrix

INF = float("inf")

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
    message: str | None = None  # the solver's account of a non-optimal status
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
    failure is reported through ``status='failed'``, never raised; a
    non-optimal solution carries the backend's account in ``message``.
    Output is deterministic for identical input.
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
        # presolve finds little to remove in these LPs and costs ~1/5 of HiGHS
        # time; without it, HiGHS's default dual feasibility tolerance (1e-7)
        # leaves marginals that the horizon dual check can refuse
        res = linprog(c, bounds=bounds, method="highs",
                      options={"presolve": False,
                               "dual_feasibility_tolerance": 1e-9},
                      **kwargs)
    except Exception as exc:  # defensive: backend bugs become a status
        return LpSolution(status="failed", primal=None, dual=None,
                          objective_value=None,
                          message=f"{type(exc).__name__}: {exc}")
    status = _STATUS_MAP.get(res.status, "failed")
    if status != "optimal":
        return LpSolution(status=status, primal=None, dual=None,
                          objective_value=None, message=res.message)

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


def clear_stack(entries, totals, assets) -> np.ndarray:
    """Greatest clearing vectors of a stack of instances, shapes ``(k, n, n)``
    / ``(k, n)`` in and ``(k, n)`` out, by the fictitious-default algorithm
    (Eisenberg & Noe 2001).

    From ``x = P`` the default set ``D`` takes every node whose inflow
    ``A^T x + assets`` falls short of its total; ``x`` then solves
    ``(I - diag(d) A^T) x = d * assets + (1 - d) * P`` for the whole stack
    in one batched solve, until ``D`` stops growing (at most ``n`` rounds).
    The result is exact up to the linear solves.  Raises
    :class:`ContractionError` when a row sum reaches ``1 - 1e-12`` (the
    :func:`check_nonvanishing` margin) or a block is singular.
    """
    entries, totals, assets = (
        np.asarray(a, dtype=float) for a in (entries, totals, assets)
    )
    beta_max = float(entries.sum(axis=-1).max(initial=0.0))
    if beta_max >= 1.0 - 1e-12:
        raise ContractionError(
            f"max connectivity {beta_max} is not < 1; "
            "the clearing map is not a contraction"
        )
    at = np.swapaxes(entries, -1, -2)
    eye = np.eye(totals.shape[-1])
    x = totals.copy()
    default = np.zeros(totals.shape, dtype=bool)
    while True:
        short = (at @ x[..., None])[..., 0] + assets < totals
        if not (short & ~default).any():
            return x
        default |= short
        d = default.astype(float)
        try:
            x = np.linalg.solve(
                eye - d[..., :, None] * at,
                (d * assets + (1.0 - d) * totals)[..., None],
            )[..., 0]
        except np.linalg.LinAlgError as exc:
            raise ContractionError(f"singular default block: {exc}") from exc


def clear_fixed_point(
    matrix: RelativeLiabilityMatrix,
    totals,
    assets,
    interventions=None,
) -> np.ndarray:
    """Maximal clearing vector: the greatest fixed point of
    ``x = P ^ (A^T x + c + Z)``, computed exactly by :func:`clear_stack`.

    Requires strictly substochastic rows (raises :class:`ContractionError`
    otherwise).
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
    return clear_stack(matrix.entries[None], totals[None], (assets + z)[None])[0]


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
    lhs = np.eye(n) - matrix.entries.T
    rows = tuple((row, LEQ, float(b)) for row, b in zip(lhs, assets + z))
    bounds = tuple((0.0, float(p)) for p in totals)
    return LinearProgram(
        objective=np.ones(n), constraints=rows, variable_bounds=bounds
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
            f"clearing LP returned status {sol.status}: {sol.message}",
            status=sol.status,
        )
    return sol.primal
