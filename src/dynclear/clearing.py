"""Round clearing for a fixed intervention, by the fictitious-default
algorithm and by linear program, plus the generic LP contract both routes
(and every other LP in the package) run through."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractionError, SolverError, ValidationError
from .network import RelativeLiabilityMatrix

INF = float("inf")

#: Agreement required between the LP and fixed-point clearing routes.
ROUTE_AGREEMENT_TOL = 1e-6

#: Largest clip or rescale applied to an LP primal before it counts as a
#: solver failure: the HiGHS primal feasibility tolerance.
LP_REPAIR_TOL = 1e-7

LEQ, EQ, GEQ = "<=", "=", ">="

#: Options of every HiGHS solve.  Presolve finds little to remove in these
#: LPs and costs about a fifth of HiGHS time; without it, HiGHS's default
#: dual feasibility tolerance (1e-7) leaves marginals that the horizon dual
#: check can refuse.
HIGHS_OPTIONS = {"output_flag": False, "presolve": "off",
                 "dual_feasibility_tolerance": 1e-9}

#: HiGHS ``simplex_strategy`` values.
PRIMAL_SIMPLEX, DUAL_SIMPLEX = 4, 1

#: The solves of one LP as ``(simplex_strategy, from_scratch)``, each run
#: only when the one before it stalls: primal simplex from the all-slack
#: basis, dual simplex resumed from primal's basis, dual simplex afresh.
SOLVES = ((PRIMAL_SIMPLEX, False), (DUAL_SIMPLEX, False), (DUAL_SIMPLEX, True))


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
    iterations: int = 0  # simplex iterations, over every solve after a stall
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


class _HighsResult(NamedTuple):
    """One :func:`_highs` call in HiGHS's minimize convention."""

    status: str  # optimal | infeasible | unbounded | failed
    message: str | None
    iterations: int
    x: np.ndarray | None = None
    objective: float | None = None
    row_dual: np.ndarray | None = None
    lower_dual: np.ndarray | None = None  # reduced costs of columns at lower
    upper_dual: np.ndarray | None = None  # ... and at upper bound


def _highs(cost, start, index, value, row_lower, row_upper,
           col_lower, col_upper) -> _HighsResult:
    """``min cost @ x`` s.t. ``row_lower <= A x <= row_upper`` and
    ``col_lower <= x <= col_upper``, with ``A`` given as CSC arrays
    ``(start, index, value)``: the one call into the HiGHS binding that
    scipy bundles (private, imported on first use).

    Primal simplex runs first (see README, "Numerical conventions").  When
    it ends in any status but optimal, infeasible or unbounded, dual simplex
    resumes from its basis; when that stalls too, the solver state is
    cleared and dual simplex solves once more from scratch (``SOLVES``).
    """
    from scipy.optimize._highspy import _core

    model = _core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = len(cost)
    model.num_row_ = model.a_matrix_.num_row_ = len(row_upper)
    model.a_matrix_.format_ = _core.MatrixFormat.kColwise
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = index
    model.a_matrix_.value_ = value
    model.col_cost_ = cost
    model.col_lower_ = col_lower
    model.col_upper_ = col_upper
    model.row_lower_ = row_lower
    model.row_upper_ = row_upper
    status_names = {
        _core.HighsModelStatus.kOptimal: "optimal",
        _core.HighsModelStatus.kInfeasible: "infeasible",
        _core.HighsModelStatus.kUnbounded: "unbounded",
    }

    highs = _core._Highs()
    for key, option in HIGHS_OPTIONS.items():
        highs.setOptionValue(key, option)
    if highs.passModel(model) == _core.HighsStatus.kError:
        return _HighsResult("failed", "HiGHS rejected the model", 0)
    iterations = 0
    for strategy, from_scratch in SOLVES:
        if from_scratch:
            highs.clearSolver()
        highs.setOptionValue("simplex_strategy", strategy)
        highs.run()
        info = highs.getInfo()
        iterations += info.simplex_iteration_count
        model_status = highs.getModelStatus()
        if model_status in status_names:
            break
    status = status_names.get(model_status, "failed")
    if status != "optimal":
        message = (
            f"model_status is {highs.modelStatusToString(model_status)}; "
            "primal_status is "
            f"{highs.solutionStatusToString(info.primal_solution_status)}"
        )
        return _HighsResult(status, message, iterations)
    solution = highs.getSolution()
    col_status = np.array(highs.getBasis().col_status, dtype=np.int8)
    col_dual = np.array(solution.col_dual)
    return _HighsResult(
        "optimal", None, iterations,
        x=np.array(solution.col_value),
        objective=info.objective_function_value,
        row_dual=np.array(solution.row_dual),
        lower_dual=np.where(
            col_status == int(_core.HighsBasisStatus.kLower), col_dual, 0.0),
        upper_dual=np.where(
            col_status == int(_core.HighsBasisStatus.kUpper), col_dual, 0.0),
    )


def _csc_rows(rows: list[np.ndarray], sign: np.ndarray, n_cols: int):
    """Dense coefficient rows, each scaled by its ``sign``, as the CSC arrays
    ``(start, index, value)`` of their nonzero coefficients.  Rows are
    stacked 256 at a time, so the scan never holds a dense copy of the whole
    matrix (about 20 MB for a fairness LP at n = 50), and is no slower."""
    parts = [(np.zeros(0, dtype=np.intp), np.zeros(0))]
    for first in range(0, len(rows), 256):
        block = np.array(rows[first:first + 256], dtype=float).ravel()
        at = np.flatnonzero(block != 0.0)
        parts.append((at + first * n_cols, block[at]))
    flat, value = (np.concatenate(part) for part in zip(*parts))
    by_col = np.argsort(flat % n_cols, kind="stable")
    row, col = np.divmod(flat[by_col], n_cols)
    start = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=n_cols), out=start[1:])
    return start, row.astype(np.int32), value[by_col] * sign[row]


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a :class:`LinearProgram` and return primal and dual values.

    HiGHS receives one sparse matrix that stores only nonzero coefficients:
    the <= and >= rows (>= negated), then the = rows.  It runs without
    presolve, by primal simplex from the all-slack basis, a feasible vertex
    of every LP the package builds (see README, "Numerical conventions").  Numerical failure is reported through
    ``status='failed'``, never raised; a non-optimal solution carries the
    backend's account in ``message``.  Output is deterministic for
    identical input.
    """
    rows = lp.constraints
    is_eq = np.array([rel == EQ for _, rel, _ in rows], dtype=bool)
    order = np.concatenate((np.flatnonzero(~is_eq), np.flatnonzero(is_eq)))
    # a >= row is stored negated as a <= row
    sign = np.array([-1.0 if rows[k][1] == GEQ else 1.0 for k in order])
    rhs = np.array([b for _, _, b in rows], dtype=float)
    row_upper = rhs[order] * sign
    bounds = np.array(lp.variable_bounds, dtype=float).reshape(-1, 2)
    try:
        res = _highs(
            -lp.objective,  # HiGHS minimizes
            *_csc_rows([rows[k][0] for k in order], sign, lp.n_variables),
            np.where(is_eq[order], row_upper, -INF), row_upper,
            bounds[:, 0], bounds[:, 1],
        )
    except Exception as exc:  # defensive: backend bugs become a status
        return LpSolution(status="failed", primal=None, dual=None,
                          objective_value=None,
                          message=f"{type(exc).__name__}: {exc}")
    if res.status != "optimal":
        return LpSolution(status=res.status, primal=None, dual=None,
                          objective_value=None, message=res.message,
                          iterations=res.iterations)

    dual = np.empty(len(rows))
    # negating HiGHS's minimize-convention duals yields maximize-convention
    # multipliers; a >= row was negated on the way in, which flips it back
    dual[order] = -res.row_dual * sign
    return LpSolution(
        status="optimal",
        primal=res.x,
        dual=dual,
        objective_value=float(-res.objective),
        iterations=res.iterations,
        bound_duals_lower=-res.lower_dual,
        bound_duals_upper=-res.upper_dual,
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


def leq_program(objective, lhs, rhs, upper) -> LinearProgram:
    """``max objective @ x`` subject to ``lhs @ x <= rhs`` and
    ``0 <= x <= upper`` (``inf`` allowed): the form of every LP the package
    builds, and the one place that writes it as constraint rows."""
    return LinearProgram(
        objective=objective,
        constraints=tuple((row, LEQ, b) for row, b in zip(lhs, rhs)),
        variable_bounds=tuple((0.0, hi) for hi in upper),
    )


def solve_optimal(lp: LinearProgram, what: str) -> LpSolution:
    """:func:`solve_lp`, raising :class:`SolverError` with the backend's
    message when the status is not optimal; ``what`` names the LP."""
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise SolverError(
            f"{what} returned status {sol.status}: {sol.message}",
            status=sol.status,
        )
    return sol


def clearing_lp_model(
    matrix: RelativeLiabilityMatrix, totals, assets, interventions=None
) -> LinearProgram:
    """The clearing problem as a :class:`LinearProgram` over the payment
    vector: maximize total payments subject to the default constraint, with
    the solvency constraint expressed through the variable upper bounds."""
    n = matrix.n
    z = np.zeros(n) if interventions is None else np.asarray(interventions, float)
    return leq_program(
        np.ones(n), np.eye(n) - matrix.entries.T,
        np.asarray(assets, dtype=float) + z, np.asarray(totals, dtype=float),
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
    model = clearing_lp_model(matrix, totals, assets, interventions)
    return solve_optimal(model, "clearing LP").primal
