"""Round clearing for a fixed intervention, by the fictitious-default
algorithm and by linear program, plus the generic LP contract both routes
(and every other LP in the package) run through."""

from __future__ import annotations

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
    """``max objective @ x`` subject to ``A x <= rhs`` and ``0 <= x <= upper``
    (``inf`` allowed): the one form of every LP the package builds.

    ``A`` is held as the CSC arrays HiGHS takes: column ``j`` has the
    nonzeros ``value[start[j]:start[j + 1]]`` in the rows
    ``index[start[j]:start[j + 1]]``, ascending.  Build one with
    :func:`leq_program`, which checks shapes and bounds.
    """

    objective: np.ndarray  # (d,)
    start: np.ndarray      # (d + 1,) int32
    index: np.ndarray      # (nnz,) int32
    value: np.ndarray      # (nnz,)
    rhs: np.ndarray        # (m,)
    upper: np.ndarray      # (d,)

    @property
    def n_variables(self) -> int:
        return self.objective.shape[0]

    @property
    def constraints(self) -> "_Rows":
        """The rows as dense ``(coefficients, "<=", rhs)`` tuples, built one
        at a time from the CSC arrays.  Read-only; it exists only for the
        benchmark tracer and for tests, and goes when tracing reads the CSC
        arrays (ROADMAP item 3)."""
        return _Rows(self)


@dataclass(frozen=True, eq=False)
class _Rows:
    """Lazy sequence behind :attr:`LinearProgram.constraints`: rows are
    scattered 256 at a time into a dense block, never the whole matrix."""

    lp: LinearProgram

    def __len__(self) -> int:
        return self.lp.rhs.shape[0]

    def __iter__(self):
        lp = self.lp
        cols = np.repeat(np.arange(lp.n_variables), np.diff(lp.start))
        for first in range(0, len(self), 256):
            rhs = lp.rhs[first:first + 256]
            at = (first <= lp.index) & (lp.index < first + rhs.size)
            block = np.zeros((rhs.size, lp.n_variables))
            block[lp.index[at] - first, cols[at]] = lp.value[at]
            yield from ((row, "<=", float(b)) for row, b in zip(block, rhs))


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solver output in the maximize convention.

    ``dual`` carries one nonnegative multiplier per constraint row and
    ``bound_duals_upper`` the reduced costs of the columns at their upper
    bound; together they reproduce the optimal objective (strong duality,
    the lower bounds being 0), which is what :meth:`dual_objective`
    evaluates.
    """

    status: str  # optimal | infeasible | unbounded | failed
    primal: np.ndarray | None
    dual: np.ndarray | None
    objective_value: float | None
    message: str | None = None  # the solver's account of a non-optimal status
    iterations: int = 0  # simplex iterations, over every solve after a stall
    bound_duals_upper: np.ndarray | None = None
    _lp: LinearProgram | None = None

    def dual_objective(self) -> float:
        if self.status != "optimal":
            raise SolverError("dual objective only defined for optimal solutions")
        # a multiplier on an infinite bound is 0
        finite = np.isfinite(self._lp.upper)
        return float(np.dot(self.dual, self._lp.rhs)
                     + np.dot(self.bound_duals_upper[finite], self._lp.upper[finite]))


class _HighsResult(NamedTuple):
    """One :func:`_highs` call in HiGHS's minimize convention."""

    status: str  # optimal | infeasible | unbounded | failed
    message: str | None
    iterations: int
    x: np.ndarray | None = None
    objective: float | None = None
    row_dual: np.ndarray | None = None
    upper_dual: np.ndarray | None = None  # reduced costs of columns at upper


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
    return _HighsResult(
        "optimal", None, iterations,
        x=np.array(solution.col_value),
        objective=info.objective_function_value,
        row_dual=np.array(solution.row_dual),
        upper_dual=np.where(col_status == int(_core.HighsBasisStatus.kUpper),
                            np.array(solution.col_dual), 0.0),
    )


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a :class:`LinearProgram` and return primal and dual values.

    The CSC arrays, ``rhs`` and ``upper`` go to HiGHS as they are, with
    ``-inf`` as every row's lower bound and ``0`` as every column's.  HiGHS
    runs without presolve, by primal simplex from the all-slack basis, a
    feasible vertex of every LP the package builds (see README, "Numerical
    conventions").  Numerical failure is reported through
    ``status='failed'``, never raised; a non-optimal solution carries the
    backend's account in ``message``.  Output is deterministic for
    identical input.
    """
    try:
        res = _highs(
            -lp.objective,  # HiGHS minimizes
            lp.start, lp.index, lp.value, np.full(lp.rhs.shape, -INF), lp.rhs,
            np.zeros(lp.n_variables), lp.upper,
        )
    except Exception as exc:  # defensive: backend bugs become a status
        return LpSolution(status="failed", primal=None, dual=None,
                          objective_value=None,
                          message=f"{type(exc).__name__}: {exc}")
    if res.status != "optimal":
        return LpSolution(status=res.status, primal=None, dual=None,
                          objective_value=None, message=res.message,
                          iterations=res.iterations)
    # negating HiGHS's minimize-convention duals gives maximize-convention ones
    return LpSolution(
        status="optimal",
        primal=res.x,
        dual=-res.row_dual,
        objective_value=float(-res.objective),
        iterations=res.iterations,
        bound_duals_upper=-res.upper_dual,
        _lp=lp,
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


def dense_coo(block, row0: int = 0, col0: int = 0):
    """COO triplets ``(rows, cols, values)`` of the nonzeros of a dense
    ``block`` whose top-left entry sits at ``(row0, col0)``."""
    rows, cols = np.nonzero(block)
    return rows + row0, cols + col0, block[rows, cols]


def kron_coo(a, b, row0: int = 0, col0: int = 0):
    """:func:`dense_coo` of ``np.kron(a, b)``, built from the nonzeros of
    ``a`` and ``b`` without the dense product; each value is the same
    product ``a[i, j] * b[k, l]`` that ``np.kron`` forms."""
    ra, ca, va = dense_coo(a)
    rb, cb, vb = dense_coo(b)
    rows = ra[:, None] * b.shape[0] + rb + row0
    cols = ca[:, None] * b.shape[1] + cb + col0
    return rows.ravel(), cols.ravel(), (va[:, None] * vb).ravel()


def leq_program(objective, triplets, rhs, upper) -> LinearProgram:
    """``max objective @ x`` subject to ``A x <= rhs`` and ``0 <= x <= upper``
    (``inf`` allowed), with ``A`` given as COO blocks ``(rows, cols,
    values)`` that hold each entry at most once: the one COO -> CSC step of
    the package.

    Exact zeros are dropped and the rest sorted by (column, row), the order
    a column-wise scan of the dense matrix gives.  Shapes, indices and
    bounds are checked vectorised and raise :class:`ValidationError`.
    """
    objective, rhs, upper = (
        np.asarray(a, dtype=float) for a in (objective, rhs, upper)
    )
    m, d = rhs.size, objective.size
    if ((objective.ndim, rhs.ndim, upper.shape) != (1, 1, (d,))
            or not np.all(upper >= 0)):
        raise ValidationError(f"objective, rhs and {d} bounds >= 0 must be vectors")
    rows, cols, values = (
        np.concatenate([np.ravel(t[k]) for t in triplets] or [np.zeros(0)])
        for k in range(3)
    )
    rows, cols = rows.astype(np.intp), cols.astype(np.intp)
    if not (rows.shape == cols.shape == values.shape
            and np.all((0 <= rows) & (rows < m) & (0 <= cols) & (cols < d))):
        raise ValidationError(f"the COO triplets do not fit a {m} x {d} matrix")
    keep = np.flatnonzero(values != 0.0)
    keep = keep[np.argsort(cols[keep] * m + rows[keep])]  # by (column, row)
    rows, cols = rows[keep], cols[keep]
    if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
        raise ValidationError("a constraint entry is given twice")
    start = np.zeros(d + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=d), out=start[1:])
    return LinearProgram(objective, start, rows.astype(np.int32), values[keep],
                         rhs, upper)


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
        np.ones(n), [dense_coo(np.eye(n) - matrix.entries.T)],
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
