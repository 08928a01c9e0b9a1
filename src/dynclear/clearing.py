"""Round clearing for a fixed intervention, by the fictitious-default
algorithm and by linear program, plus the generic LP contract both routes
(and every other LP in the package) run through."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractionError, SolverError, ValidationError
from .network import CONNECTIVITY_MARGIN, RelativeLiabilityMatrix

INF = float("inf")

#: Agreement required between the LP and fixed-point clearing routes.
ROUTE_AGREEMENT_TOL = 1e-6

#: Largest gap between a primal value and the objective of its dual
#: certificate, relative to the primal value (or 1 when that is smaller), at
#: which the primal counts as optimal (:func:`gap_closes`).
KNAPSACK_GAP_TOL = 1e-9

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
#: only when the one before it stalls: primal simplex from the LP's start
#: basis (all-slack unless it carries one), dual simplex resumed from
#: primal's basis, dual simplex afresh from the all-slack basis.
SOLVES = ((PRIMAL_SIMPLEX, False), (DUAL_SIMPLEX, False), (DUAL_SIMPLEX, True))


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """``max objective @ x`` subject to ``A x <= rhs`` and ``0 <= x <= upper``
    (``inf`` allowed): the one form of every LP the package builds.

    ``A`` is held as the CSC arrays HiGHS takes: column ``j`` has the
    nonzeros ``value[start[j]:start[j + 1]]`` in the rows
    ``index[start[j]:start[j + 1]]``, ascending.  Build one with
    :func:`leq_program`, which checks shapes and bounds.

    ``basis`` is HiGHS's start basis, None for the all-slack one: column
    ``basis[0, k]`` starts basic in place of the slack of row
    ``basis[1, k]``, which starts tight at its rhs, while every other
    column starts at 0 and every other slack stays basic.  The builder
    vouches that this is a feasible, nonsingular vertex.
    """

    objective: np.ndarray  # (d,)
    start: np.ndarray      # (d + 1,) int32
    index: np.ndarray      # (nnz,) int32
    value: np.ndarray      # (nnz,)
    rhs: np.ndarray        # (m,)
    upper: np.ndarray      # (d,)
    basis: np.ndarray | None = None  # (2, k) int: (column, row) pairs

    @property
    def n_variables(self) -> int:
        return self.objective.shape[0]

    @property
    def constraints(self) -> "_Rows":
        """The rows as dense ``(coefficients, "<=", rhs)`` tuples, built one
        at a time from the CSC arrays.  Read-only; it exists only for the
        benchmark tracer and for tests, and goes when tracing reads the CSC
        arrays (ROADMAP item 1)."""
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
    bound; ``dual @ rhs`` plus ``bound_duals_upper @ upper`` over the finite
    bounds reproduces the optimal objective (strong duality, the lower
    bounds being 0).
    """

    status: str  # optimal | infeasible | unbounded | failed
    primal: np.ndarray | None = None
    dual: np.ndarray | None = None
    objective_value: float | None = None
    message: str | None = None  # the solver's account of a non-optimal status
    iterations: int = 0  # simplex iterations, over every solve after a stall
    bound_duals_upper: np.ndarray | None = None


def _highs(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` with the HiGHS binding that scipy bundles (private,
    imported on first use): the one call into HiGHS.

    HiGHS minimizes, so it gets the negated objective, with ``-inf`` as
    every row's lower bound and 0 as every column's; its duals are negated
    back into the maximize convention of :class:`LpSolution`.  Primal
    simplex runs first, from the all-slack basis or from ``lp.basis``,
    whose tight rows sit at their rhs and nonbasic columns at 0 (see
    README, "Numerical conventions").  When it ends in any status but
    optimal, infeasible or unbounded, dual simplex resumes from its basis;
    when that stalls too, the solver state is cleared and dual simplex
    solves once more from scratch (``SOLVES``).
    """
    from scipy.optimize._highspy import _core

    d, m = lp.n_variables, lp.rhs.shape[0]
    model = _core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = d
    model.num_row_ = model.a_matrix_.num_row_ = m
    model.a_matrix_.format_ = _core.MatrixFormat.kColwise
    model.a_matrix_.start_ = lp.start
    model.a_matrix_.index_ = lp.index
    model.a_matrix_.value_ = lp.value
    model.col_cost_ = -lp.objective
    model.col_lower_ = np.zeros(d)
    model.col_upper_ = lp.upper
    model.row_lower_ = np.full(m, -INF)
    model.row_upper_ = lp.rhs
    status_names = {
        _core.HighsModelStatus.kOptimal: "optimal",
        _core.HighsModelStatus.kInfeasible: "infeasible",
        _core.HighsModelStatus.kUnbounded: "unbounded",
    }

    highs = _core._Highs()
    for key, option in HIGHS_OPTIONS.items():
        highs.setOptionValue(key, option)
    if highs.passModel(model) == _core.HighsStatus.kError:
        return LpSolution("failed", message="HiGHS rejected the model")
    if lp.basis is not None:
        status = _core.HighsBasisStatus
        col_status = [status.kLower] * d
        row_status = [status.kBasic] * m
        for column, row in lp.basis.T.tolist():
            col_status[column] = status.kBasic
            row_status[row] = status.kUpper
        crash = _core.HighsBasis()
        crash.col_status, crash.row_status = col_status, row_status
        crash.valid = True
        if highs.setBasis(crash) != _core.HighsStatus.kOk:
            return LpSolution("failed", message="HiGHS rejected the start basis")
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
        return LpSolution(status, message=message, iterations=iterations)
    solution = highs.getSolution()
    col_status = np.array(highs.getBasis().col_status, dtype=np.int8)
    at_upper = col_status == int(_core.HighsBasisStatus.kUpper)
    return LpSolution(
        status="optimal",
        primal=np.array(solution.col_value),
        dual=-np.array(solution.row_dual),
        objective_value=float(-info.objective_function_value),
        iterations=iterations,
        bound_duals_upper=-np.where(at_upper, np.array(solution.col_dual), 0.0),
    )


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a :class:`LinearProgram` and return primal and dual values.

    HiGHS runs without presolve, by primal simplex from the LP's start basis
    or else the all-slack one, each a feasible vertex of the LPs that use it
    (:func:`_highs`; see README, "Numerical conventions").  Numerical
    failure is reported through ``status='failed'``, never raised; a
    non-optimal solution carries the backend's account in ``message``.
    Output is deterministic for identical input.
    """
    try:
        return _highs(lp)
    except Exception as exc:  # defensive: backend bugs become a status
        return LpSolution("failed", message=f"{type(exc).__name__}: {exc}")


def clear_stack(entries, totals, assets) -> np.ndarray:
    """Greatest clearing vectors of a stack of instances, shapes ``(k, n, n)``
    / ``(k, n)`` in and ``(k, n)`` out, by the fictitious-default algorithm
    (Eisenberg & Noe 2001).

    The default set ``D`` takes every node whose inflow ``A^T x + assets``
    falls short of its total; ``x`` then solves
    ``(I - diag(d) A^T) x = d * assets + (1 - d) * P`` for the whole stack
    in one batched solve, until ``D`` stops growing (at most ``n`` rounds).
    The loop starts from ``x = P``.  When some node is short there and
    ``c + A^T c < P`` holds at every node of the stack (otherwise the
    all-default set cannot be the final one, since ``x_N >= c + A^T c``),
    it restarts from ``min(P, x_N)``, where ``x_N`` is the solve with every
    node in ``D``.  That start is still above the clearing vector ``x*``:
    ``(I - A^T)(x_N - x*) >= 0`` because ``x* <= A^T x* + c``, and
    ``(I - A^T)^{-1} >= 0``.  So every node short there is in the true
    default set; when that is every node, ``x_N`` is returned without a
    second solve.  Either start reaches the same final ``D`` and returns
    that set's solve, the same expression on the same arrays, so the
    result is bit for bit that of the start from ``P``, exact up to the
    linear solves.  Raises :class:`ContractionError` when a row sum
    reaches ``1 - CONNECTIVITY_MARGIN`` or a block is singular.
    """
    entries, totals, assets = (
        np.asarray(a, dtype=float) for a in (entries, totals, assets)
    )
    beta_max = float(entries.sum(axis=-1).max(initial=0.0))
    if beta_max >= 1.0 - CONNECTIVITY_MARGIN:
        raise ContractionError(
            f"max connectivity {beta_max} is not < 1; "
            "the clearing map is not a contraction"
        )
    at = np.swapaxes(entries, -1, -2)
    eye = np.eye(totals.shape[-1])

    def solve(d, lhs=None):
        # ``lhs``, when given, is the block (eye - at on D = N); the masked
        # right-hand side stays, as it turns a -0.0 asset into 0.0
        try:
            return np.linalg.solve(
                eye - d[..., :, None] * at if lhs is None else lhs,
                (d * assets + (1.0 - d) * totals)[..., None],
            )[..., 0]
        except np.linalg.LinAlgError as exc:
            raise ContractionError(f"singular default block: {exc}") from exc

    warm = bool(((at @ assets[..., None])[..., 0] + assets < totals).all())
    x_all = None  # x_N, once the warm start has solved it
    x = totals.copy()
    default = np.zeros(totals.shape, dtype=bool)
    while True:
        short = (at @ x[..., None])[..., 0] + assets < totals
        if not (short & ~default).any():
            return x
        if warm and x_all is None:
            x_all = solve(np.ones(totals.shape), eye - at)
            x = np.minimum(totals, x_all)
            continue
        default |= short
        x = x_all if x_all is not None and default.all() else solve(
            default.astype(float))


def round_arrays(matrix: RelativeLiabilityMatrix, totals, assets,
                 interventions=None) -> tuple[np.ndarray, ...]:
    """``(totals, assets, interventions)`` of one round on ``matrix`` as float
    vectors of length ``n``, with zero interventions when None: the one input
    check of every round solver.  Raises :class:`ValidationError` naming the
    first array of another shape, or with an entry that is NaN, infinite or
    negative."""
    n = matrix.n
    z = np.zeros(n) if interventions is None else interventions
    checked = []
    for name, a in (("totals", totals), ("assets", assets), ("interventions", z)):
        a = np.asarray(a, dtype=float)
        if a.shape != (n,):
            raise ValidationError(f"{name} has shape {a.shape}, expected ({n},)")
        ok = (0.0 <= a) & (a < INF)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValidationError(f"{name}[{i}] = {a[i]} is not finite and >= 0")
        checked.append(a)
    return tuple(checked)


def clear_fixed_point(
    matrix: RelativeLiabilityMatrix,
    totals,
    assets,
    interventions=None,
) -> np.ndarray:
    """Maximal clearing vector: the greatest fixed point of
    ``x = P ^ (A^T x + c + Z)``, computed exactly by :func:`clear_stack`.

    Inputs are checked by :func:`round_arrays`.  Requires strictly
    substochastic rows (raises :class:`ContractionError` otherwise).
    """
    totals, assets, z = round_arrays(matrix, totals, assets, interventions)
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


def leq_program(objective, triplets, rhs, upper, basis=None) -> LinearProgram:
    """``max objective @ x`` subject to ``A x <= rhs`` and ``0 <= x <= upper``
    (``inf`` allowed), with ``A`` given as COO blocks ``(rows, cols,
    values)`` that hold each entry at most once: the one COO -> CSC step of
    the package.  ``basis`` is the optional start basis of
    :class:`LinearProgram`, its (column, row) pairs as a ``(2, k)`` array
    of distinct columns and distinct rows.

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
                         rhs, upper, basis)


def solve_optimal(lp: LinearProgram, what: str) -> LpSolution:
    """:func:`solve_lp`, certified optimal; ``what`` names the LP.

    Raises :class:`SolverError` with the backend's message when the status
    is not optimal, and when the marginals do not prove the primal optimal:
    the row duals ``y`` and upper-bound duals ``w`` must be dual feasible,
    ``y >= 0``, ``w >= 0`` and ``A^T y + w >= objective``, to
    ``LP_REPAIR_TOL``, and the dual objective ``rhs @ y + upper @ w`` over
    the finite bounds must match ``objective @ x`` to ``KNAPSACK_GAP_TOL``,
    relative to it (or to 1 when it is smaller).
    """
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise SolverError(
            f"{what} returned status {sol.status}: {sol.message}",
            status=sol.status,
        )
    y, w = sol.dual, sol.bound_duals_upper
    cols = np.repeat(np.arange(lp.n_variables), np.diff(lp.start))
    reduced = np.bincount(cols, lp.value * y[lp.index], lp.n_variables) + w
    breach = float(np.concatenate([-y, -w, lp.objective - reduced]).max(
        initial=0.0))
    if not breach <= LP_REPAIR_TOL:  # NaN counts as a failure too
        raise SolverError(
            f"{what} marginals violate dual feasibility by {breach:.3g}, "
            f"beyond LP_REPAIR_TOL={LP_REPAIR_TOL:g}"
        )
    finite = np.isfinite(lp.upper)
    primal = float(lp.objective @ sol.primal)
    dual = float(lp.rhs @ y + lp.upper[finite] @ w[finite])
    if not gap_closes(dual, primal):
        raise SolverError(
            f"{what} primal and dual objectives differ by "
            f"{abs(dual - primal):.3g}, beyond "
            f"KNAPSACK_GAP_TOL={KNAPSACK_GAP_TOL:g} relative"
        )
    return sol


def gap_closes(dual: float, primal: float) -> bool:
    """Whether a dual objective proves a primal value optimal: the gap
    ``|dual - primal|`` is at most ``KNAPSACK_GAP_TOL`` times ``|primal|``
    (or 1 when that is smaller), NaN counting as a failure.  The one
    acceptance rule of every duality certificate in the package."""
    return abs(dual - primal) <= KNAPSACK_GAP_TOL * max(1.0, abs(primal))


def clearing_lp_model(
    matrix: RelativeLiabilityMatrix, totals, assets, interventions=None
) -> LinearProgram:
    """The clearing problem as a :class:`LinearProgram` over the payment
    vector: maximize total payments subject to the default constraint, with
    the solvency constraint expressed through the variable upper bounds.
    Inputs are checked by :func:`round_arrays`."""
    totals, assets, z = round_arrays(matrix, totals, assets, interventions)
    n = matrix.n
    return leq_program(np.ones(n), [dense_coo(np.eye(n) - matrix.entries.T)],
                       assets + z, totals)


def clear_lp(
    matrix: RelativeLiabilityMatrix, totals, assets, interventions=None
) -> np.ndarray:
    """Maximal clearing vector by linear program; agrees with
    :func:`clear_fixed_point` to within ``ROUTE_AGREEMENT_TOL``."""
    model = clearing_lp_model(matrix, totals, assets, interventions)
    return solve_optimal(model, "clearing LP").primal
