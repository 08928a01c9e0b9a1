import ast
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import dynclear.clearing
import dynclear.fractional
import dynclear.network
from dynclear import (
    ContractionError,
    FairnessSpec,
    RelativeLiabilityMatrix,
    SbmParams,
    SolverError,
    SystemState,
    ValidationError,
    advance_state,
    check_constant_proportions,
    clear_fixed_point,
    clear_lp,
    clearing_lp_model,
    per_round_lp,
    relative_matrix,
    sample_sbm_round,
    solve_horizon_primal,
    solve_lp,
)
from dynclear.clearing import (
    ROUTE_AGREEMENT_TOL,
    clear_stack,
    dense_coo,
    leq_program,
)
from dynclear.fractional import _allocation_lp

from conftest import (
    hub_path,
    hub_shock,
    picard,
    random_clearing_instance,
    refused_hub_round,
    sbm_round,
)

INF = float("inf")


def dual_objective(sol, lp) -> float:
    """``dual @ rhs`` plus the upper-bound duals times the finite upper
    bounds: the optimal objective, by strong duality."""
    finite = np.isfinite(lp.upper)
    return float(np.dot(sol.dual, lp.rhs)
                 + np.dot(sol.bound_duals_upper[finite], lp.upper[finite]))


def highspy_importers(source: str, module: str) -> list[str]:
    """Qualified names of the functions in ``source`` that import
    ``scipy.optimize._highspy`` or a module under it, and ``module`` itself
    for an import outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                names = []
            if any(re.match(r"scipy\.optimize\._highspy(\.|$)", name)
                   for name in names):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), module)
    return found


def hub_round_one():
    state = advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1))
    return relative_matrix(state), state.totals, hub_shock(1).external_assets


def _hub_horizon():
    path = hub_path(2)
    return solve_horizon_primal(path, 3.0, 2.0, check_constant_proportions(path))


#: Every LP builder of the package, called on the hub instance (the
#: per-round LP on a round its knapsack route refuses, the horizon LP on a
#: path its closed-form route refuses: B = 3 makes node 1 solvent).
BUILDERS = {
    "per_round_lp": lambda: per_round_lp(*refused_hub_round(), budget=1.0, caps=1.0),
    "clear_lp": lambda: clear_lp(*hub_round_one()),
    "solve_horizon_primal": _hub_horizon,
}

#: The builders again, each on an instance whose optimum has a row dual and
#: an upper-bound dual of at least 0.1 (one unit given to the hub's node 0
#: makes node 1 solvent while nodes 0 and 2 default), plus the per-round LP
#: with a fairness block, the one LP that carries a start basis.
CERTIFIED_BUILDERS = {
    **BUILDERS,
    "clear_lp": lambda: clear_lp(*refused_hub_round(), np.array([1.0, 0.0, 0.0])),
    "per_round_lp_fair": lambda: per_round_lp(
        *refused_hub_round(), budget=1.0, caps=1.0,
        fairness=FairnessSpec(kind="spatial", g=0.5)),
}


class TestSolveLp:
    def test_simple_maximum(self):
        lp = leq_program([1.0], [([0], [0], [1.0])], [3.0], [INF])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(3.0)
        assert sol.primal[0] == pytest.approx(3.0)

    def test_infeasible(self):
        lp = leq_program([1.0], [([0], [0], [1.0])], [-1.0], [INF])
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = leq_program([1.0], [], [], [INF])
        assert solve_lp(lp).status == "unbounded"

    def test_hub_clearing_lp_with_support_reaches_five(self):
        matrix, totals, assets = hub_round_one()
        lp = clearing_lp_model(matrix, totals, assets, np.array([2.0, 0.0, 0.0]))
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(5.0, abs=1e-7)

    def test_equality_and_geq_rows_round_trip(self):
        # max 2x + y s.t. x + y = 1, y - x >= 0.2 -> x = 0.4, y = 0.6, in <=
        # form: an = row is a row and its negation, a >= row is negated
        lhs = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        lp = leq_program([2.0, 1.0], [dense_coo(lhs)], [1.0, -1.0, -0.2],
                         [INF, INF])
        sol = solve_lp(lp)
        np.testing.assert_allclose(sol.primal, [0.4, 0.6], atol=1e-8)

    def test_duals_satisfy_strong_duality_and_slackness(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            objective = rng.uniform(-1, 1, n)
            rows = [(rng.uniform(-1, 1, n), float(rng.uniform(0.5, 2)))
                    for _ in range(m)]
            lhs, rhs = (np.array(part) for part in zip(*rows))
            lp = leq_program(objective, [dense_coo(lhs)], rhs,
                             [float(rng.uniform(1, 3)) for _ in range(n)])
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            assert dual_objective(sol, lp) == pytest.approx(
                sol.objective_value, abs=1e-6
            )
            for coeffs, b, dual in zip(lhs, rhs, sol.dual):
                slack = b - float(coeffs @ sol.primal)
                assert slack >= -1e-7  # primal feasibility
                assert abs(dual * slack) <= 1e-6  # complementary slackness

    def test_the_bundled_highs_binding_is_importable(self):
        try:
            from scipy.optimize._highspy._core import _Highs
        except ImportError as exc:
            pytest.fail(
                "solve_lp runs HiGHS through scipy's private binding "
                "scipy.optimize._highspy._core._Highs, which this scipy "
                f"does not ship ({exc}); see README, Install"
            )
        assert callable(_Highs)

    def test_only_highs_imports_the_private_binding(self):
        package = Path(dynclear.__file__).parent
        found = [
            name for path in sorted(package.glob("*.py"))
            for name in highspy_importers(path.read_text(), path.stem)
        ]
        assert found == ["clearing._highs"]

    def test_the_import_guard_finds_every_importer(self):
        source = (
            "import scipy.optimize._highspy._core\n"
            "def f():\n"
            "    from scipy.optimize import _highspy\n"
            "class K:\n"
            "    def g(self):\n"
            "        from scipy.optimize._highspy._core import _Highs\n"
            "def h():\n"
            "    from scipy.optimize import linprog\n"
        )
        assert highspy_importers(source, "m") == ["m", "m.f", "m.K.g"]

    def test_highs_receives_sparse_rows_without_zeros(self, monkeypatch):
        from scipy.optimize._highspy import _core

        seen, options = {}, {}

        class Recording(_core._Highs):
            def setOptionValue(self, key, value):
                status = super().setOptionValue(key, value)
                assert status == _core.HighsStatus.kOk, (key, value)
                options[key] = value
                return status

            def passModel(self, model):
                matrix = model.a_matrix_
                seen.update(
                    cost=np.array(model.col_cost_), start=np.array(matrix.start_),
                    index=np.array(matrix.index_), value=np.array(matrix.value_),
                    row_lower=np.array(model.row_lower_),
                    row_upper=np.array(model.row_upper_),
                    col_upper=np.array(model.col_upper_),
                )
                return super().passModel(model)

        monkeypatch.setattr(_core, "_Highs", Recording)
        # max 2x + y + z s.t. x + y <= 1.5, y - x >= 0.2, x + z = 1, in <=
        # form: the >= row negated, the = row as itself and its negation
        lhs = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0],
                        [1.0, 0.0, 1.0], [-1.0, 0.0, -1.0]])
        lp = leq_program([2.0, 1.0, 1.0], [dense_coo(lhs)], [1.5, -0.2, 1.0, -1.0],
                         [INF, INF, INF])
        sol = solve_lp(lp)
        assert np.all(seen["value"] != 0)
        np.testing.assert_array_equal(
            scipy.sparse.csc_array((seen["value"], seen["index"], seen["start"]),
                                   shape=(4, 3)).toarray(),
            lhs,
        )
        np.testing.assert_array_equal(seen["row_upper"], [1.5, -0.2, 1.0, -1.0])
        np.testing.assert_array_equal(seen["row_lower"], [-INF] * 4)
        np.testing.assert_array_equal(seen["col_upper"], [INF] * 3)
        np.testing.assert_array_equal(seen["cost"], [-2.0, -1.0, -1.0])
        assert options == {
            "output_flag": False, "presolve": "off",
            "dual_feasibility_tolerance": 1e-9, "simplex_strategy": 4,
        }
        np.testing.assert_allclose(sol.primal, [0.65, 0.85, 0.35], atol=1e-8)
        assert dual_objective(sol, lp) == pytest.approx(sol.objective_value, abs=1e-9)
        assert sol.iterations > 0

    def test_a_primal_stall_gets_one_fresh_dual_solve(self, monkeypatch):
        from scipy.optimize._highspy import _core

        calls = []

        class Stalling(_core._Highs):
            """Reports kUnknown after the runs listed in ``stalls``, as
            primal simplex (and sometimes the resumed dual) does on some
            degenerate LPs."""

            stalls = ()

            def clearSolver(self):
                calls.append("clear")
                return super().clearSolver()

            def run(self):
                calls.append(self.getOptionValue("simplex_strategy")[1])
                return super().run()

            def getModelStatus(self):
                if calls in self.stalls:
                    return _core.HighsModelStatus.kUnknown
                return super().getModelStatus()

        lp = clearing_lp_model(*hub_round_one(), np.array([2.0, 0.0, 0.0]))
        expected = solve_lp(lp)
        monkeypatch.setattr(_core, "_Highs", Stalling)
        # dual simplex resumes from the stalled basis, and only a second
        # stall clears the solver for a dual solve from scratch
        for stalls, sequence in (
            ([[4]], [4, 1]),
            ([[4], [4, 1]], [4, 1, "clear", 1]),
        ):
            calls.clear()
            Stalling.stalls = stalls
            sol = solve_lp(lp)
            assert calls == sequence
            assert sol.status == "optimal"
            np.testing.assert_allclose(sol.primal, expected.primal, atol=1e-12)
            assert sol.iterations >= expected.iterations

        calls.clear()
        Stalling.stalls = ()
        infeasible = leq_program([1.0], [([0], [0], [1.0])], [-1.0], [INF])
        assert solve_lp(infeasible).status == "infeasible"
        assert calls == [4]

    def test_a_stall_of_both_solves_is_a_failed_status(self, monkeypatch):
        from scipy.optimize._highspy import _core

        class Stalled(_core._Highs):
            def getModelStatus(self):
                return _core.HighsModelStatus.kUnknown

        monkeypatch.setattr(_core, "_Highs", Stalled)
        sol = solve_lp(clearing_lp_model(*hub_round_one()))
        assert sol.status == "failed" and "Unknown" in sol.message
        with pytest.raises(SolverError, match="status failed: model_status is Unknown"):
            clear_lp(*hub_round_one())

    def test_per_round_lp_matches_a_presolved_reference(self, monkeypatch):
        # HiGHS runs without presolve; the same dense rows handed to linprog
        # with its default presolve must reach the same optimum
        solved = []
        solve = dynclear.clearing.solve_lp
        monkeypatch.setattr(
            dynclear.clearing, "solve_lp",
            lambda lp: solved.append((lp, solve(lp))) or solved[-1][1],
        )
        rng = np.random.default_rng(61)
        for _ in range(6):
            n = int(rng.integers(3, 13))
            n_core = int(rng.integers(1, n))
            params = SbmParams(
                n_core=n_core, n_periphery=n - n_core,
                block_probs=[[0.8, 0.4], [0.4, 0.1]], asset_level=0.3,
            )
            shock = sample_sbm_round(params, rng)
            state = advance_state(SystemState.empty(n), np.zeros(n), shock)
            matrix = relative_matrix(state)
            budget = float(rng.uniform(0.5, 3.0))
            caps = rng.uniform(0.2, 1.5, n)
            g = float(rng.uniform(0.1, 0.6))
            specs = [
                None,
                FairnessSpec(kind="standard", g=g),
                FairnessSpec(kind="spatial", g=g),
                FairnessSpec(kind="property", g=g, q=rng.random(n)),
            ]
            for spec in specs:
                if spec is None:  # the knapsack route may need no LP
                    dynclear.clearing.solve_lp(_allocation_lp(
                        matrix, state.totals, shock.external_assets, budget, caps))
                else:
                    per_round_lp(matrix, state.totals, shock.external_assets,
                                 budget, caps, fairness=spec)
                lp, sol = solved[-1]
                reference = linprog(
                    -lp.objective,
                    A_ub=scipy.sparse.csc_array(
                        (lp.value, lp.index, lp.start),
                        shape=(lp.rhs.size, lp.n_variables),
                    ).toarray(),
                    b_ub=lp.rhs,
                    bounds=np.column_stack([np.zeros(lp.n_variables), lp.upper]),
                    method="highs",
                )
                assert reference.status == 0
                assert sol.objective_value == pytest.approx(-reference.fun, abs=1e-9)
        assert len(solved) == 24

    def test_backend_exception_text_reaches_the_caller(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(dynclear.clearing, "_highs", broken)
        matrix, totals, assets = hub_round_one()
        sol = solve_lp(clearing_lp_model(matrix, totals, assets))
        assert sol.status == "failed" and "boom" in sol.message
        with pytest.raises(SolverError, match="boom"):
            per_round_lp(*refused_hub_round(), budget=1.0, caps=1.0)

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_every_builder_quotes_the_backend_message(self, monkeypatch, builder):
        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(dynclear.clearing, "_highs", broken)
        with pytest.raises(SolverError, match="status failed: ValueError: boom"):
            BUILDERS[builder]()

    @pytest.mark.parametrize("corrupt", [-1.0, 0.0, np.nan])
    @pytest.mark.parametrize("marginal", ["dual", "bound_duals_upper"])
    @pytest.mark.parametrize("builder", sorted(CERTIFIED_BUILDERS))
    def test_a_corrupted_marginal_is_refused(self, monkeypatch, builder,
                                             marginal, corrupt):
        # the largest row dual and the largest upper-bound dual each price a
        # column whose reduced cost is 0 at the optimum: negating, dropping
        # or blanking either breaks dual feasibility
        solve = dynclear.clearing.solve_lp

        def corrupted(lp):
            sol = solve(lp)
            values = getattr(sol, marginal)
            k = int(np.argmax(values))
            assert values[k] >= 0.1
            values[k] *= corrupt
            return sol

        CERTIFIED_BUILDERS[builder]()
        monkeypatch.setattr(dynclear.clearing, "solve_lp", corrupted)
        with pytest.raises(SolverError, match="violate dual feasibility"):
            CERTIFIED_BUILDERS[builder]()

    @pytest.mark.parametrize("builder", sorted(CERTIFIED_BUILDERS))
    def test_a_primal_short_of_the_optimum_is_refused(self, monkeypatch, builder):
        solve = dynclear.clearing.solve_lp

        def halved(lp):
            sol = solve(lp)
            sol.primal[:] *= 0.5
            return sol

        monkeypatch.setattr(dynclear.clearing, "solve_lp", halved)
        with pytest.raises(SolverError, match="primal and dual objectives differ"):
            CERTIFIED_BUILDERS[builder]()

    def test_every_start_basis_is_accepted(self, monkeypatch):
        from scipy.optimize._highspy import _core

        statuses = []

        class Recording(_core._Highs):
            def setBasis(self, *args):
                statuses.append(super().setBasis(*args))
                return statuses[-1]

        monkeypatch.setattr(_core, "_Highs", Recording)
        rng = np.random.default_rng(12)
        for kind in ("standard", "spatial", "property"):
            for n in (3, 8, 20):
                state, matrix, assets = sbm_round(rng, n, rounds=2)
                spec = FairnessSpec(kind=kind, g=0.4,
                                    q=rng.random(n) if kind == "property" else None)
                per_round_lp(matrix, state.totals, assets, 2.0, 1.0, fairness=spec)
        # LPs without a fairness block reach HiGHS with no start
        for build in BUILDERS.values():
            build()
        assert statuses == [_core.HighsStatus.kOk] * 9

    def test_a_refused_start_basis_is_a_failed_status(self, monkeypatch):
        from scipy.optimize._highspy import _core

        class Refusing(_core._Highs):
            def setBasis(self, *args):
                return _core.HighsStatus.kError

        monkeypatch.setattr(_core, "_Highs", Refusing)
        with pytest.raises(SolverError, match="rejected the start basis"):
            CERTIFIED_BUILDERS["per_round_lp_fair"]()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            leq_program([1.0, 1.0], [([0], [2], [1.0])], [1.0], [1.0, 1.0])
        with pytest.raises(ValidationError):
            leq_program([1.0, 1.0], [([1], [0], [1.0])], [1.0], [1.0, 1.0])
        with pytest.raises(ValidationError):
            leq_program([1.0, 1.0], [], [], [1.0])
        with pytest.raises(ValidationError):
            leq_program([1.0], [], [], [-1.0])


#: The three round solvers, each on ``(matrix, totals, assets,
#: interventions)``; ``per_round_lp`` takes no interventions.
ROUND_SOLVERS = {
    "clear_fixed_point": clear_fixed_point,
    "clear_lp": clear_lp,
    "per_round_lp": lambda matrix, totals, assets, z: per_round_lp(
        matrix, totals, assets, budget=1.0, caps=1.0),
}

#: ``(solver, array, bad entry)``: a NaN, infinite or negative entry at
#: node 1, or ``"short"`` for a vector of length 2 on three nodes.
BAD_ROUNDS = [
    (solver, name, bad)
    for solver in sorted(ROUND_SOLVERS)
    for name in ("totals", "assets", "interventions")
    for bad in (np.nan, INF, -1.0, "short")
    if not (solver == "per_round_lp" and name == "interventions")
]


class TestRoundInputs:
    @pytest.mark.parametrize("solver, name, bad", BAD_ROUNDS)
    def test_a_bad_array_is_refused_by_name(self, solver, name, bad):
        matrix, totals, assets = hub_round_one()
        arrays = {"totals": totals.copy(), "assets": assets.copy(),
                  "interventions": np.zeros(3)}
        if bad == "short":
            arrays[name] = arrays[name][:2]
            message = rf"^{name} has shape \(2,\), expected \(3,\)$"
        else:
            arrays[name][1] = bad
            message = rf"^{name}\[1\] = {bad} is not finite and >= 0$"
        with pytest.raises(ValidationError, match=message):
            ROUND_SOLVERS[solver](matrix, arrays["totals"], arrays["assets"],
                                  arrays["interventions"])

    @pytest.mark.parametrize("budget", [np.nan, INF, -1.0])
    def test_per_round_lp_refuses_a_bad_budget(self, budget):
        with pytest.raises(ValidationError,
                           match=rf"^budget = {budget} is not finite and >= 0$"):
            per_round_lp(*hub_round_one(), budget=budget, caps=1.0)

    @pytest.mark.parametrize("solver", ["clear_fixed_point", "clear_lp"])
    def test_an_infinite_total_is_refused_by_both_routes(self, solver):
        # cleared, P = (inf, 1) gave (inf, 1) by fixed point and (0, 0) by LP
        matrix = RelativeLiabilityMatrix.from_entries([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValidationError, match=r"^totals\[0\] = inf "):
            ROUND_SOLVERS[solver](matrix, [INF, 1.0], [1.0, 1.0], None)

    @pytest.mark.parametrize("fairness", [None, FairnessSpec(kind="spatial", g=0.5)])
    def test_infinite_caps_stay_legal(self, fairness):
        capped, uncapped = (
            per_round_lp(*refused_hub_round(), budget=2.0, caps=caps,
                         fairness=fairness)
            for caps in (2.0, INF)
        )
        assert uncapped.reward == pytest.approx(capped.reward, abs=1e-9)
        np.testing.assert_allclose(uncapped.intervention, capped.intervention,
                                   atol=1e-9)


class TestFixedPoint:
    def test_hub_zero_input(self):
        matrix, totals, assets = hub_round_one()
        cleared = clear_fixed_point(matrix, totals, assets)
        np.testing.assert_allclose(cleared, [1.0, 1 / 3, 1 / 3], atol=1e-9)

    def test_hub_with_support_everyone_solvent(self):
        matrix, totals, assets = hub_round_one()
        cleared = clear_fixed_point(matrix, totals, assets, [2.0, 0.0, 0.0])
        np.testing.assert_allclose(cleared, [3.0, 1.0, 1.0], atol=1e-9)

    def test_rich_nodes_pay_in_full(self):
        rng = np.random.default_rng(3)
        matrix, totals, _ = random_clearing_instance(rng, 5)
        cleared = clear_fixed_point(matrix, totals, totals + 1.0)
        np.testing.assert_allclose(cleared, totals, atol=1e-9)

    def test_non_contraction_raises(self):
        matrix = RelativeLiabilityMatrix.from_entries([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ContractionError):
            clear_fixed_point(matrix, np.ones(2), np.zeros(2))

    def test_residuals_decay_at_connectivity_rate(self):
        # the Picard reference (conftest) contracts at the connectivity rate
        rng = np.random.default_rng(11)
        for _ in range(30):
            matrix, totals, assets = random_clearing_instance(rng, int(rng.integers(2, 7)))
            _, residuals = picard(matrix, totals, assets)
            rate = matrix.max_connectivity + 1e-9
            for prev, cur in zip(residuals, residuals[1:]):
                assert cur <= rate * prev + 1e-15


class TestClearLp:
    def test_hub_zero_input_objective(self):
        matrix, totals, assets = hub_round_one()
        cleared = clear_lp(matrix, totals, assets)
        assert cleared.sum() == pytest.approx(5 / 3, abs=1e-7)

    def test_hub_single_unit_of_support(self):
        matrix, totals, assets = hub_round_one()
        cleared = clear_lp(matrix, totals, assets, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(cleared, [2.0, 2 / 3, 2 / 3], atol=1e-7)
        assert cleared.sum() == pytest.approx(10 / 3, abs=1e-7)

    def test_zero_liabilities_clear_to_zero(self):
        matrix = RelativeLiabilityMatrix.from_entries(np.zeros((3, 3)))
        cleared = clear_lp(matrix, np.zeros(3), np.ones(3))
        np.testing.assert_allclose(cleared, 0.0, atol=1e-9)


class TestRouteAgreement:
    def test_lp_matches_fixed_point_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            matrix, totals, assets = random_clearing_instance(rng, n)
            by_iteration = clear_fixed_point(matrix, totals, assets)
            by_lp = clear_lp(matrix, totals, assets)
            assert np.abs(by_iteration - by_lp).max() <= ROUTE_AGREEMENT_TOL

    def test_clearing_monotone_in_assets_and_support(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            matrix, totals, assets = random_clearing_instance(rng, n)
            base = clear_fixed_point(matrix, totals, assets)
            bump = np.zeros(n)
            bump[int(rng.integers(0, n))] = rng.uniform(0.1, 1.0)
            more_assets = clear_fixed_point(matrix, totals, assets + bump)
            assert (more_assets - base).min() >= -1e-12
            with_support = clear_fixed_point(matrix, totals, assets, bump)
            assert (with_support - base).min() >= -1e-12


@st.composite
def clearing_stacks(draw):
    """A stack of up to 4 substochastic instances on up to 8 nodes, with
    interventions on about half of the nodes."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices, totals, assets = zip(
        *(random_clearing_instance(rng, n) for _ in range(k))
    )
    z = rng.uniform(0.0, 2.0, (k, n)) * (rng.random((k, n)) < 0.5)
    return list(matrices), np.stack(totals), np.stack(assets), z


@settings(max_examples=60)
@given(clearing_stacks(), st.data())
def test_clearing_kernel_is_the_exact_greatest_fixed_point(stack, data):
    matrices, totals, assets, z = stack
    entries = np.stack([m.entries for m in matrices])
    cleared = clear_stack(entries, totals, assets + z)
    for i, matrix in enumerate(matrices):
        x = cleared[i]
        scale = 1e-12 * max(1.0, float(totals[i].max()))
        single = clear_fixed_point(matrix, totals[i], assets[i], z[i])
        assert np.array_equal(single, x)
        by_lp = clear_lp(matrix, totals[i], assets[i], z[i])
        assert np.abs(by_lp - x).max() <= 1e-9
        inflow = matrix.entries.T @ x + assets[i] + z[i]
        assert np.abs(np.minimum(totals[i], inflow) - x).max() <= scale
        # Picard descends from the totals and stops within its step bound
        by_picard, residuals = picard(matrix, totals[i], assets[i] + z[i])
        beta = matrix.max_connectivity
        assert (by_picard - x).min() >= -scale
        assert (by_picard - x).sum() <= beta / (1 - beta) * residuals[-1] + scale

    n = totals.shape[1]
    bump = data.draw(
        st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=n, max_size=n)
    )
    bump = np.array(bump)
    for more_assets, more_z in ((assets + bump, z), (assets, z + bump)):
        higher = clear_stack(entries, totals, more_assets + more_z)
        assert (higher - cleared).min() >= -1e-12 * max(1.0, float(totals.max()))

    bad = entries.copy()
    j = data.draw(st.integers(0, len(matrices) - 1))
    bad[j, 0] = 0.0
    bad[j, 0, -1] = 1.0  # node 0 owes everything to node n - 1
    with pytest.raises(ContractionError):
        clear_stack(bad, totals, assets + z)


def cold_clear_stack(entries, totals, assets):
    """Reference for :func:`clear_stack`: the fictitious-default loop
    started from ``x = P`` only, with no all-default start."""
    entries, totals, assets = (
        np.asarray(a, dtype=float) for a in (entries, totals, assets)
    )
    beta_max = float(entries.sum(axis=-1).max(initial=0.0))
    if beta_max >= 1.0 - dynclear.network.CONNECTIVITY_MARGIN:
        raise ContractionError(f"max connectivity {beta_max} is not < 1")
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


def counted(clear, *stack):
    """``(result or ContractionError, np.linalg.solve calls)`` of one
    clearing call."""
    calls = []
    solve = np.linalg.solve
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve",
                      lambda *args: calls.append(1) or solve(*args))
        try:
            return clear(*stack), len(calls)
        except ContractionError as exc:
            return exc, len(calls)


@st.composite
def regime_stacks(draw):
    """A stack of up to 4 instances on up to 40 nodes at one asset level or
    at mixed ones, from 0 (every node defaults) to 20 (most pay in full);
    or with assets scaled to just inside the all-default gate
    ``c + A^T c < P``, where the final default set is often partial.  Some
    nodes owe nothing, and now and then a row sum is 1."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    instances = [random_clearing_instance(rng, n) for _ in range(k)]
    entries = np.stack([matrix.entries for matrix, _, _ in instances])
    totals = np.stack([t for _, t, _ in instances])
    assets = rng.uniform(0.0, 1.0, (k, n))
    level = st.sampled_from((0.0, 0.5, 1.0, 2.0, 5.0, 20.0))
    regime = draw(st.sampled_from(("one level", "mixed levels", "near the gate")))
    if regime == "near the gate":
        inflow = (np.swapaxes(entries, -1, -2) @ assets[..., None])[..., 0] + assets
        assets *= (totals / inflow).min() * rng.uniform(0.5, 1.0)
    elif regime == "mixed levels":
        assets *= np.array(draw(st.lists(level, min_size=k, max_size=k)))[:, None]
    else:
        assets *= draw(level)
    owe_nothing = rng.random((k, n)) < draw(st.sampled_from((0.0, 0.2)))
    totals[owe_nothing] = 0.0
    entries[owe_nothing] = 0.0
    if n > 1 and draw(st.integers(0, 9)) == 0:
        entries[-1, 0] = 0.0
        entries[-1, 0, -1] = 1.0  # node 0 owes everything to node n - 1
    return entries, totals, assets


@settings(max_examples=300)
@given(regime_stacks())
def test_clear_stack_is_the_cold_start_bit_for_bit(stack):
    cold, cold_solves = counted(cold_clear_stack, *stack)
    warm, warm_solves = counted(clear_stack, *stack)
    if isinstance(cold, ContractionError):
        assert isinstance(warm, ContractionError)
    else:
        assert np.array_equal(warm, cold)
    assert warm_solves <= cold_solves + 1
    entries, totals, assets = stack
    if not np.all(np.swapaxes(entries, -1, -2) @ assets[..., None]
                  + assets[..., None] < totals[..., None]):
        assert warm_solves == cold_solves  # the gate fails: start from P


def test_an_all_default_round_clears_in_one_solve():
    state, matrix, assets = sbm_round(np.random.default_rng(3), 100, asset_level=0.0)
    stack = matrix.entries[None], state.totals[None], assets[None]
    cleared, solves = counted(clear_stack, *stack)
    cold, cold_solves = counted(cold_clear_stack, *stack)
    assert solves == 1 and cold_solves > 1
    assert np.array_equal(cleared, cold)
    inflow = matrix.entries.T @ cleared[0] + assets
    assert np.all(inflow < state.totals)  # every node is in default


def test_the_all_default_start_is_clipped_to_the_totals():
    # x_N = (1.5, 1.5) is above P = (1, 1.5): started from x_N itself, no
    # node would be short and the loop would return x_N
    entries = np.array([[[0.0, 0.9], [0.9, 0.0]]])
    stack = entries, np.array([[1.0, 1.5]]), np.full((1, 2), 0.15)
    cleared, solves = counted(clear_stack, *stack)
    assert solves == 2
    assert np.array_equal(cleared, cold_clear_stack(*stack))
    np.testing.assert_allclose(cleared, [[1.0, 1.05]], rtol=1e-15)


def test_no_solve_when_no_node_is_short_at_the_totals():
    # c + A^T c = 0.285 < P passes the gate, yet A^T P + c = 1.05 >= P
    mutual = np.array([[[0.0, 0.9], [0.9, 0.0]]])
    matrix, totals, _ = random_clearing_instance(np.random.default_rng(4), 6)
    for stack in (
        (mutual, np.ones((1, 2)), np.full((1, 2), 0.15)),
        (matrix.entries[None], totals[None], totals[None] + 1.0),
    ):
        cleared, solves = counted(clear_stack, *stack)
        assert solves == 0
        assert np.array_equal(cleared, stack[1])


def test_property_tests_run_under_the_derandomized_profile():
    # conftest loads one profile for every property test; a test's own
    # @settings(max_examples=...) inherits the rest of it
    assert settings.default.derandomize
    assert settings.default.database is None
    assert settings.default.deadline is None
    own = settings(max_examples=60)
    assert own.derandomize and own.database is None and own.deadline is None


def former_clear_stack(entries, totals, assets):
    """:func:`clear_stack` as it stood before its all-default trim, which
    formed ``eye - d * at`` with ``d`` all ones."""
    beta_max = float(entries.sum(axis=-1).max(initial=0.0))
    if beta_max >= 1.0 - 1e-12:
        raise ContractionError("not a contraction")
    at = np.swapaxes(entries, -1, -2)
    eye = np.eye(totals.shape[-1])

    def solve(d):
        return np.linalg.solve(
            eye - d[..., :, None] * at,
            (d * assets + (1.0 - d) * totals)[..., None],
        )[..., 0]

    warm = bool(((at @ assets[..., None])[..., 0] + assets < totals).all())
    x_all = None
    x = totals.copy()
    default = np.zeros(totals.shape, dtype=bool)
    while True:
        short = (at @ x[..., None])[..., 0] + assets < totals
        if not (short & ~default).any():
            return x
        if warm and x_all is None:
            x_all = solve(np.ones(totals.shape))
            x = np.minimum(totals, x_all)
            continue
        default |= short
        x = x_all if x_all is not None and default.all() else solve(
            default.astype(float))


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_the_all_default_start_keeps_the_former_bits(seed):
    # stacks inside the all-default gate c + A^T c < P, some with totals
    # just above it (a partial final default set), some with -0.0 assets
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    entries = rng.uniform(0.0, 1.0, (k, n, n)) * (rng.random((k, n, n)) < 0.6)
    entries *= (rng.uniform(0.0, 0.95, (k, n, 1))
                / np.maximum(entries.sum(axis=-1, keepdims=True), 1e-300))
    assets = rng.uniform(0.0, 1.0, (k, n)) * (rng.random((k, n)) < 0.7)
    assets[rng.random((k, n)) < 0.3] = -0.0
    floor = (np.swapaxes(entries, -1, -2) @ assets[..., None])[..., 0] + assets
    totals = floor * rng.uniform(1.01, 3.0, (k, n)) + rng.uniform(1e-3, 1.0)
    assert (floor < totals).all()  # the gate holds, so x_N is solved
    got = clear_stack(entries, totals, assets)
    want = former_clear_stack(entries, totals, assets)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
