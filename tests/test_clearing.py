import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import dynclear.clearing
import dynclear.fractional
from dynclear import (
    ContractionError,
    FairnessSpec,
    LinearProgram,
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
    solve_prefix_oneshot,
)
from dynclear.clearing import clear_stack

from conftest import hub_path, hub_shock, picard, random_clearing_instance

INF = float("inf")


def hub_round_one():
    state = advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1))
    return relative_matrix(state), state.totals, hub_shock(1).external_assets


def _hub_horizon(solve):
    path = hub_path(2)
    return solve(path, 1.0, 1.0, check_constant_proportions(path))


#: Every LP builder of the package, called on the hub instance.
BUILDERS = {
    "per_round_lp": lambda: per_round_lp(*hub_round_one(), budget=1.0, caps=1.0),
    "clear_lp": lambda: clear_lp(*hub_round_one()),
    "solve_horizon_primal": lambda: _hub_horizon(solve_horizon_primal),
    "solve_prefix_oneshot": lambda: _hub_horizon(solve_prefix_oneshot),
}


class TestSolveLp:
    def test_simple_maximum(self):
        lp = LinearProgram(
            objective=[1.0],
            constraints=((np.array([1.0]), "<=", 3.0),),
            variable_bounds=((0.0, INF),),
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(3.0)
        assert sol.primal[0] == pytest.approx(3.0)

    def test_infeasible(self):
        lp = LinearProgram(
            objective=[1.0],
            constraints=((np.array([1.0]), "<=", -1.0),),
            variable_bounds=((0.0, INF),),
        )
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(
            objective=[1.0], constraints=(), variable_bounds=((0.0, INF),)
        )
        assert solve_lp(lp).status == "unbounded"

    def test_hub_clearing_lp_with_support_reaches_five(self):
        matrix, totals, assets = hub_round_one()
        lp = clearing_lp_model(matrix, totals, assets, np.array([2.0, 0.0, 0.0]))
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(5.0, abs=1e-7)

    def test_equality_and_geq_rows_round_trip(self):
        # max 2x + y s.t. x + y = 1, y - x >= 0.2 -> x = 0.4, y = 0.6
        lp = LinearProgram(
            objective=[2.0, 1.0],
            constraints=(
                (np.array([1.0, 1.0]), "=", 1.0),
                (np.array([-1.0, 1.0]), ">=", 0.2),
            ),
            variable_bounds=((0.0, INF), (0.0, INF)),
        )
        sol = solve_lp(lp)
        np.testing.assert_allclose(sol.primal, [0.4, 0.6], atol=1e-8)

    def test_duals_satisfy_strong_duality_and_slackness(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            lp = LinearProgram(
                objective=rng.uniform(-1, 1, n),
                constraints=tuple(
                    (rng.uniform(-1, 1, n), "<=", float(rng.uniform(0.5, 2)))
                    for _ in range(m)
                ),
                variable_bounds=tuple((0.0, float(rng.uniform(1, 3))) for _ in range(n)),
            )
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            assert sol.dual_objective() == pytest.approx(
                sol.objective_value, abs=1e-6
            )
            for (coeffs, _, rhs), dual in zip(lp.constraints, sol.dual):
                slack = rhs - float(coeffs @ sol.primal)
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

    def test_highs_receives_sparse_rows_without_zeros(self, monkeypatch):
        from scipy.optimize._highspy import _core

        seen, options = {}, {}
        real = dynclear.clearing._highs

        def spy(*args):
            seen["args"] = args
            return real(*args)

        class Recording(_core._Highs):
            def setOptionValue(self, key, value):
                status = super().setOptionValue(key, value)
                assert status == _core.HighsStatus.kOk, (key, value)
                options[key] = value
                return status

        monkeypatch.setattr(dynclear.clearing, "_highs", spy)
        monkeypatch.setattr(_core, "_Highs", Recording)
        # max 2x + y + z s.t. x + y <= 1.5, y - x >= 0.2, x + z = 1
        lp = LinearProgram(
            objective=[2.0, 1.0, 1.0],
            constraints=(
                (np.array([1.0, 1.0, 0.0]), "<=", 1.5),
                (np.array([-1.0, 1.0, 0.0]), ">=", 0.2),
                (np.array([1.0, 0.0, 1.0]), "=", 1.0),
            ),
            variable_bounds=((0.0, INF), (0.0, INF), (0.0, INF)),
        )
        sol = solve_lp(lp)
        cost, start, index, value, row_lower, row_upper, lo, hi = seen["args"]
        assert np.all(value != 0)
        np.testing.assert_array_equal(
            scipy.sparse.csc_array((value, index, start), shape=(3, 3)).toarray(),
            [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, 1.0]],
        )
        np.testing.assert_array_equal(row_upper, [1.5, -0.2, 1.0])
        np.testing.assert_array_equal(row_lower, [-INF, -INF, 1.0])
        np.testing.assert_array_equal(cost, [-2.0, -1.0, -1.0])
        assert options == {
            "output_flag": False, "presolve": "off",
            "dual_feasibility_tolerance": 1e-9, "simplex_strategy": 4,
        }
        np.testing.assert_allclose(sol.primal, [0.65, 0.85, 0.35], atol=1e-8)
        assert sol.dual_objective() == pytest.approx(sol.objective_value, abs=1e-9)
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
        infeasible = LinearProgram(
            objective=[1.0],
            constraints=((np.array([1.0]), "<=", -1.0),),
            variable_bounds=((0.0, INF),),
        )
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
                FairnessSpec(kind="standard", budget=g),
                FairnessSpec(kind="spatial", budget=g),
                FairnessSpec(kind="property", budget=g, q=rng.random(n)),
            ]
            for spec in specs:
                per_round_lp(matrix, state.totals, shock.external_assets,
                             budget, caps, fairness=spec)
                lp, sol = solved[-1]
                assert all(rel == "<=" for _, rel, _ in lp.constraints)
                reference = linprog(
                    -lp.objective,
                    A_ub=np.array([row for row, _, _ in lp.constraints]),
                    b_ub=[rhs for _, _, rhs in lp.constraints],
                    bounds=lp.variable_bounds,
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
            per_round_lp(matrix, totals, assets, budget=1.0, caps=1.0)

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_every_builder_quotes_the_backend_message(self, monkeypatch, builder):
        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(dynclear.clearing, "_highs", broken)
        with pytest.raises(SolverError, match="status failed: ValueError: boom"):
            BUILDERS[builder]()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            LinearProgram(
                objective=[1.0, 1.0],
                constraints=((np.array([1.0]), "<=", 1.0),),
                variable_bounds=((0.0, 1.0), (0.0, 1.0)),
            )
        with pytest.raises(ValidationError):
            LinearProgram(
                objective=[1.0],
                constraints=(),
                variable_bounds=((1.0, 0.0),),
            )


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
            assert np.abs(by_iteration - by_lp).max() <= 1e-6

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


def test_property_tests_run_under_the_derandomized_profile():
    # conftest loads one profile for every property test; a test's own
    # @settings(max_examples=...) inherits the rest of it
    assert settings.default.derandomize
    assert settings.default.database is None
    assert settings.default.deadline is None
    own = settings(max_examples=60)
    assert own.derandomize and own.database is None and own.deadline is None
