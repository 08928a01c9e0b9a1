import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from dynclear import (
    FairnessBudget,
    FairnessSpec,
    FairnessWeights,
    SamplePath,
    ShockRealization,
    SystemState,
    ValidationError,
    advance_state,
    fairness_constraint_block,
    gini_coefficient,
    per_round_lp,
    price_of_fairness,
    property_weights,
    relative_matrix,
    spatial_weights,
    standard_weights,
    value_given_sample_path,
)

from conftest import hub_path, hub_shock, random_general_path


def hub_matrix():
    state = advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1))
    return relative_matrix(state), state


class TestWeights:
    def test_standard_weights_are_all_pairs(self):
        w = standard_weights(3)
        assert len(w.edges) == 6
        np.testing.assert_allclose(np.diag(w.weights), 0.0)
        np.testing.assert_allclose(w.node_mass(), 4.0)

    def test_spatial_weights_follow_liability_shares(self):
        matrix, _ = hub_matrix()
        w = spatial_weights(matrix)
        assert w.edges == [(0, 1), (0, 2)]
        assert w.weights[0, 1] == pytest.approx(1 / 3)

    def test_property_weights_masked_and_not(self):
        matrix, _ = hub_matrix()
        q = [0.9, 0.1, 0.9]
        masked = property_weights(q, matrix, masked=True)
        assert masked.weights[0, 1] == pytest.approx(0.8)
        assert masked.weights[1, 0] == 0.0  # no liability edge 1 -> 0
        unmasked = property_weights(q, masked=False)
        assert unmasked.weights[1, 0] == pytest.approx(0.8)
        assert unmasked.weights[0, 2] == 0.0  # equal attribute

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError):
            FairnessWeights(kind="standard", weights=[[0.0, -1.0], [0.0, 0.0]])

    def test_budget_range(self):
        with pytest.raises(ValidationError):
            FairnessBudget(1.5)


class TestGiniCoefficient:
    def test_equal_allocations_score_zero(self):
        w = standard_weights(4)
        assert gini_coefficient(np.full(4, 2.5), w) == 0.0

    def test_single_holder_scores_one(self):
        for n in (2, 3, 5):
            w = standard_weights(n)
            z = np.zeros(n)
            z[0] = 7.0
            assert gini_coefficient(z, w) == pytest.approx(1.0)

    def test_two_node_hand_value(self):
        assert gini_coefficient([2.0, 1.0], standard_weights(2)) == pytest.approx(1 / 3)

    def test_zero_over_zero_is_zero(self):
        assert gini_coefficient(np.zeros(3), standard_weights(3)) == 0.0
        no_edges = FairnessWeights(kind="spatial", weights=np.zeros((3, 3)))
        assert gini_coefficient([1.0, 2.0, 3.0], no_edges) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            z = rng.uniform(0, 3, n)
            w = standard_weights(n)
            base = gini_coefficient(z, w)
            for alpha in (0.25, 2.0, 117.0):
                assert gini_coefficient(alpha * z, w) == pytest.approx(base, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            z = rng.uniform(0, 3, n)
            value = gini_coefficient(z, standard_weights(n))
            assert -1e-12 <= value <= 1.0 + 1e-12


class TestConstraintBlock:
    def test_block_shape(self):
        matrix, _ = hub_matrix()
        w = spatial_weights(matrix)
        block = fairness_constraint_block(w, 0.5)
        assert block.z_rows.shape == (2 + 1, 3)
        assert block.slack_rows.shape == (3, 2)
        np.testing.assert_allclose(block.rhs, 0.0)

    def test_symmetric_pairs_share_one_slack(self):
        for n in range(2, 7):
            block = fairness_constraint_block(standard_weights(n), 0.5)
            e = n * (n - 1) // 2
            assert block.n_slacks == e
            assert block.z_rows.shape == (e + 1, n)
            assert block.slack_rows.shape == (e + 1, e)
            assert all(i < j for i, j in block.edges)

    def test_cap_row_weights_are_pair_sums(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            w = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.5)
            np.fill_diagonal(w, 0.0)
            weights = FairnessWeights(kind="spatial", weights=w)
            block = fairness_constraint_block(weights, 0.3)
            pairs = {
                (i, j) for i in range(n) for j in range(i + 1, n)
                if w[i, j] + w[j, i] > 0
            }
            assert set(block.edges) == pairs
            cap_z = -0.3 * weights.node_mass()
            for k, (i, j) in enumerate(block.edges):
                assert block.slack_rows[-1, k] == 2 * (w[i, j] + w[j, i])
                # pair row k: Z_i - Z_j - varpi_k <= 0
                assert block.z_rows[k, i] == 1.0 and block.z_rows[k, j] == -1.0
                assert np.count_nonzero(block.z_rows[k]) == 2
                assert block.slack_rows[k, k] == -1.0
                assert np.count_nonzero(block.slack_rows[k]) == 1
                cap_z[i] -= w[i, j] + w[j, i]
                cap_z[j] += w[i, j] + w[j, i]
            np.testing.assert_allclose(block.z_rows[-1], cap_z, rtol=0, atol=1e-12)

    def test_cap_row_at_the_tight_slacks_is_the_weighted_gap(self):
        # |d| = 2 max(0, d) - d: at varpi = max(0, Z_i - Z_j) the cap row
        # reads sum_{i<j} (w_ij + w_ji) |Z_i - Z_j| - g s^T Z
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            w = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.6)
            np.fill_diagonal(w, 0.0)
            weights = FairnessWeights(kind="spatial", weights=w)
            g = float(rng.uniform(0, 1))
            block = fairness_constraint_block(weights, g)
            z = rng.uniform(0, 3, n)
            ii, jj = np.array(block.edges, dtype=int).reshape(-1, 2).T
            varpi = np.maximum(0.0, z[ii] - z[jj])
            cap = block.z_rows[-1] @ z + block.slack_rows[-1] @ varpi
            gap = float(np.sum(w * np.abs(z[:, None] - z[None, :])))
            assert cap == pytest.approx(
                gap - g * weights.node_mass() @ z, rel=0, abs=1e-12
            )
            # and the pair rows hold with equality or slack at varpi
            pair = block.z_rows[:-1] @ z + block.slack_rows[:-1] @ varpi
            assert pair.max(initial=0.0) <= 1e-12

    def test_unit_cap_never_binds(self):
        spec = FairnessSpec(kind="standard", budget=FairnessBudget(1.0))
        value, _ = value_given_sample_path(
            SystemState.empty(3), hub_path(2), 2.0, 2.0, fairness=spec
        )
        assert value == pytest.approx(10.0, abs=1e-6)

    def test_zero_cap_forces_equal_allocations(self):
        matrix, state = hub_matrix()
        spec = FairnessSpec(kind="standard", budget=FairnessBudget(0.0))
        step = per_round_lp(
            matrix, state.totals, hub_shock(1).external_assets, 2.0, 2.0,
            fairness=spec,
        )
        z = step.intervention.amounts
        assert np.ptp(z) <= 1e-7

    def test_intermediate_cap_stays_feasible(self):
        matrix, state = hub_matrix()
        spec = FairnessSpec(kind="spatial", budget=FairnessBudget(0.5))
        step = per_round_lp(
            matrix, state.totals, hub_shock(1).external_assets, 2.0, 2.0,
            fairness=spec,
        )
        assert step.gini is not None

    def test_realized_inequality_respects_the_cap(self):
        rng = np.random.default_rng(30)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            path = random_general_path(rng, n, 1)
            g = float(rng.choice([0.2, 0.5, 0.8]))
            kind = str(rng.choice(["standard", "spatial"]))
            spec = FairnessSpec(kind=kind, budget=FairnessBudget(g))
            _, steps = value_given_sample_path(
                SystemState.empty(n), path, float(rng.integers(1, 4)),
                float(rng.integers(1, 4)), fairness=spec,
            )
            assert steps[0].gini <= g + 1e-6

    def test_per_round_reward_never_improves_under_extra_rows(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            path = random_general_path(rng, n, 1)
            state = advance_state(SystemState.empty(n), np.zeros(n), path.shocks[0])
            matrix = relative_matrix(state)
            free = per_round_lp(
                matrix, state.totals, path.shocks[0].external_assets, 2.0, 2.0
            )
            fair = per_round_lp(
                matrix, state.totals, path.shocks[0].external_assets, 2.0, 2.0,
                fairness=FairnessSpec(kind="standard", budget=FairnessBudget(0.3)),
            )
            assert fair.reward <= free.reward + 1e-7


class TestPriceOfFairness:
    def test_identical_runs_score_one(self):
        assert price_of_fairness(5.0, 5.0) == pytest.approx(1.0)

    def test_zero_constrained_value_is_the_sentinel(self):
        assert price_of_fairness(3.0, 0.0) == float("inf")
        assert price_of_fairness(0.0, 0.0) == 1.0

    def test_strictly_positive_price_when_equality_hurts(self):
        # node 0 owes 1 inside and 1 outside with no assets; node 1 owes 1
        # outside and already holds enough.  Only an unequal allocation saves
        # node 0, so forcing equal support costs welfare.
        shock = ShockRealization(
            round=1,
            external_liabilities=[1.0, 1.0],
            external_assets=[0.0, 1.0],
            internal_liabilities=[[0.0, 1.0], [0.0, 0.0]],
        )
        path = SamplePath(shocks=(shock,))
        start = SystemState.empty(2)
        v_free, _ = value_given_sample_path(start, path, 2.0, 2.0)
        spec = FairnessSpec(kind="standard", budget=FairnessBudget(0.0))
        v_fair, _ = value_given_sample_path(start, path, 2.0, 2.0, fairness=spec)
        pof = price_of_fairness(v_free, v_fair)
        assert pof > 1.0 + 1e-6
        assert v_free == pytest.approx(3.0, abs=1e-6)
        assert v_fair == pytest.approx(2.0, abs=1e-6)

    def test_single_round_dominance_gives_pof_at_least_one(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            path = random_general_path(rng, n, 1)
            start = SystemState.empty(n)
            v_free, _ = value_given_sample_path(start, path, 2.0, 2.0)
            spec = FairnessSpec(kind="standard", budget=FairnessBudget(0.4))
            v_fair, _ = value_given_sample_path(start, path, 2.0, 2.0, fairness=spec)
            assert price_of_fairness(v_free, v_fair) >= 1.0 - 1e-9


def ordered_edge_reference(matrix, totals, assets, budget, caps, weights, g):
    """Optimal payments of the per-round LP with one slack per ordered edge
    and weight ``w_ij`` in the cap row, solved through scipy's dense route."""
    n = matrix.n
    edges = weights.edges
    e = len(edges)
    dim = 2 * n + e
    rows = [np.concatenate([np.eye(n) - matrix.entries.T, -np.eye(n),
                            np.zeros((n, e))], axis=1)]
    rhs = [assets]
    budget_row = np.zeros((1, dim))
    budget_row[0, n : 2 * n] = 1.0
    rows.append(budget_row)
    rhs.append([budget])
    sandwich = np.zeros((2 * e + 1, dim))
    for k, (i, j) in enumerate(edges):
        sandwich[2 * k, [n + i, n + j, 2 * n + k]] = [1.0, -1.0, -1.0]
        sandwich[2 * k + 1, [n + i, n + j, 2 * n + k]] = [-1.0, 1.0, -1.0]
        sandwich[-1, 2 * n + k] = weights.weights[i, j]
    sandwich[-1, n : 2 * n] = -g * weights.node_mass()
    rows.append(sandwich)
    rhs.append(np.zeros(2 * e + 1))
    c = np.zeros(dim)
    c[:n] = -1.0
    bounds = (
        [(0.0, float(p)) for p in totals]
        + [(0.0, float(cap)) for cap in caps]
        + [(0.0, None)] * e
    )
    res = linprog(c, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                  bounds=bounds, method="highs")
    assert res.status == 0
    return -res.fun


class TestMergedBlockEquivalence:
    def random_round(self, rng, n):
        shock = random_general_path(rng, n, 1).shocks[0]
        state = advance_state(SystemState.empty(n), np.zeros(n), shock)
        return relative_matrix(state), state.totals, shock.external_assets

    @pytest.mark.parametrize("g", [0.0, 0.3, 0.5, 1.0])
    def test_per_round_lp_matches_ordered_edge_lp(self, g):
        rng = np.random.default_rng(int(g * 10) + 100)
        specs = (
            ("standard", None, True),
            ("spatial", None, True),
            ("property", "q", True),
            ("property", "q", False),
        )
        for _ in range(6):
            for kind, q, masked in specs:
                n = int(rng.integers(2, 7))
                matrix, totals, assets = self.random_round(rng, n)
                budget = float(rng.uniform(0.5, 3.0))
                caps = rng.uniform(0.2, 2.0, n)
                spec = FairnessSpec(
                    kind=kind, budget=FairnessBudget(g),
                    q=None if q is None else rng.uniform(0, 1, n),
                    masked=masked,
                )
                step = per_round_lp(matrix, totals, assets, budget, caps,
                                    fairness=spec)
                expected = ordered_edge_reference(
                    matrix, totals, assets, budget, caps,
                    spec.weights_for(matrix), g,
                )
                assert step.reward == pytest.approx(expected, abs=1e-7)
                assert step.gini <= g + 1e-7


@st.composite
def fairness_rounds(draw):
    """One random round on up to 6 nodes with a fairness spec of any kind
    and a cap ``g`` in [0, 1], both ends drawn on purpose."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shock = random_general_path(rng, n, 1).shocks[0]
    state = advance_state(SystemState.empty(n), np.zeros(n), shock)
    g = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, allow_subnormal=False))
    kind = draw(st.sampled_from(["standard", "spatial", "property"]))
    spec = FairnessSpec(
        kind=kind, budget=FairnessBudget(g),
        q=rng.uniform(0, 1, n) if kind == "property" else None,
        masked=draw(st.booleans()),
    )
    budget = float(rng.uniform(0.5, 3.0))
    caps = rng.uniform(0.2, 2.0, n)
    return relative_matrix(state), state.totals, shock.external_assets, budget, caps, spec


@settings(max_examples=80)
@given(fairness_rounds())
def test_fairness_lp_is_exact_and_respects_the_cap(instance):
    matrix, totals, assets, budget, caps, spec = instance
    step = per_round_lp(matrix, totals, assets, budget, caps, fairness=spec)
    expected = ordered_edge_reference(
        matrix, totals, assets, budget, caps, spec.weights_for(matrix), spec.g
    )
    assert step.reward == pytest.approx(expected, abs=1e-7)
    assert step.gini <= spec.g + 1e-6
