import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynclear.clearing
from dynclear import (
    RelativeLiabilityMatrix,
    SamplePath,
    ShockRealization,
    SolverError,
    SystemState,
    ValidationError,
    ValueEstimate,
    advance_state,
    aggregate_value,
    per_round_lp,
    relative_matrix,
    required_samples,
    substream,
    value_given_sample_path,
)
from dynclear.clearing import solve_optimal
from dynclear.environments import EnvironmentModel, SbmEnvironment, SbmParams
from dynclear.fractional import (
    _allocation_lp,
    _knapsack_round,
    broadcast_caps,
    ordered_map,
    sample_paths,
    sampled_runs,
    stderr,
)

from conftest import (
    hub_path,
    hub_shock,
    random_general_path,
    refused_hub_round,
    sbm_round,
)


def hub_round_one():
    state = advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1))
    return relative_matrix(state), state.totals, hub_shock(1).external_assets


class TestPerRoundLp:
    def test_hub_budget_two_saves_everyone(self):
        matrix, totals, assets = hub_round_one()
        step = per_round_lp(matrix, totals, assets, budget=2.0, caps=2.0)
        assert step.reward == pytest.approx(5.0, abs=1e-7)
        np.testing.assert_allclose(step.intervention.amounts, [2.0, 0.0, 0.0], atol=1e-7)
        np.testing.assert_allclose(step.clearing, [3.0, 1.0, 1.0], atol=1e-7)

    def test_zero_budget_reduces_to_clearing(self):
        matrix, totals, assets = hub_round_one()
        step = per_round_lp(matrix, totals, assets, budget=0.0, caps=0.0)
        assert step.reward == pytest.approx(5 / 3, abs=1e-7)

    def test_solvent_network_reward_is_total_liabilities(self):
        matrix, totals, _ = hub_round_one()
        rich = np.array([5.0, 5.0, 5.0])
        for budget in (0.0, 3.0):
            step = per_round_lp(matrix, totals, rich, budget=budget, caps=budget)
            assert step.reward == pytest.approx(float(totals.sum()), abs=1e-7)

    def test_reward_matches_clearing_sum(self):
        matrix, totals, assets = hub_round_one()
        step = per_round_lp(matrix, totals, assets, budget=1.0, caps=1.0)
        assert step.reward == pytest.approx(float(step.clearing.sum()), abs=1e-9)


class TestRepairBound:
    """The clip of P and Z into their bounds and the budget rescale are
    solver-noise repairs, bounded by ``LP_REPAIR_TOL``."""

    def perturbed(self, monkeypatch, edit):
        real = dynclear.clearing.solve_lp

        def fake(lp):
            sol = real(lp)
            primal = sol.primal.copy()
            edit(primal)
            return dataclasses.replace(sol, primal=primal)

        monkeypatch.setattr(dynclear.clearing, "solve_lp", fake)
        matrix, totals, assets = refused_hub_round()
        return per_round_lp(matrix, totals, assets, budget=2.0, caps=2.0)

    def test_clearing_above_totals_raises(self, monkeypatch):
        with pytest.raises(SolverError):
            self.perturbed(monkeypatch, lambda x: x.__setitem__(0, x[0] + 1e-3))

    def test_negative_intervention_raises(self, monkeypatch):
        with pytest.raises(SolverError):
            self.perturbed(monkeypatch, lambda x: x.__setitem__(4, -1e-3))

    def test_budget_overrun_raises(self, monkeypatch):
        with pytest.raises(SolverError):
            self.perturbed(monkeypatch, lambda x: x.__setitem__(4, 1e-3))

    def test_nan_primal_raises(self, monkeypatch):
        with pytest.raises(SolverError):
            self.perturbed(monkeypatch, lambda x: x.__setitem__(1, np.nan))

    def test_noise_within_tolerance_is_repaired(self, monkeypatch):
        def edit(x):
            x[0] += 1e-9  # clearing of node 0 sits at its total of 3
            x[4] = 1e-9   # budget already spent on node 0

        step = self.perturbed(monkeypatch, edit)
        np.testing.assert_array_equal(step.clearing, [3.0, 1.0, 1.0])
        assert step.intervention.amounts.sum() <= 2.0


def chain_round(creditor: bool = False):
    """``(matrix, totals, assets)`` of four nodes in a chain, each owing half
    its total of 10 to the next (the last owes it outside) and holding one
    unit: every node defaults, with ``v = (1.875, 1.75, 1.5, 1)``.  With
    ``creditor`` the last node owes that half to a fifth node instead, which
    holds 100 and so stays solvent whatever the intervention."""
    n = 5 if creditor else 4
    entries = np.zeros((n, n))
    entries[np.arange(n - 1), np.arange(1, n)] = 0.5
    assets = np.ones(n)
    if creditor:
        assets[4] = 100.0
    return RelativeLiabilityMatrix.from_entries(entries), np.full(n, 10.0), assets


def non_contracting_round():
    """Node 0 owes everything to node 1: a row sum of 1, which the clearing
    kernel refuses and the LP does not mind."""
    matrix = RelativeLiabilityMatrix.from_entries([[0.0, 1.0], [0.0, 0.0]])
    return matrix, np.ones(2), np.zeros(2)


def optimum(matrix, totals, assets, budget, caps) -> float:
    """HiGHS's optimal value of the fairness-free per-round LP."""
    lp = _allocation_lp(matrix, totals, assets, budget, broadcast_caps(caps, matrix.n))
    return solve_optimal(lp, "reference LP").objective_value


@st.composite
def sbm_rounds(draw):
    """``(matrix, totals, assets, caps)`` of a random SBM round: 2 to 40
    nodes, asset level 0 to 5, scalar or per-node caps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    state, matrix, assets = sbm_round(rng, n, rounds=draw(st.integers(1, 2)),
                                      asset_level=draw(st.floats(0.0, 5.0)))
    caps = (rng.uniform(0.0, 3.0, n) if draw(st.booleans())
            else float(rng.uniform(0.0, 3.0)))
    return matrix, state.totals, assets, caps


class TestKnapsackRoute:
    """The fairness-free round solved as a knapsack on the default set,
    returned only under an LP duality certificate."""

    @pytest.mark.parametrize("instance, lp_calls", [
        (chain_round, 0),
        (lambda: chain_round(creditor=True), 0),
        (refused_hub_round, 1),
        (non_contracting_round, 1),
    ], ids=["all-default", "solvent-creditor", "budget-makes-a-node-solvent",
            "non-contracting"])
    def test_solve_lp_runs_only_when_the_certificate_fails(
            self, monkeypatch, instance, lp_calls):
        calls = []
        real = dynclear.clearing.solve_lp
        monkeypatch.setattr(dynclear.clearing, "solve_lp",
                            lambda lp: calls.append(lp) or real(lp))
        step = per_round_lp(*instance(), budget=1.5, caps=1.0)
        assert len(calls) == lp_calls
        assert step.reward == pytest.approx(optimum(*instance(), 1.5, 1.0), rel=1e-9)

    def test_the_budget_fills_caps_in_order_of_centrality(self):
        # v = (1.875, 1.75, 1.5, 1): node 0 takes its cap, node 1 the rest,
        # on top of the zero-intervention payments (1, 1.5, 1.75, 1.875)
        step = per_round_lp(*chain_round(), budget=1.5, caps=1.0)
        np.testing.assert_array_equal(step.intervention.amounts, [1.0, 0.5, 0.0, 0.0])
        assert step.reward == pytest.approx(6.125 + 1.0 * 1.875 + 0.5 * 1.75)

    @settings(max_examples=80)
    @given(sbm_rounds(), st.floats(0.0, 1.2))
    def test_a_certified_round_is_optimal(self, instance, share):
        matrix, totals, assets, caps = instance
        caps = broadcast_caps(caps, matrix.n)
        budget = share * float(caps.sum())
        certified = _knapsack_round(matrix, totals, assets, budget, caps)
        if budget == 0.0:  # zero_input rounds never need an LP
            assert certified is not None
        if certified is not None:
            clearing, z = certified
            best = optimum(matrix, totals, assets, budget, caps)
            assert clearing.sum() == pytest.approx(best, rel=1e-9)
            step = per_round_lp(matrix, totals, assets, budget, caps)
            assert step.reward == pytest.approx(best, rel=1e-9)
            amounts = step.intervention.amounts
            assert np.all((0.0 <= amounts) & (amounts <= caps))
            assert amounts.sum() <= budget

    @settings(max_examples=40)
    @given(sbm_rounds())
    def test_reward_is_nondecreasing_in_the_budget(self, instance):
        # from B = 0 (always certified) past the sum of the caps, where the
        # budget turns defaulting nodes solvent and HiGHS takes over
        matrix, totals, assets, caps = instance
        top = 1.5 * float(broadcast_caps(caps, matrix.n).sum())
        rewards = [per_round_lp(matrix, totals, assets, b, caps).reward
                   for b in np.linspace(0.0, top, 9)]
        for low, high in zip(rewards, rewards[1:]):
            assert high >= low - 1e-9


class TestValueGivenSamplePath:
    def test_hub_two_rounds_budget_two(self):
        value, steps = value_given_sample_path(
            SystemState.empty(3), hub_path(2), 2.0, 2.0
        )
        assert value == pytest.approx(10.0, abs=1e-6)
        assert [s.reward for s in steps] == pytest.approx([5.0, 5.0], abs=1e-6)

    def test_hub_two_rounds_zero_budget(self):
        value, steps = value_given_sample_path(
            SystemState.empty(3), hub_path(2), 0.0, 0.0
        )
        assert value == pytest.approx(10 / 3, abs=1e-6)
        assert steps[0].round == 1 and steps[1].round == 2

    def test_single_round_no_internal_liabilities_no_assets(self):
        quiet = ShockRealization(
            round=1,
            external_liabilities=np.full(3, 1e-6),
            external_assets=np.zeros(3),
            internal_liabilities=np.zeros((3, 3)),
        )
        value, _ = value_given_sample_path(
            SystemState.empty(3), SamplePath(shocks=(quiet,)), 0.0, 0.0
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_value_bounded_by_horizon_mass(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            path = random_general_path(rng, n, 3)
            budget = float(rng.uniform(0, 3))
            value, _ = value_given_sample_path(
                SystemState.empty(n), path, budget, budget
            )
            bound = len(path) * path.shock_norm_bound()
            assert -1e-9 <= value <= bound + 1e-6

    def test_value_nondecreasing_in_budget(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            path = random_general_path(rng, n, 3)
            values = [
                value_given_sample_path(SystemState.empty(n), path, b, b)[0]
                for b in (0.0, 0.5, 1.0, 2.0, 4.0)
            ]
            for low, high in zip(values, values[1:]):
                assert high >= low - 1e-6


class _HotColdMixture(EnvironmentModel):
    """Whole-path Bernoulli mixture: the hub path or a near-empty economy."""

    kind = "mixture"
    n = 3
    horizon = 2

    def __init__(self):
        quiet = tuple(
            ShockRealization(
                round=t,
                external_liabilities=np.full(3, 1e-6),
                external_assets=np.zeros(3),
                internal_liabilities=np.zeros((3, 3)),
            )
            for t in (1, 2)
        )
        self.hot = hub_path(2)
        self.cold = SamplePath(shocks=quiet)

    def sample_path(self, from_round, to_round, rng):
        return self.hot if rng.random() < 0.5 else self.cold

    def shock_norm_bound(self):
        return 5.0


class TestAggregateValue:
    def test_replay_is_zero_variance(self, hub_env):
        estimate = aggregate_value(hub_env, SystemState.empty(3), 6, 2.0, 2.0, seed=3)
        assert estimate.mean == pytest.approx(10.0, abs=1e-6)
        assert estimate.stderr == 0.0
        assert len(set(estimate.values)) == 1

    def test_mixture_concentrates_on_its_mean(self):
        env = _HotColdMixture()
        estimate = aggregate_value(env, SystemState.empty(3), 10_000, 0.0, 0.0, seed=1)
        # closed form: half the paths pay 10/3, half pay nothing
        assert abs(estimate.mean - 5 / 3) <= 3 * max(estimate.stderr, 1e-12)

    def test_seed_determines_everything(self, hub_env):
        env = _HotColdMixture()
        a = aggregate_value(env, SystemState.empty(3), 200, 0.0, 0.0, seed=9)
        b = aggregate_value(env, SystemState.empty(3), 200, 0.0, 0.0, seed=9)
        assert a.values == b.values

    def test_thread_count_does_not_change_results(self):
        env = _HotColdMixture()
        serial = aggregate_value(env, SystemState.empty(3), 50, 0.0, 0.0, seed=4)
        threaded = aggregate_value(
            env, SystemState.empty(3), 50, 0.0, 0.0, seed=4, threads=4
        )
        assert serial.values == threaded.values

    def test_substreams_independent_of_enumeration_order(self):
        draws_forward = [substream(7, i).random() for i in range(5)]
        draws_reverse = [substream(7, i).random() for i in reversed(range(5))]
        assert draws_forward == list(reversed(draws_reverse))


class TestSamplePaths:
    ENV = SbmEnvironment(
        params=SbmParams(n_core=2, n_periphery=3,
                         block_probs=np.array([[0.9, 0.5], [0.5, 0.1]])),
        horizon=4,
    )

    @pytest.mark.parametrize("seed, horizon", [(0, None), (13, 2), (2**40, 4)])
    def test_sample_i_draws_its_path_on_substream_i(self, seed, horizon):
        rngs, paths = sample_paths(self.ENV, 6, seed, horizon)
        last = self.ENV.horizon if horizon is None else horizon
        for i, (rng, path) in enumerate(zip(rngs, paths)):
            fresh = substream(seed, i)
            expected = self.ENV.sample_path(1, last, fresh)
            assert len(path) == last
            for got, want in zip(path, expected):
                assert got.round == want.round
                np.testing.assert_array_equal(
                    got.internal_liabilities, want.internal_liabilities
                )
                np.testing.assert_array_equal(
                    got.external_liabilities, want.external_liabilities
                )
                np.testing.assert_array_equal(
                    got.external_assets, want.external_assets
                )
            # the stream is handed back where the path draw left it
            assert rng.random() == fresh.random()

    def test_needs_a_sample(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            sample_paths(self.ENV, 0, 1)


class TestOrderedMap:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_results_keep_item_order(self, threads):
        assert ordered_map(lambda x: x * x, range(20), threads) == [
            x * x for x in range(20)
        ]


class TestStderr:
    def test_matches_the_estimate_property(self):
        values = (1.0, 4.0, 2.5, 7.0)
        estimate = ValueEstimate(
            mean=float(np.mean(values)), values=values, sample_count=4,
            horizon_len=1,
        )
        assert stderr(values) == estimate.stderr
        assert stderr(values) == pytest.approx(np.std(values, ddof=1) / 2.0)

    def test_fewer_than_two_values_give_zero(self):
        assert stderr([]) == 0.0 and stderr([3.0]) == 0.0


class TestRequiredSamples:
    def test_direct_substitution(self):
        # log(2/delta) = 2, horizon 1, bound 1, accuracy 0.1
        delta = 2.0 / np.exp(2.0)
        assert required_samples(delta, 0.1, 1, 1.0) == 100

    def test_floor_at_one_sample(self):
        assert required_samples(0.5, 1e9, 1, 1.0) == 1

    def test_horizon_doubling_quadruples(self):
        delta = 2.0 / np.exp(2.0)
        assert required_samples(delta, 0.1, 2, 1.0) == 400

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            required_samples(1.5, 0.1, 1, 1.0)
        with pytest.raises(ValidationError):
            required_samples(0.1, -1.0, 1, 1.0)


def test_sampled_runs_reuses_identical_paths(hub_env):
    runs = sampled_runs(hub_env, SystemState.empty(3), 4, 2.0, 2.0, seed=0)
    values = [v for _, v, _ in runs]
    assert values == [values[0]] * 4
    first_steps = runs[0][2]
    assert runs[1][2] is first_steps  # memoized solve, not recomputed
