import dataclasses

import numpy as np
import pytest

import dynclear.fractional
from dynclear import (
    SamplePath,
    ShockRealization,
    SolverError,
    SystemState,
    ValidationError,
    advance_state,
    aggregate_value,
    per_round_lp,
    relative_matrix,
    required_samples,
    substream,
    value_given_sample_path,
)
from dynclear.environments import EnvironmentModel
from dynclear.fractional import sampled_runs

from conftest import hub_path, hub_shock, random_general_path


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
        real = dynclear.fractional.solve_lp

        def fake(lp):
            sol = real(lp)
            primal = sol.primal.copy()
            edit(primal)
            return dataclasses.replace(sol, primal=primal)

        monkeypatch.setattr(dynclear.fractional, "solve_lp", fake)
        matrix, totals, assets = hub_round_one()
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
