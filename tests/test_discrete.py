import dataclasses
import hashlib
import os

import numpy as np
import pytest

from dynclear import (
    ContractionError,
    EnumerationLimitError,
    RelativeLiabilityMatrix,
    SystemState,
    ValidationError,
    aggregate_discrete,
    approximation_bound,
    brute_force_discrete,
    discretize_payments,
    enumerate_actions,
    sample_interventions,
    simulate_action_batch,
    simulate_discrete_policy,
    value_given_sample_path,
)
from dynclear import discrete, load_config, run_experiment
from dynclear.clearing import clear_stack
from dynclear.network import relative_entries

from conftest import (
    deep_constant_proportion_path,
    hub_path,
    random_general_path,
)


class TestSampleInterventions:
    def test_integral_optimum_rounds_deterministically(self):
        rng = np.random.default_rng(0)
        actions, attempts = sample_interventions(
            [np.array([1.0, 0.0, 0.0])], caps=np.ones(3), budget=1.0, rng=rng
        )
        assert attempts == 1
        np.testing.assert_array_equal(actions[0].amounts, [1, 0, 0])
        assert actions[0].feasible

    def test_half_probability_rounds_like_a_coin(self):
        rng = np.random.default_rng(12)
        draws = rng.binomial(1, 0.5, size=100_000)
        # the rounding law for z*=0.5, L=1 is exactly this coin
        hits = 0
        rng = np.random.default_rng(12)
        for _ in range(2_000):
            actions, _ = sample_interventions(
                [np.array([0.5])], caps=np.array([1.0]), budget=5.0, tau=1, rng=rng
            )
            hits += int(actions[0].amounts[0])
        assert abs(hits / 2_000 - 0.5) <= 0.05
        assert abs(draws.mean() - 0.5) <= 0.005

    def test_unbiasedness_per_coordinate(self):
        rng = np.random.default_rng(99)
        target = np.array([0.7, 1.3, 0.2])
        caps = np.array([1.0, 2.0, 2.0])
        total = np.zeros(3)
        reps = 20_000
        for _ in range(reps):
            actions, _ = sample_interventions(
                [target], caps=caps, budget=1e9, tau=1, rng=rng
            )
            total += actions[0].amounts
        np.testing.assert_allclose(total / reps, target, atol=0.02)

    def test_caps_hold_surely(self):
        rng = np.random.default_rng(5)
        caps = np.array([1.0, 2.0])
        for _ in range(500):
            actions, _ = sample_interventions(
                [np.array([0.9, 1.9])], caps=caps, budget=1e9, tau=1, rng=rng
            )
            assert np.all(actions[0].amounts <= caps)

    def test_single_attempt_overbudget_rate_is_one_quarter(self):
        # both coins land heads with probability 1/4, breaking budget 1
        rng = np.random.default_rng(2)
        infeasible = 0
        reps = 10_000
        for _ in range(reps):
            actions, _ = sample_interventions(
                [np.array([0.5, 0.5])], caps=np.ones(2), budget=1.0, tau=1, rng=rng
            )
            infeasible += int(not all(a.feasible for a in actions))
        assert abs(infeasible / reps - 0.25) <= 0.02

    def test_retries_until_feasible(self):
        rng = np.random.default_rng(8)
        actions, attempts = sample_interventions(
            [np.array([0.5, 0.5])], caps=np.ones(2), budget=1.0, tau=64, rng=rng
        )
        assert all(a.feasible for a in actions)
        assert 1 <= attempts <= 64

    def test_zero_cap_with_positive_mass_is_an_error(self):
        with pytest.raises(ValidationError, match="cap of 0"):
            sample_interventions(
                [np.array([0.5])], caps=np.array([0.0]), budget=1.0,
                rng=np.random.default_rng(0),
            )

    def test_fractional_caps_rejected(self):
        with pytest.raises(ValidationError, match="integer caps"):
            sample_interventions(
                [np.array([0.5])], caps=np.array([1.5]), budget=1.0,
                rng=np.random.default_rng(0),
            )

    @staticmethod
    def per_round_rounding(fractional, caps, budget, tau, rng):
        """The per-round loop ``sample_interventions`` used to run: one
        binomial call per round and attempt.  Returns the last draws, their
        feasibility flags and the attempts used."""
        caps = caps.astype(int)
        probs = []
        for z in fractional:
            with np.errstate(divide="ignore", invalid="ignore"):
                p = np.where(caps > 0, z / caps, 0.0)
            probs.append(np.clip(p, 0.0, 1.0))
        for attempt in range(1, tau + 1):
            draws = [rng.binomial(caps, p) for p in probs]
            feas = [float(d.sum()) <= budget + discrete.BUDGET_TOL for d in draws]
            if all(feas):
                return draws, feas, attempt
        return draws, feas, tau

    def test_array_draws_equal_the_per_round_loop(self):
        sweep = np.random.default_rng(2024)
        exhausted = zero_caps = 0
        for seed in range(300):
            n = int(sweep.integers(1, 7))
            rounds = int(sweep.integers(1, 5))
            caps = sweep.integers(0, 4, n).astype(float)
            schedule = [sweep.uniform(0.0, 1.0, n) * caps for _ in range(rounds)]
            budget = float(sweep.integers(0, 2 * n + 1))
            tau = int(sweep.integers(1, 4))
            actions, attempts = sample_interventions(
                schedule, caps, budget, tau=tau, rng=np.random.default_rng(seed)
            )
            draws, feas, ref_attempts = self.per_round_rounding(
                schedule, caps, budget, tau, np.random.default_rng(seed)
            )
            assert attempts == ref_attempts
            for action, d, f in zip(actions, draws, feas):
                np.testing.assert_array_equal(action.amounts, d)
                assert action.feasible == f
            exhausted += not all(feas)
            zero_caps += bool(np.any(caps == 0))
        assert exhausted > 0 and zero_caps > 0


class TestHubDiscretePipeline:
    def test_rounding_is_deterministic_when_optimum_is_integral(self, hub_env):
        mean, reports = aggregate_discrete(
            hub_env, SystemState.empty(3), 5, budget=1.0, caps=1.0, seed=11
        )
        assert mean == pytest.approx(20 / 3, abs=1e-6)
        for report in reports:
            assert report.attempts == 1
            assert report.feasible
            assert report.value_sol == pytest.approx(20 / 3, abs=1e-6)
            for action in report.actions:
                np.testing.assert_array_equal(action.amounts, [1, 0, 0])

    def test_zero_budget_matches_zero_input_value(self, hub_env):
        mean, reports = aggregate_discrete(
            hub_env, SystemState.empty(3), 3, budget=0.0, caps=0.0, seed=1
        )
        assert mean == pytest.approx(10 / 3, abs=1e-6)
        assert all(r.value_rel == pytest.approx(10 / 3, abs=1e-6) for r in reports)

    def test_ratio_fields_consistent(self, hub_env):
        _, reports = aggregate_discrete(
            hub_env, SystemState.empty(3), 2, budget=1.0, caps=1.0, seed=0
        )
        for r in reports:
            assert 0.0 <= r.ratio <= 1.0 + 1e-6
            assert 0.0 <= r.gamma_hat < 1.0


class TestBruteForce:
    def test_hub_budget_one_unit_cap(self):
        value, actions = brute_force_discrete(
            SystemState.empty(3), hub_path(2), budget=1.0, caps=1.0
        )
        assert value == pytest.approx(20 / 3, abs=1e-9)
        assert len(actions) == 2
        for action in actions:
            np.testing.assert_array_equal(action, [1, 0, 0])

    def test_zero_budget_equals_zero_input(self):
        value, _ = brute_force_discrete(
            SystemState.empty(3), hub_path(2), budget=0.0, caps=0.0
        )
        assert value == pytest.approx(10 / 3, abs=1e-9)

    def test_single_round_single_node_greedy_is_optimal(self):
        from dynclear import SamplePath, ShockRealization

        shock = ShockRealization(
            round=1,
            external_liabilities=[3.0],
            external_assets=[1.0],
            internal_liabilities=np.zeros((1, 1)),
        )
        value, actions = brute_force_discrete(
            SystemState.empty(1), SamplePath(shocks=(shock,)), budget=2.0, caps=2.0
        )
        assert value == pytest.approx(3.0, abs=1e-9)
        np.testing.assert_array_equal(actions[0], [2])

    def test_search_guard(self):
        with pytest.raises(EnumerationLimitError):
            brute_force_discrete(
                SystemState.empty(3), hub_path(2), budget=3.0, caps=3.0,
                max_combinations=10,
            )

    def test_enumerate_actions_respects_budget_and_caps(self):
        actions = enumerate_actions(np.array([2.0, 2.0, 2.0, 2.0]), 3.0)
        assert len(actions) == 31
        assert actions.sum(axis=1).max() <= 3
        assert actions.max() <= 2

    def test_batch_simulator_agrees_with_scalar_path(self):
        rng = np.random.default_rng(6)
        path = random_general_path(rng, 3, 3)
        start = SystemState.empty(3)
        seqs = rng.integers(0, 2, size=(8, 3, 3))
        batch = simulate_action_batch(start, path, seqs)
        for k in range(8):
            scalar, _ = simulate_discrete_policy(start, path, list(seqs[k]))
            assert batch[k] == pytest.approx(scalar, abs=1e-7)


class TestRelaxationDominanceAndRatio:
    def test_fractional_reference_dominates_enumerated_optimum(self):
        # single-round general instances: the per-round LP relaxes the
        # discrete problem directly
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            path = random_general_path(rng, n, 1)
            budget = float(rng.integers(1, 4))
            caps = rng.integers(1, 3, n).astype(float)
            start = SystemState.empty(n)
            v_rel, _ = value_given_sample_path(start, path, budget, caps)
            v_opt, _ = brute_force_discrete(start, path, budget, caps)
            assert v_rel >= v_opt - 1e-9

    def test_dominance_on_default_heavy_multiround_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            path = deep_constant_proportion_path(rng, n, int(rng.integers(2, 4)))
            budget = float(rng.integers(0, 4))
            caps = rng.integers(1, 3, n).astype(float)
            start = SystemState.empty(n)
            v_rel, _ = value_given_sample_path(start, path, budget, caps)
            v_opt, _ = brute_force_discrete(start, path, budget, caps)
            assert v_rel >= v_opt - 1e-9

    def test_mean_rounded_value_beats_connectivity_bound(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            rounds = int(rng.integers(1, 4))
            path = deep_constant_proportion_path(rng, n, rounds)
            budget = float(rng.integers(1, 4))
            caps = rng.integers(1, 3, n).astype(float)
            start = SystemState.empty(n)
            v_rel, steps = value_given_sample_path(start, path, budget, caps)
            v_opt, _ = brute_force_discrete(start, path, budget, caps)
            gamma = max(float(s.beta.max()) for s in steps)
            draws = np.zeros((200, rounds, n))
            for d in range(200):
                actions, _ = sample_interventions(
                    [s.intervention.amounts for s in steps], caps, budget,
                    tau=1, rng=rng,
                )
                draws[d] = np.stack([a.amounts for a in actions])
            mean_rounded = float(simulate_action_batch(start, path, draws).mean())
            assert mean_rounded >= (1.0 - gamma) * v_opt - 1e-6


class TestApproximationBound:
    def test_budget_below_round_mass_loses_horizon_factor(self):
        _, bound = approximation_bound(
            delta_b=1.0, shock_norm_bound=5.0, horizon_len=2, budget=2.0
        )
        assert bound == pytest.approx(1 / 10)

    def test_budget_above_round_mass(self):
        _, bound = approximation_bound(
            delta_b=1.0, shock_norm_bound=5.0, horizon_len=2, budget=6.0
        )
        assert bound == pytest.approx(1 / 5)

    def test_isolated_nodes_are_approximation_free(self):
        empirical, bound = approximation_bound(
            delta_b=5.0, shock_norm_bound=5.0, horizon_len=1, budget=6.0,
            observed_betas=[np.zeros(3)],
        )
        assert bound == pytest.approx(1.0)
        assert empirical == pytest.approx(1.0)

    def test_empirical_bound_tracks_observations(self):
        empirical, _ = approximation_bound(
            delta_b=1.0, shock_norm_bound=5.0, horizon_len=2, budget=2.0,
            observed_betas=[np.array([0.2, 0.6]), np.array([0.4, 0.1])],
        )
        assert empirical == pytest.approx(0.4)


class TestDiscretizePayments:
    def test_three_way_even_split(self):
        matrix = RelativeLiabilityMatrix.from_entries(
            [[0.0, 1 / 3, 1 / 3], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        allocation = discretize_payments([3.0, 0.0, 0.0], matrix)
        assert allocation[0, 1] == 1 and allocation[0, 2] == 1
        assert allocation[0, 3] == 1  # external slot
        np.testing.assert_array_equal(allocation[1:], 0)

    def test_zero_payment_allocates_nothing(self):
        matrix = RelativeLiabilityMatrix.from_entries(np.zeros((2, 2)))
        np.testing.assert_array_equal(discretize_payments([0.0, 0.0], matrix), 0)

    def test_small_payment_floors_to_nothing(self):
        # every share of 2 floors to zero: the heuristic is deliberately coarse
        matrix = RelativeLiabilityMatrix.from_entries(
            [[0.0, 1 / 3, 1 / 3], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        allocation = discretize_payments([2.0, 0.0, 0.0], matrix)
        np.testing.assert_array_equal(allocation, 0)

    def test_tie_break_prefers_low_index_then_external(self):
        # node 0 splits 5 across equal quarters; assignment stops when the
        # next floor would overshoot the payment
        matrix = RelativeLiabilityMatrix.from_entries(
            [
                [0.0, 0.25, 0.25, 0.25],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        allocation = discretize_payments([5.0, 0.0, 0.0, 0.0], matrix)
        # shares all 0.25 -> floor(1.25) = 1 each; order 1,2,3 then external
        np.testing.assert_array_equal(allocation[0], [0, 1, 1, 1, 1])


class TestBatchClear:
    """The batched clearing the oracle and the batch simulator run on."""

    def test_non_contracting_batch_raises_contraction_error(self):
        # node 0 owes everything it owes to node 1: row sum 1
        pairwise = np.array([[[0.0, 2.0], [0.0, 0.0]]])
        totals = np.array([[2.0, 1.0]])
        with pytest.raises(ContractionError):
            clear_stack(relative_entries(pairwise, totals), totals, np.zeros((1, 2)))

    def test_contracting_batch_matches_fixed_point(self):
        pairwise = np.array([[[0.0, 1.0], [0.0, 0.0]]])
        totals = np.array([[2.0, 1.0]])
        # node 0 pays its 0.5 of assets, half of it to node 1
        cleared = clear_stack(
            relative_entries(pairwise, totals), totals, np.array([[0.5, 0.2]])
        )
        np.testing.assert_allclose(cleared, [[0.5, 0.45]], atol=1e-12)


#: sha256 of every file ``configs/three_node/discrete.json`` writes, recorded
#: when each of its five replayed samples still solved its own fractional
#: trajectory.
THREE_NODE_DISCRETE_DIGESTS = {
    "PLOTS_README.md": "7f98fed61f8e21f1410c1d0ea1f032362c1a45fbc1dc5c3af9803e623693c313",
    "interventions.csv": "305be44d2c2ad58b073dc2988c4ee1f7c18a8cf8857c8c8eedaa564a48d92aef",
    "rewards.csv": "c4475c159b96405cd08e058431a43fd53007f84592cfac31c05a40f241088561",
    "rounding.csv": "564e7ec071b67cf2e7654e723badbfe17195292c77f0a71938734bbf5daf7a8f",
    "scatter.csv": "2d21c357684f00e14aa0d688771d3e3aaa0e17a848428ecd674e292c8e268019",
    "summary.json": "a3661eb0f3b7861bf6f590bb5bfa8e7b6d3f754dbb4e325f3f314d6d3aec4b86",
    "trace.csv": "2734f1eb8742ab448dd91f849022703295c6670529b162f716f7841d6dbf799e",
}


def test_replayed_discrete_run_solves_its_fractional_trajectory_once(
    tmp_path, monkeypatch
):
    calls = []
    solve = discrete.value_given_sample_path

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(discrete, "value_given_sample_path", counting)
    config_path = os.path.join(
        os.path.dirname(__file__), "..", "configs", "three_node", "discrete.json"
    )
    config = dataclasses.replace(
        load_config(config_path), out_dir=str(tmp_path / "out")
    )
    _, files = run_experiment(config)
    assert config.samples == 5 and len(calls) == 1
    digests = {
        os.path.basename(path): hashlib.sha256(open(path, "rb").read()).hexdigest()
        for path in files.values()
    }
    assert digests == THREE_NODE_DISCRETE_DIGESTS
