import dataclasses
import hashlib
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynclear import (
    ContractionError,
    EnumerationLimitError,
    RelativeLiabilityMatrix,
    SbmEnvironment,
    SbmParams,
    SystemState,
    ValidationError,
    advance_state,
    aggregate_discrete,
    approximation_bound,
    brute_force_discrete,
    clear_fixed_point,
    discretize_payments,
    enumerate_actions,
    relative_matrix,
    sample_interventions,
    simulate_action_batch,
    simulate_discrete_policy,
    value_given_sample_path,
)
from dynclear import discrete, load_config, network, run_experiment
from dynclear.discrete import discrete_runs
from dynclear.clearing import clear_stack
from dynclear.network import carry_forward, relative_entries

from conftest import (
    deep_constant_proportion_path,
    hub_path,
    random_general_path,
    sbm100_instance,
    traced_peak,
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

    def test_infinite_caps_rejected(self):
        # |inf - rint(inf)| is NaN, which must not pass as an integer cap
        with pytest.raises(ValidationError, match="integer caps"):
            discrete._integer_caps(np.array([1.0, np.inf]))

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


@st.composite
def rounding_inputs(draw, budget_covers_caps: bool):
    """``(schedule, caps, budget)``: 1 to 5 rounds of 1 to 8 nodes with
    integer caps 0 to 3 and fractional amounts in ``[0, caps]``, some of
    them whole; the budget covers the caps' sum, or falls short of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, rounds = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    caps = rng.integers(0, 4, n).astype(float)
    schedule = rng.uniform(0.0, 1.0, (rounds, n)) * caps
    whole = rng.random((rounds, n)) < 0.2
    schedule[whole] = np.floor(schedule[whole])
    total = float(caps.sum())
    budget = (total + draw(st.sampled_from((0.0, 0.5, 3.0))) if budget_covers_caps
              else float(draw(st.integers(0, max(0, int(total) - 1)))))
    return list(schedule), caps, budget


class TestRoundingProperties:
    """Binomial rounding under the budget: never redrawn where the caps fit
    in it, and each round's flag always tells the truth."""

    SEEDS = 500

    @settings(max_examples=25)
    @given(rounding_inputs(budget_covers_caps=True))
    def test_unredrawn_where_the_caps_fit_and_unbiased(self, inputs):
        schedule, caps, budget = inputs
        frac = np.asarray(schedule)
        total = np.zeros_like(frac)
        for seed in range(self.SEEDS):
            actions, attempts = sample_interventions(
                schedule, caps, budget, rng=np.random.default_rng(seed))
            amounts = np.array([a.amounts for a in actions])
            assert attempts == 1
            assert all(a.feasible for a in actions)
            assert np.all((0 <= amounts) & (amounts <= caps))
            total += amounts
        # each mean is of SEEDS Bin(L, p) draws: within 5 of its standard
        # errors sqrt(L p (1 - p) / SEEDS), exact where p is 0 or 1
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.clip(np.where(caps > 0, frac / caps, 0.0), 0.0, 1.0)
        stderr = np.sqrt(caps * p * (1.0 - p) / self.SEEDS)
        assert np.all(np.abs(total / self.SEEDS - frac) <= 5.0 * stderr + 1e-12)

    @settings(max_examples=60)
    @given(rounding_inputs(budget_covers_caps=False), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    def test_a_round_flagged_feasible_is_within_the_budget(self, inputs, tau, seed):
        # no mean is asserted here: redrawing over-budget schedules biases it
        schedule, caps, budget = inputs
        actions, attempts = sample_interventions(
            schedule, caps, budget, tau=tau, rng=np.random.default_rng(seed))
        assert 1 <= attempts <= tau
        for action in actions:
            spent = int(action.amounts.sum())
            assert action.feasible == (spent <= budget + discrete.BUDGET_TOL)
            assert np.all(action.amounts <= caps)
        if attempts < tau:
            assert all(a.feasible for a in actions)


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
        # every round of every sample plays the rounded action (1, 0, 0)
        for _, steps in discrete_runs(hub_env, SystemState.empty(3), 5, 1.0,
                                      1.0, seed=11):
            for step in steps:
                np.testing.assert_array_equal(step.intervention, [1, 0, 0])

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


class TestDiscreteRuns:
    def test_results_are_identical_at_every_worker_count(self):
        env = SbmEnvironment(
            params=SbmParams(n_core=3, n_periphery=9,
                             block_probs=np.array([[0.7, 0.4], [0.4, 0.1]])),
            horizon=3,
        )

        def bits(results):
            return [(r.attempts, r.feasible, r.value_sol, r.value_rel,
                     r.gamma_hat, r.ratio,
                     [(s.intervention.tobytes(), s.totals.tobytes(),
                       s.clearing.tobytes(), s.reward)
                      for s in steps]) for r, steps in results]

        results = [
            bits(discrete_runs(env, SystemState.empty(12), 6, 2.0, 1.0, seed=5,
                               threads=threads))
            for threads in (1, 2, 3)
        ]
        assert results[1] == results[0] and results[2] == results[0]

    def test_memory_holds_one_path_per_worker(self):
        # the discrete_sbm100 instance: n = 100, 16 samples of 10 rounds,
        # whose paths alone take 16 * 10 * 100**2 floats (12.2 MiB)
        env, start = sbm100_instance()
        list(discrete_runs(env, start, 1, 10.0, 2.0, seed=1, horizon=1))  # warm up
        assert traced_peak(
            lambda: list(discrete_runs(env, start, 16, 10.0, 2.0, seed=1))
        ) <= 4 * 2**20


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
        # 11^3 = 1,331 actions, so 1,331^2 > 10^6 schedules over two rounds
        with pytest.raises(EnumerationLimitError):
            brute_force_discrete(
                SystemState.empty(3), hub_path(2), budget=30.0, caps=10.0
            )

    def test_enumerate_actions_respects_budget_and_caps(self):
        actions = enumerate_actions(np.array([2.0, 2.0, 2.0, 2.0]), 3.0)
        assert len(actions) == 31
        assert actions.sum(axis=1).max() <= 3
        assert actions.max() <= 2

    def test_batch_simulator_agrees_with_scalar_path(self):
        """Both players equal the per-state loop bit for bit, on general and
        on default-heavy paths."""
        rng = np.random.default_rng(6)
        for case in range(40):
            n, rounds = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            make_path = (random_general_path, deep_constant_proportion_path)[case % 2]
            path = make_path(rng, n, rounds)
            start = SystemState.empty(n)
            seqs = rng.integers(0, 3, size=(4, rounds, n))
            batch = simulate_action_batch(start, path, seqs)
            for k in range(4):
                value, reference = per_state_play(start, path, seqs[k])
                scalar, steps = simulate_discrete_policy(start, path, seqs[k])
                assert batch[k] == value and scalar == value
                for step, (totals, clearing, beta) in zip(steps, reference):
                    np.testing.assert_array_equal(step.totals, totals)
                    np.testing.assert_array_equal(step.clearing, clearing)
                    np.testing.assert_array_equal(step.beta, beta)


def per_state_play(start, path, schedule):
    """The loop the discrete simulation ran before the stacked player: one
    validated state per round (``advance_state``, ``relative_matrix``) and
    ``clear_fixed_point`` of its intervention.  Returns the value and each
    round's (totals, clearing, beta)."""
    state, clearing, rounds = start, np.zeros(start.n), []
    for shock, z in zip(path, schedule):
        state = advance_state(state, clearing, shock)
        matrix = relative_matrix(state)
        clearing = clear_fixed_point(matrix, state.totals,
                                     shock.external_assets, np.asarray(z, float))
        rounds.append((state.totals, clearing, matrix.row_sums))
    return float(sum(float(c.sum()) for _, c, _ in rounds)), rounds


class TestPlayer:
    """Both public players check their schedule and start state."""

    PLAYERS = {
        "policy": simulate_discrete_policy,
        "batch": lambda start, path, z: simulate_action_batch(start, path, z[None]),
    }

    @pytest.mark.parametrize("player", sorted(PLAYERS))
    @pytest.mark.parametrize(
        "n_start, schedule, match",
        [(3, np.ones((3, 3)), "shape"), (3, np.ones((2, 4)), "shape"),
         (3, -np.eye(2, 3), "nonnegative"), (4, np.ones((2, 3)), "node count")],
        ids=["rounds", "nodes", "negative", "start"],
    )
    def test_bad_input_is_a_validation_error(self, player, n_start, schedule,
                                             match):
        with pytest.raises(ValidationError, match=match):
            self.PLAYERS[player](SystemState.empty(n_start), hub_path(2), schedule)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), deep=st.booleans(),
           n=st.integers(2, 5), rounds=st.integers(1, 4), k=st.integers(1, 4))
    def test_totals_equal_external_plus_pairwise(self, seed, deep, n, rounds, k):
        """Every state the carry-forward loop carries, for every schedule of
        the stacked player and along the per-round LP policy, passes the
        checks of ``SystemState``: totals = external + pairwise to
        CONSISTENCY_TOL, both parts nonnegative."""
        rng = np.random.default_rng(seed)
        make_path = deep_constant_proportion_path if deep else random_general_path
        path = make_path(rng, n, rounds)
        seqs = rng.integers(0, 3, size=(k, rounds, n))
        stacked, policy = [], []

        def recording(played):
            def record(*args):
                played.append(carry_forward(*args))
                return played[-1]
            return record

        with mock.patch.object(network, "carry_forward",
                               side_effect=recording(stacked)):
            simulate_action_batch(SystemState.empty(n), path, seqs)
        with mock.patch.object(network, "carry_forward",
                               side_effect=recording(policy)):
            value_given_sample_path(SystemState.empty(n), path, 1.0, 1.0)
        assert len(stacked) == len(policy) == rounds
        for pairwise, external, totals in stacked:
            for j in range(k):
                SystemState(pairwise=pairwise[j], totals=totals[j],
                            external=external[j])
        for pairwise, external, totals in policy:
            SystemState(pairwise=pairwise, totals=totals, external=external)


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
                    [s.intervention for s in steps], caps, budget,
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
        os.path.basename(path): hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for path in files.values()
    }
    assert digests == THREE_NODE_DISCRETE_DIGESTS
