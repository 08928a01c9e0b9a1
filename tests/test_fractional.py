import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dynclear.clearing
from dynclear import (
    FairnessSpec,
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
from dynclear.clearing import (
    KNAPSACK_GAP_TOL,
    LP_REPAIR_TOL,
    clear_stack,
    gap_closes,
    solve_optimal,
)
from dynclear.environments import EnvironmentModel, SbmEnvironment, SbmParams
from dynclear.errors import ContractionError
from dynclear.fairness import fairness_constraint_block, spatial_weights
from dynclear.fractional import (
    _allocation_lp,
    _certify_default_set,
    _knapsack_round,
    broadcast_caps,
    fill_caps,
    lp_step,
    ordered_map,
    per_sample,
    sampled_runs,
    stderr,
)

from conftest import (
    deep_constant_proportion_path,
    hub_path,
    hub_shock,
    random_general_path,
    refused_hub_round,
    same_bits,
    sbm100_instance,
    sbm_round,
    traced_peak,
)


def hub_round_one():
    state = advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1))
    return relative_matrix(state), state.totals, hub_shock(1).external_assets


class TestPerRoundLp:
    def test_hub_budget_two_saves_everyone(self):
        matrix, totals, assets = hub_round_one()
        step = per_round_lp(matrix, totals, assets, budget=2.0, caps=2.0)
        assert step.reward == pytest.approx(5.0, abs=1e-7)
        np.testing.assert_allclose(step.intervention, [2.0, 0.0, 0.0], atol=1e-7)
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
        def edit(x):  # moves payment from node 1 to node 0, same objective
            x[0] += 1e-3
            x[1] -= 1e-3

        with pytest.raises(SolverError, match="put the clearing 0.001 outside"):
            self.perturbed(monkeypatch, edit)

    def test_negative_intervention_raises(self, monkeypatch):
        with pytest.raises(SolverError, match="put the intervention 0.001 outside"):
            self.perturbed(monkeypatch, lambda x: x.__setitem__(4, -1e-3))

    def test_budget_overrun_raises(self, monkeypatch):
        with pytest.raises(SolverError, match="spent 0.001 over the budget"):
            self.perturbed(monkeypatch, lambda x: x.__setitem__(4, 1e-3))

    def test_a_primal_off_the_optimum_is_refused_before_the_repair(
            self, monkeypatch):
        for edit in (lambda x: x.__setitem__(0, x[0] + 1e-3),
                     lambda x: x.__setitem__(1, np.nan)):
            with pytest.raises(SolverError,
                               match="primal and dual objectives differ"):
                self.perturbed(monkeypatch, edit)

    def test_nan_primal_raises(self):
        matrix, totals, _ = refused_hub_round()
        clearing = np.array([3.0, np.nan, 1.0])
        with pytest.raises(SolverError, match="put the clearing nan outside"):
            lp_step("test LP", 0, totals, matrix, clearing, np.zeros(3), 2.0,
                    np.full(3, 2.0))

    def test_noise_within_tolerance_is_repaired(self, monkeypatch):
        def edit(x):
            x[0] += 1e-9  # clearing of node 0 sits at its total of 3
            x[4] = 1e-9   # budget already spent on node 0

        step = self.perturbed(monkeypatch, edit)
        np.testing.assert_array_equal(step.clearing, [3.0, 1.0, 1.0])
        assert step.intervention.sum() <= 2.0

    def test_a_rescale_leaves_no_overspend(self):
        # one rescale by budget / total leaves this sum an ulp above 1.787
        z, budget = np.array([0.0050000002, 1.715, 0.067]), 1.787
        assert (z * (budget / z.sum())).sum() > budget
        step = lp_step("test LP", 0, np.full(3, 3.0),
                       RelativeLiabilityMatrix.from_entries(np.zeros((3, 3))),
                       np.ones(3), z, budget, np.full(3, 2.0))
        assert step.intervention.sum() <= budget
        np.testing.assert_allclose(step.intervention, z * (budget / z.sum()),
                                   rtol=1e-15, atol=0.0)

    def test_solver_noise_in_the_intervention_is_snapped_to_zero(self):
        z = np.array([1.0, 2e-15, LP_REPAIR_TOL, -0.0, 2 * LP_REPAIR_TOL])
        step = lp_step("test LP", 0, np.full(5, 3.0),
                       RelativeLiabilityMatrix.from_entries(np.zeros((5, 5))),
                       np.ones(5), z, 3.0, np.full(5, 2.0))
        assert step.intervention.tolist() == [1.0, 0.0, 0.0, 0.0, 2 * LP_REPAIR_TOL]
        assert not np.signbit(step.intervention).any()


class TestStartBasis:
    """The Gini-capped per-round LP starts HiGHS from a basis in which each
    pair's slack is basic when its first node is the more central one."""

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 40),
           kind=st.sampled_from(("spatial", "standard", "property")),
           g=st.sampled_from((0.1, 0.5, 0.9)))
    def test_the_start_reaches_the_all_slack_optimum(self, seed, n, kind, g):
        rng = np.random.default_rng(seed)
        state, matrix, assets = sbm_round(rng, n, rounds=2)
        budget, caps = float(rng.uniform(0.5, 5.0)), rng.uniform(0.2, 1.5, n)
        spec = FairnessSpec(kind=kind, g=g,
                            q=rng.random(n) if kind == "property" else None)
        weights = spec.weights_for(matrix)
        lp = _allocation_lp(matrix, state.totals, assets, budget, caps,
                            fairness_constraint_block(weights, g))
        assert lp.basis is not None
        crash = solve_optimal(lp, "crash-started LP")
        all_slack = solve_optimal(dataclasses.replace(lp, basis=None),
                                  "all-slack LP")
        assert crash.objective_value == pytest.approx(all_slack.objective_value,
                                                      rel=1e-9)
        step = lp_step("crash-started LP", 0, state.totals, matrix,
                       crash.primal[:n], crash.primal[n : 2 * n], budget, caps,
                       weights)
        assert step.gini <= g + 1e-7
        assert step.intervention.sum() <= budget
        assert np.all(step.intervention <= caps)

    def test_a_spatial_round_of_100_nodes_takes_under_half_the_iterations(self):
        # 863 iterations against 3,019 from the all-slack basis
        state, matrix, assets = sbm_round(np.random.default_rng(2), 100, rounds=2,
                                          asset_level=0.0)
        block = fairness_constraint_block(spatial_weights(matrix), 0.5)
        lp = _allocation_lp(matrix, state.totals, assets, 50.0, np.full(100, 50.0),
                            block)
        crash = solve_optimal(lp, "crash-started LP")
        all_slack = solve_optimal(dataclasses.replace(lp, basis=None),
                                  "all-slack LP")
        assert crash.iterations < all_slack.iterations / 2
        assert crash.objective_value == pytest.approx(all_slack.objective_value,
                                                      rel=1e-9)


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
        np.testing.assert_array_equal(step.intervention, [1.0, 0.5, 0.0, 0.0])
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
            amounts = step.intervention
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


def reference_knapsack_round(matrix, totals, assets, budget, caps):
    """:func:`_knapsack_round` as it stood before it tried ``D = N`` first:
    the default set always comes from clearing at ``Z = 0``."""
    entries = matrix.entries
    try:
        cleared = clear_stack(entries[None], totals[None], assets[None])[0]
    except ContractionError:
        return None
    short = entries.T @ cleared + assets < totals
    defaults, solvent = np.flatnonzero(short), np.flatnonzero(~short)
    eye = np.eye(defaults.size)
    inner = entries[np.ix_(defaults, defaults)]
    v = np.linalg.solve(eye - inner, np.ones(defaults.size))
    z = np.zeros(matrix.n)
    z[defaults], mu = fill_caps(v, caps[defaults], budget)
    x = totals.copy()
    x[defaults] = np.linalg.solve(
        eye - inner.T,
        assets[defaults] + z[defaults]
        + entries[np.ix_(solvent, defaults)].T @ totals[solvent],
    )
    tol = LP_REPAIR_TOL
    feasible = (
        np.all((-tol <= x) & (x <= totals + tol))
        and np.all(x - entries.T @ x - z <= assets + tol)
        and z.sum() <= budget + tol
    )
    y = np.zeros(matrix.n)
    y[defaults] = v
    alpha = np.maximum(0.0, 1.0 - (y - entries @ y))
    dual = (assets @ y + budget * mu + totals @ alpha
            + caps @ np.maximum(0.0, y - mu))
    primal = float(x.sum())
    if not (feasible and np.all(y >= 0.0)
            and abs(dual - primal) <= KNAPSACK_GAP_TOL * max(1.0, primal)):
        return None
    return x, z


@st.composite
def knapsack_instances(draw):
    """``(matrix, totals, assets, budget, caps)``: an :func:`sbm_rounds`
    round, or one with random positive assets scaled to just inside the
    all-default gate ``c + A^T c < P``, where the default set at ``Z = 0``
    is often partial; with a budget from none to past the caps, where
    rounds are refused."""
    matrix, totals, assets, caps = draw(sbm_rounds())
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        assets = rng.uniform(0.1, 1.0, matrix.n)
        assets *= ((totals / (matrix.entries.T @ assets + assets)).min()
                   * rng.uniform(0.5, 1.0))
    caps = broadcast_caps(caps, matrix.n)
    budget = draw(st.floats(0.0, 1.2)) * float(caps.sum())
    return matrix, totals, assets, budget, caps


def bits(result):
    return None if result is None else [a.tobytes() for a in result]


def counted_calls(monkeypatch, fn, *args):
    """``(result, clear_stack calls, np.linalg.solve calls)`` of one call."""
    calls = {"clear_stack": 0, "solve": 0}

    def count(name, real):
        def wrapper(*a):
            calls[name] += 1
            return real(*a)
        return wrapper

    monkeypatch.setattr(dynclear.fractional, "clear_stack",
                        count("clear_stack", dynclear.fractional.clear_stack))
    monkeypatch.setattr(np.linalg, "solve", count("solve", np.linalg.solve))
    result = fn(*args)
    monkeypatch.undo()
    return result, calls["clear_stack"], calls["solve"]


def former_certify_default_set(matrix, totals, assets, budget, caps, short):
    """:func:`_certify_default_set` as it stood before its D = N trim: the
    default block gathered by ``np.ix_``, the solvent inflow added even when
    empty, and ``I - A_DD`` formed once per solve."""
    entries = matrix.entries
    defaults, solvent = np.flatnonzero(short), np.flatnonzero(~short)
    eye = np.eye(defaults.size)
    inner = entries[np.ix_(defaults, defaults)]
    v = np.linalg.solve(eye - inner, np.ones(defaults.size))
    z = np.zeros(matrix.n)
    z[defaults], mu = fill_caps(v, caps[defaults], budget)
    x = totals.copy()
    x[defaults] = np.linalg.solve(
        eye - inner.T,
        assets[defaults] + z[defaults]
        + entries[np.ix_(solvent, defaults)].T @ totals[solvent],
    )
    tol = LP_REPAIR_TOL
    feasible = (
        np.all((-tol <= x) & (x <= totals + tol))
        and np.all(x - entries.T @ x - z <= assets + tol)
        and z.sum() <= budget + tol
    )
    y = np.zeros(matrix.n)
    y[defaults] = v
    alpha = np.maximum(0.0, 1.0 - (y - entries @ y))
    gamma = np.maximum(0.0, y - mu)
    dual = (assets @ y + budget * mu + totals @ alpha
            + np.where(gamma > 0.0, caps, 0.0) @ gamma)
    primal = float(x.sum())
    if not (feasible and np.all(y >= 0.0) and gap_closes(dual, primal)):
        return None
    return x, z


@settings(max_examples=200)
@given(knapsack_instances(), st.booleans())
def test_certifying_all_nodes_keeps_the_former_bits(instance, signed_zeros):
    matrix, totals, assets, budget, caps = instance
    if signed_zeros:  # -0.0 assets, which the solvent inflow turned into 0.0
        assets = np.where(np.arange(matrix.n) % 2 == 0, -0.0, assets)
    everyone = np.ones(matrix.n, dtype=bool)
    got = _certify_default_set(matrix, totals, assets, budget, caps, everyone)
    want = former_certify_default_set(matrix, totals, assets, budget, caps,
                                      everyone)
    assert (got is None) == (want is None)
    if got is not None:
        assert all(np.array_equal(g, w) and np.array_equal(np.signbit(g),
                                                           np.signbit(w))
                   for g, w in zip(got, want))


class TestAllDefaultFirst:
    """The knapsack route tries ``D = N`` before clearing at ``Z = 0``, with
    every result bit for bit that of clearing first."""

    @settings(max_examples=300)
    @given(knapsack_instances())
    def test_results_equal_clearing_first_bit_for_bit(self, instance):
        assert bits(_knapsack_round(*instance)) == bits(
            reference_knapsack_round(*instance))

    def test_a_certified_all_default_round_makes_two_solves(self, monkeypatch):
        matrix, totals, assets = chain_round()
        args = matrix, totals, assets, 1.5, np.ones(4)
        result, clears, solves = counted_calls(monkeypatch, _knapsack_round, *args)
        assert result is not None and (clears, solves) == (0, 2)
        assert bits(result) == bits(reference_knapsack_round(*args))

    def test_a_refused_all_default_round_makes_no_more_solves(self, monkeypatch):
        # round 1 of the unconstrained run of configs/synthetic_fairness.json:
        # no assets, so every node defaults at Z = 0, and B = L = 50 turns
        # some solvent, so the round is refused (and goes to HiGHS)
        env = SbmEnvironment(
            SbmParams(10, 40, [[0.6, 0.35], [0.35, 0.1]]), horizon=10)
        shock = env.sample_path(1, 1, substream(0, 0)).shocks[0]
        state = advance_state(SystemState.empty(50), np.zeros(50), shock)
        matrix = relative_matrix(state)
        args = matrix, state.totals, shock.external_assets, 50.0, np.full(50, 50.0)
        cleared = clear_stack(matrix.entries[None], state.totals[None],
                              shock.external_assets[None])[0]
        assert np.all(matrix.entries.T @ cleared < state.totals)  # D = N
        result, clears, solves = counted_calls(monkeypatch, _knapsack_round, *args)
        _, _, reference_solves = counted_calls(
            monkeypatch, reference_knapsack_round, *args)
        assert result is None and clears == 1
        assert solves <= reference_solves == 3

    def test_a_row_sum_of_one_is_left_to_highs(self):
        # D = N alone would certify Z = (0.25, 0), but clearing refuses a
        # row sum of 1, and so does the gate
        args = *non_contracting_round(), 0.25, np.ones(2)
        assert reference_knapsack_round(*args) is None
        assert _knapsack_round(*args) is None


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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), deep=st.booleans(),
           n=st.integers(1, 6), rounds=st.integers(1, 4),
           kind=st.sampled_from([None, "standard", "spatial", "property"]),
           share=st.floats(0.0, 1.0))
    @example(seed=0, deep=False, n=1, rounds=3, kind=None, share=0.5)
    @example(seed=1, deep=True, n=1, rounds=3, kind="spatial", share=0.5)
    def test_steps_equal_the_validated_rollout(self, seed, deep, n, rounds,
                                               kind, share):
        """The carry-forward loop on bare arrays gives every round's bits
        of the loop that built a validated state and matrix per round."""
        rng = np.random.default_rng(seed)
        make_path = deep_constant_proportion_path if deep else random_general_path
        path = make_path(rng, n, rounds)
        caps = rng.uniform(0.0, 2.0, n)
        budget = share * float(caps.sum())
        fairness = None if kind is None else FairnessSpec(
            kind=kind, g=float(rng.uniform(0.1, 0.9)),
            q=rng.random(n) if kind == "property" else None)
        start = SystemState.empty(n)
        value, steps = value_given_sample_path(start, path, budget, caps, fairness)
        want_value, want_steps = validated_rollout(
            start, path,
            lambda t, shock, state, matrix: per_round_lp(
                matrix, state.totals, shock.external_assets, budget, caps,
                fairness=fairness, round_index=shock.round,
            ),
        )
        assert same_bits(value, want_value)
        assert len(steps) == len(want_steps) == rounds
        for got, want in zip(steps, want_steps):
            assert got.round == want.round
            for name in ("totals", "clearing", "intervention", "beta", "reward"):
                assert same_bits(getattr(got, name), getattr(want, name)), name


def validated_rollout(start: SystemState, path: SamplePath, step):
    """The policy loop before the carry-forward loop ran on bare arrays:
    each round folds the shock and the previous round's clearing into a
    validated state (``advance_state``, from ``start`` with nothing
    cleared), then calls ``step(t, shock, state, matrix)`` on it and its
    ``relative_matrix``.  Returns the total reward and the per-round
    results."""
    state = start
    clearing = np.zeros(start.n)
    steps = []
    for t, shock in enumerate(path):
        state = advance_state(state, clearing, shock)
        steps.append(step(t, shock, state, relative_matrix(state)))
        clearing = steps[-1].clearing
    return float(sum(s.reward for s in steps)), steps


class _HotColdMixture(EnvironmentModel):
    """Whole-path Bernoulli mixture: the hub path or a near-empty economy."""

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
        # the stream is handed to the tail where the path draw left it
        drawn = per_sample(
            self.ENV, 6, seed, lambda i, path: i,
            lambda i, rng, path, solved: (solved, path, rng.random()),
            horizon=horizon,
        )
        last = self.ENV.horizon if horizon is None else horizon
        for i, (solved, path, after) in enumerate(drawn):
            fresh = substream(seed, i)
            expected = self.ENV.sample_path(1, last, fresh)
            assert solved == i and len(path) == last
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
            assert after == fresh.random()

    def test_needs_a_sample(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            per_sample(self.ENV, 0, 1, lambda i, path: None)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_a_replay_is_solved_exactly_once(self, hub_env, monkeypatch, threads):
        calls = []
        solve = dynclear.fractional.value_given_sample_path
        monkeypatch.setattr(dynclear.fractional, "value_given_sample_path",
                            lambda *args: calls.append(args) or solve(*args))
        runs = list(sampled_runs(hub_env, SystemState.empty(3), 7, 2.0, 2.0,
                                 seed=0, threads=threads))
        assert len(calls) == 1
        assert all(steps is runs[0][1] for _, steps in runs)

    def test_workers_share_one_solve_per_path_under_contention(self, hub_env):
        # more workers than cores, switching threads every microsecond: two
        # replayed paths drawn in turn are solved once each, and every
        # sample gets its own path's result
        paths = [hub_env.sample_path(1, 2, None), hub_env.sample_path(1, 1, None)]
        env = _Listed([paths[i % 2] for i in range(64)])
        tokens = {}

        def solve(_, path):
            time.sleep(1e-3)
            tokens[id(path)] = []  # a second solve would replace the first
            return tokens[id(path)]

        def tail(i, rng, path, solved):
            solved.append(i)
            return path, solved

        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: results.extend(
                per_sample(env, 64, 0, solve, tail, threads=8)))
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and len(results) == 64
        assert len(tokens) == 2
        assert all(solved is tokens[id(path)] for path, solved in results)
        assert sorted(i for t in tokens.values() for i in t) == list(range(64))

    def test_fresh_equal_shocks_are_solved_once_per_sample(self, hub_env):
        # each draw builds new shock objects equal to the replay's; once a
        # sample's path is dropped its ids can come back, and must not hit
        solved = []

        def solve(_, path):
            solved.append(path.n)
            return value_given_sample_path(SystemState.empty(3), path, 2.0, 2.0)

        runs = list(per_sample(_Redrawn(hub_env), 5, 0, solve))
        assert len(solved) == 5
        assert [v for v, _ in runs] == [runs[0][0]] * 5

    def test_results_are_identical_at_every_worker_count(self):
        env = SbmEnvironment(
            params=SbmParams(n_core=3, n_periphery=9,
                             block_probs=np.array([[0.7, 0.4], [0.4, 0.1]])),
            horizon=3,
        )

        def bits(runs):
            return [(v, [(s.round, s.totals.tobytes(), s.clearing.tobytes(),
                          s.intervention.tobytes(), s.beta.tobytes(), s.reward)
                         for s in steps]) for v, steps in runs]

        results = [
            bits(sampled_runs(env, SystemState.empty(12), 6, 1.5, 1.0, seed=3,
                              threads=threads))
            for threads in (1, 2, 3)
        ]
        assert results[1] == results[0] and results[2] == results[0]

    def test_memory_holds_one_path_per_worker(self):
        # the discrete_sbm100 instance: n = 100, 16 samples of 10 rounds,
        # whose paths alone take 16 * 10 * 100**2 floats (12.2 MiB)
        env, start = sbm100_instance()
        list(sampled_runs(env, start, 1, 10.0, 2.0, seed=1, horizon=1))  # warm up
        assert traced_peak(
            lambda: list(sampled_runs(env, start, 16, 10.0, 2.0, seed=1))
        ) <= 4 * 2**20


class _Listed(EnvironmentModel):
    """Hands out the given paths in turn, whatever the stream."""

    def __init__(self, paths):
        self.paths = iter(paths)
        self.horizon = len(paths[0])

    def sample_path(self, from_round, to_round, rng):
        return next(self.paths)


class _Redrawn(EnvironmentModel):
    """Copies of a replay's shocks, built anew on every draw."""

    def __init__(self, replay):
        self.replay, self.horizon = replay, replay.horizon

    def sample_path(self, from_round, to_round, rng):
        return SamplePath(shocks=tuple(
            dataclasses.replace(s) for s in self.replay.sample_path(
                from_round, to_round, rng)
        ))


class TestOrderedMap:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_results_keep_item_order(self, threads):
        assert list(ordered_map(lambda x: x * x, range(20), threads)) == [
            x * x for x in range(20)
        ]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_workers_run_at_most_twice_their_count_ahead(self, threads):
        started = []

        def square(x):
            started.append(x)
            time.sleep(1e-3)
            return x * x

        ahead = []
        for k, y in enumerate(ordered_map(square, range(40), threads)):
            assert y == k * k
            ahead.append(len(started) - (k + 1))
            time.sleep(3e-3)  # a consumer slower than the workers
        assert max(ahead) <= 2 * threads
        assert (max(ahead) > 0) == (threads > 1)


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
    runs = list(sampled_runs(hub_env, SystemState.empty(3), 4, 2.0, 2.0, seed=0))
    values = [v for v, _ in runs]
    assert values == [values[0]] * 4
    first_steps = runs[0][1]
    assert runs[1][1] is first_steps  # memoized solve, not recomputed


def test_memo_keys_paths_by_shock_identity(hub_env):
    shared = hub_env.sample_path(1, 2, None)
    same = SamplePath(shocks=shared.shocks)
    copied = SamplePath(shocks=tuple(
        ShockRealization(
            round=s.round,
            external_liabilities=s.external_liabilities.copy(),
            external_assets=s.external_assets.copy(),
            internal_liabilities=s.internal_liabilities.copy(),
        )
        for s in shared
    ))
    solved = []

    def solve(_, path):
        solved.append(path)
        return value_given_sample_path(SystemState.empty(3), path, 2.0, 2.0)[0]

    values = list(per_sample(_Listed([shared, same, copied]), 3, 0, solve))
    assert solved == [shared, copied]  # equal content, new objects: solved again
    assert values == [values[0]] * 3
