"""Acceptance suite: every release-gating check at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from dynclear import (
    FairnessSpec,
    SamplePath,
    SbmEnvironment,
    SbmParams,
    ShockRealization,
    SystemState,
    aggregate_discrete,
    aggregate_value,
    brute_force_discrete,
    check_constant_proportions,
    clear_fixed_point,
    clear_lp,
    load_replay,
    price_of_fairness,
    required_samples,
    sample_interventions,
    simulate_action_batch,
    solve_horizon_dual,
    solve_horizon_primal,
    value_given_sample_path,
)
from dynclear.cli import main as cli_main
from dynclear.clearing import ROUTE_AGREEMENT_TOL
from dynclear.environments import EnvironmentModel, ReplayEnvironment
from dynclear.fractional import sampled_runs

from conftest import (
    deep_constant_proportion_path,
    hub_path,
    random_clearing_instance,
    random_general_path,
    write_config,
    write_hub_replay,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    print(f"criterion {number:2d} [{description}]: PASS")


def test_criterion_1_zero_input_golden_example(tmp_path):
    with criterion(1, "zero-input golden example"):
        started = time.perf_counter()
        internal, external = write_hub_replay(tmp_path)
        env = load_replay(internal, external)
        path = env.sample_path(1, 2, np.random.default_rng(0))
        value, steps = value_given_sample_path(
            SystemState.empty(3), path, 0.0, 0.0
        )
        elapsed = time.perf_counter() - started
        assert value == pytest.approx(10 / 3, abs=1e-6)
        assert steps[0].reward == pytest.approx(5 / 3, abs=1e-6)
        assert steps[1].reward == pytest.approx(5 / 3, abs=1e-6)
        np.testing.assert_allclose(
            steps[1].totals, [5.0, 5 / 3, 5 / 3], atol=1e-9
        )
        assert elapsed < 1.0


def test_criterion_2_fractional_golden_example(tmp_path):
    with criterion(2, "fractional golden example"):
        from dynclear import load_config, run_experiment

        config = load_config(write_config(tmp_path, budget=2.0, caps=3.0))
        report, _ = run_experiment(config)
        assert report.total_value_mean == pytest.approx(10.0, abs=1e-6)
        assert report.per_round_rewards == pytest.approx((5.0, 5.0), abs=1e-6)


def test_criterion_3_discrete_golden_example(hub_env):
    with criterion(3, "discrete golden example"):
        start = SystemState.empty(3)
        value, actions = brute_force_discrete(start, hub_path(2), 1.0, 1.0)
        assert value == pytest.approx(20 / 3, abs=1e-6)
        for action in actions:
            np.testing.assert_array_equal(action, [1, 0, 0])
        mean, reports = aggregate_discrete(
            hub_env, start, 5, budget=1.0, caps=1.0, seed=123
        )
        assert mean == pytest.approx(20 / 3, abs=1e-6)
        assert all(r.value_sol == pytest.approx(20 / 3, abs=1e-6) for r in reports)
        assert all(r.attempts == 1 for r in reports)


def test_criterion_4_clearing_route_equivalence():
    with criterion(4, "fixed point vs LP on 100 instances"):
        started = time.perf_counter()
        rng = np.random.default_rng(4040)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            matrix, totals, assets = random_clearing_instance(rng, n)
            support = rng.uniform(0, 1, n) * (rng.random() < 0.5)
            gap = np.abs(
                clear_fixed_point(matrix, totals, assets, support)
                - clear_lp(matrix, totals, assets, support)
            ).max()
            assert gap <= ROUTE_AGREEMENT_TOL
        assert time.perf_counter() - started < 10.0


def test_criterion_5_rounding_approximation_ratio():
    with criterion(5, "randomized-rounding ratio on 50 instances"):
        started = time.perf_counter()
        for index in range(50):
            rng = np.random.default_rng((5150, index))
            n = int(rng.integers(2, 5))
            rounds = int(rng.integers(1, 4))
            budget = float(rng.integers(1, 4))
            caps = rng.integers(1, 3, n).astype(float)
            path = deep_constant_proportion_path(rng, n, rounds)
            start = SystemState.empty(n)
            v_rel, steps = value_given_sample_path(start, path, budget, caps)
            v_opt, _ = brute_force_discrete(start, path, budget, caps)
            assert v_rel >= v_opt - 1e-9  # relaxation dominance
            gamma = max(float(s.beta.max()) for s in steps)
            schedule = [s.intervention for s in steps]
            draws = np.zeros((200, rounds, n))
            for d in range(200):
                actions, _ = sample_interventions(
                    schedule, caps, budget, tau=1, rng=rng
                )
                draws[d] = np.stack([a.amounts for a in actions])
            mean_rounded = float(
                simulate_action_batch(start, path, draws).mean()
            )
            assert mean_rounded >= (1.0 - gamma) * v_opt - 1e-6
        assert time.perf_counter() - started < 120.0


def test_criterion_6_myopic_matches_horizon():
    with criterion(6, "sequential equals horizon LP on 30 instances"):
        for index in range(30):
            rng = np.random.default_rng((6060, index))
            n = int(rng.integers(2, 6))
            rounds = int(rng.integers(2, 5))
            budget = float(rng.integers(0, 4))
            caps = rng.integers(1, 3, n).astype(float)
            path = deep_constant_proportion_path(rng, n, rounds)
            cert = check_constant_proportions(path)
            assert cert.valid
            sequential, _ = value_given_sample_path(
                SystemState.empty(n), path, budget, caps
            )
            primal = solve_horizon_primal(path, budget, caps, cert)
            dual = solve_horizon_dual(path, budget, caps, cert)
            assert abs(sequential - primal.value) <= 1e-6
            assert abs(primal.value - dual.value) <= 1e-6


def test_criterion_7_fairness_band_on_synthetic_network():
    with criterion(7, "capped inequality and price of fairness"):
        started = time.perf_counter()
        params = SbmParams(
            n_core=10,
            n_periphery=40,
            block_probs=np.array([[0.6, 0.35], [0.35, 0.1]]),
            liability_rate=1.0,
            asset_level=0.0,
        )
        env = SbmEnvironment(params=params, horizon=10)
        start = SystemState.empty(50)
        spec = FairnessSpec(kind="spatial", g=0.5)
        constrained = list(sampled_runs(
            env, start, 10, 50.0, 50.0, fairness=spec, seed=0
        ))
        unconstrained = list(sampled_runs(env, start, 10, 50.0, 50.0, seed=0))
        worst_gini = max(
            step.gini for _, steps in constrained for step in steps
        )
        assert worst_gini <= 0.5 + 1e-6
        pof = price_of_fairness(
            float(np.mean([v for v, _ in unconstrained])),
            float(np.mean([v for v, _ in constrained])),
        )
        assert 1.0 <= pof <= 1.1
        assert time.perf_counter() - started < 300.0


class _HubMixture(EnvironmentModel):
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
        return max(
            self.hot.shock_norm_bound(), self.cold.shock_norm_bound()
        )


def test_criterion_8_monte_carlo_concentration():
    with criterion(8, "sample-count bound concentrates the estimate"):
        env = _HubMixture()
        n_samples = required_samples(
            delta=0.05, epsilon=0.1, horizon_len=2,
            shock_norm_bound=env.shock_norm_bound(),
        )
        assert n_samples == 18445  # log(40) * 4 * 25 / 0.02, rounded up
        start = SystemState.empty(3)
        hits = 0
        for trial in range(100):
            estimate = aggregate_value(
                env, start, n_samples, 0.0, 0.0, seed=trial
            )
            hits += int(abs(estimate.mean - 5 / 3) <= 0.1)
        assert hits >= 90


def test_criterion_9_value_monotone_in_budget():
    with criterion(9, "value nondecreasing in the budget"):
        for index in range(20):
            rng = np.random.default_rng((909, index))
            n = int(rng.integers(2, 5))
            rounds = int(rng.integers(2, 4))
            path = random_general_path(rng, n, rounds)
            env = ReplayEnvironment(shocks=path.shocks)
            start = SystemState.empty(n)
            grid = [0.0, 1.0, 2.0, 5.0, env.shock_norm_bound() + 1.0]
            values = [
                aggregate_value(env, start, 3, budget, budget, seed=index).mean
                for budget in grid
            ]
            for low, high in zip(values, values[1:]):
                assert high >= low - 1e-6


def test_criterion_10_thread_count_invariance(tmp_path):
    with criterion(10, "byte-identical traces across worker counts"):
        config_path = os.path.join(tmp_path, "config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "environment": {
                        "kind": "sbm_core_periphery",
                        "n_core": 3,
                        "n_periphery": 7,
                        "block_probs": [[0.6, 0.35], [0.35, 0.1]],
                        "asset_level": 0.1,
                    },
                    "horizon": 3,
                    "budget": 4.0,
                    "caps": 2.0,
                    "mode": "fractional",
                    "samples": 6,
                    "seed": 99,
                    "out_dir": "unused",
                },
                handle,
            )
        dirs = [os.path.join(tmp_path, d) for d in ("serial", "parallel")]
        assert cli_main(
            ["run", config_path, "--out-dir", dirs[0], "--threads", "1"]
        ) == 0
        assert cli_main(
            ["run", config_path, "--out-dir", dirs[1], "--threads", "3"]
        ) == 0
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        for name in names:
            first = Path(dirs[0], name).read_bytes()
            second = Path(dirs[1], name).read_bytes()
            assert first == second, f"{name} differs across thread counts"
