import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from dynclear import (
    ConfigError,
    SolverError,
    horizon,
    load_config,
    run_experiment,
    runner,
    summarize_scatter,
)
from dynclear.runner import TraceRow, _ols

from conftest import write_config


def _rows_from_xy(points):
    """One sample, one round, one node per (payment, intervention) pair."""
    return [
        TraceRow(
            sample=0, round=1, node=i, totals=10.0, cleared=float(x),
            intervention=float(y), reward=0.0, beta=0.1 * i,
        )
        for i, (x, y) in enumerate(points)
    ]


class TestSummarizeScatter:
    def test_perfectly_linear_points(self):
        rows = _rows_from_xy([(x, 2 * x + 1) for x in (0.0, 1.0, 2.0, 3.0)])
        scatter = summarize_scatter(rows)
        assert scatter.payments_fit.slope == pytest.approx(2.0)
        assert scatter.payments_fit.intercept == pytest.approx(1.0)
        assert scatter.payments_fit.r_squared == pytest.approx(1.0)
        assert not scatter.payments_fit.degenerate

    def test_three_point_hand_fit(self):
        scatter = summarize_scatter(_rows_from_xy([(1, 1), (2, 2), (3, 2)]))
        assert scatter.payments_fit.slope == pytest.approx(0.5)
        assert scatter.payments_fit.r_squared == pytest.approx(0.75)

    def test_constant_regressor_is_flagged(self):
        fit = _ols(np.array([2.0, 2.0, 2.0]), np.array([1.0, 5.0, 9.0]))
        assert fit.degenerate
        assert fit.slope == 0.0 and fit.r_squared == 0.0

    def test_node_averages_over_samples(self):
        rows = _rows_from_xy([(1, 1), (3, 3)])
        rows += [
            TraceRow(sample=1, round=1, node=0, totals=10.0, cleared=3.0,
                     intervention=3.0, reward=0.0, beta=0.0),
            TraceRow(sample=1, round=1, node=1, totals=10.0, cleared=5.0,
                     intervention=5.0, reward=0.0, beta=0.1),
        ]
        scatter = summarize_scatter(rows)
        np.testing.assert_allclose(scatter.total_payments, [2.0, 4.0])


class TestRunExperiment:
    def test_fractional_hub_run(self, tmp_path):
        config = load_config(write_config(tmp_path, budget=2.0))
        report, files = run_experiment(config)
        assert report.total_value_mean == pytest.approx(10.0, abs=1e-6)
        assert report.per_round_rewards == pytest.approx((5.0, 5.0), abs=1e-6)
        for name in ("trace", "rewards", "interventions", "scatter", "summary",
                     "plots_readme"):
            assert os.path.exists(files[name])
        with open(files["rewards"], encoding="utf-8") as handle:
            assert len(handle.read().strip().splitlines()) == 1 + 2  # header + T

    def test_summary_total_matches_trace(self, tmp_path):
        config = load_config(write_config(tmp_path, budget=1.0, samples=2))
        report, files = run_experiment(config)
        with open(files["trace"], encoding="utf-8") as handle:
            lines = handle.read().strip().splitlines()[1:]
        per_sample_round = {}
        for line in lines:
            sample, t, node, _, _, _, reward = line.split(",")
            per_sample_round[(int(sample), int(t))] = float(reward)
        totals = {}
        for (sample, _), reward in per_sample_round.items():
            totals[sample] = totals.get(sample, 0.0) + reward
        assert np.mean(list(totals.values())) == pytest.approx(
            report.total_value_mean, abs=1e-6
        )

    def test_rerun_is_byte_identical(self, tmp_path):
        config_path = write_config(tmp_path, budget=2.0, samples=4)
        _, first = run_experiment(load_config(config_path))
        contents = {k: open(v, "rb").read() for k, v in first.items()}
        _, second = run_experiment(load_config(config_path))
        for key, path in second.items():
            assert open(path, "rb").read() == contents[key]

    def test_discrete_mode_emits_rounding_table(self, tmp_path):
        config = load_config(
            write_config(tmp_path, mode="discrete", budget=1.0, caps=1.0,
                         retries=8)
        )
        report, files = run_experiment(config)
        assert report.total_value_mean == pytest.approx(20 / 3, abs=1e-6)
        with open(files["rounding"], encoding="utf-8") as handle:
            header = handle.readline().strip()
        assert header == "sample,attempts,feasible,value_sol,value_rel,ratio,bound"

    def test_fairness_run_emits_gini_and_pof(self, tmp_path):
        config = load_config(
            write_config(
                tmp_path,
                budget=2.0,
                fairness={"kind": "spatial", "g": 0.5},
                paired_pof=True,
            )
        )
        report, files = run_experiment(config)
        assert report.gini_per_round is not None
        assert all(g <= 0.5 + 1e-6 for g in report.gini_per_round)
        assert report.pof is not None and report.pof >= 1.0 - 1e-9
        assert os.path.exists(files["gini"])
        with open(files["pof"], encoding="utf-8") as handle:
            assert len(handle.read().strip().splitlines()) == 2  # header + 1 row

    def test_zero_input_mode(self, tmp_path):
        config = load_config(write_config(tmp_path, mode="zero_input", budget=0.0))
        report, _ = run_experiment(config)
        assert report.total_value_mean == pytest.approx(10 / 3, abs=1e-6)

    def test_horizon_lp_mode_reports_certificate(self, tmp_path):
        config = load_config(write_config(tmp_path, mode="horizon_lp", budget=2.0))
        report, files = run_experiment(config)
        assert report.total_value_mean == pytest.approx(10.0, abs=1e-6)
        assert report.certificate_info["valid"]
        assert report.certificate_info["max_duality_gap"] <= 1e-6
        summary = json.load(open(files["summary"], encoding="utf-8"))
        assert summary["certificate"]["valid"] is True


class TestHorizonLpMode:
    def test_replayed_path_is_solved_once(self, tmp_path, monkeypatch):
        lps = []
        solve = horizon.solve_lp

        def counting(lp):
            lps.append(lp)
            return solve(lp)

        monkeypatch.setattr(horizon, "solve_lp", counting)
        config = load_config(
            write_config(tmp_path, mode="horizon_lp", budget=2.0, samples=3)
        )
        _, files = run_experiment(config)
        assert len(lps) == 1
        by_sample = {}
        with open(files["trace"], encoding="utf-8", newline="") as handle:
            for row in list(csv.reader(handle))[1:]:
                by_sample.setdefault(row[0], []).append(row[1:])
        assert sorted(by_sample) == ["0", "1", "2"]
        assert by_sample["0"] and by_sample["0"] == by_sample["1"] == by_sample["2"]

    @pytest.mark.parametrize(
        "budget, caps, nudge, match",
        [
            (2.0, 2.0, "clearing", "clearing"),  # every node pays its totals
            (3.0, 2.0, "intervention", "intervention"),  # node 0 at its cap
            (2.0, 3.0, "intervention", "budget"),  # budget spent, cap slack
            (0.0, 1.0, "intervention", "budget"),  # zero budget
        ],
    )
    def test_replay_repairs_are_bounded(
        self, tmp_path, monkeypatch, budget, caps, nudge, match
    ):
        # on the hub replay the LP pays every total when the budget reaches
        # 2 and gives node 0 min(2, B, L_0): node 0 is the one nudged
        solve = runner.solve_horizon_primal

        def nudged(path, budget, caps, certificate, excess):
            sol = solve(path, budget, caps, certificate)
            if nudge == "clearing":
                return dataclasses.replace(sol, clearing=sol.clearing + excess)
            interventions = sol.interventions.copy()
            interventions[:, 0] += excess
            return dataclasses.replace(sol, interventions=interventions)

        config = load_config(
            write_config(tmp_path, mode="horizon_lp", budget=budget, caps=caps)
        )
        monkeypatch.setattr(
            runner, "solve_horizon_primal",
            lambda *args: nudged(*args, excess=1e-9),
        )
        run_experiment(config)  # noise within LP_REPAIR_TOL is shaved
        monkeypatch.setattr(
            runner, "solve_horizon_primal",
            lambda *args: nudged(*args, excess=1e-6),
        )
        with pytest.raises(SolverError, match=match):
            run_experiment(config)


class TestConfigValidation:
    def test_missing_field_names_the_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mode": "fractional"}')
        with pytest.raises(ConfigError, match="environment"):
            load_config(str(path))

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="mode"):
            load_config(write_config(tmp_path, mode="annealing"))

    def test_retries_only_for_discrete(self, tmp_path):
        with pytest.raises(ConfigError, match="retries"):
            load_config(write_config(tmp_path, retries=9))

    def test_zero_input_needs_zero_budget(self, tmp_path):
        with pytest.raises(ConfigError, match="zero_input"):
            load_config(write_config(tmp_path, mode="zero_input", budget=1.0))

    def test_fairness_unsupported_in_discrete_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="fairness"):
            load_config(
                write_config(tmp_path, mode="discrete", budget=1.0,
                             fairness={"kind": "standard", "g": 0.5})
            )

    def test_paired_pof_needs_fairness(self, tmp_path):
        with pytest.raises(ConfigError, match="paired_pof"):
            load_config(write_config(tmp_path, paired_pof=True))

    def test_property_fairness_needs_attributes(self, tmp_path):
        with pytest.raises(ConfigError, match="fairness.q"):
            load_config(
                write_config(tmp_path, fairness={"kind": "property", "g": 0.5})
            )

    def test_synthetic_environment_needs_horizon(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "environment": {
                        "kind": "sbm_core_periphery",
                        "n_core": 2,
                        "n_periphery": 2,
                        "block_probs": [[0.5, 0.5], [0.5, 0.5]],
                    },
                    "budget": 1.0,
                    "mode": "fractional",
                    "samples": 1,
                    "out_dir": "out",
                }
            )
        )
        with pytest.raises(ConfigError, match="horizon"):
            load_config(str(path))
