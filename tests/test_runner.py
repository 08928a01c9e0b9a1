import csv
import dataclasses
import hashlib
import json
import math
import os
import stat
import threading
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dynclear.fractional
from dynclear import (
    CertificateError,
    ConfigError,
    PolicyStepResult,
    ReplayEnvironment,
    SbmEnvironment,
    SbmParams,
    SolverError,
    SystemState,
    horizon,
    load_config,
    run_experiment,
    runner,
    summarize_scatter,
    value_given_sample_path,
)
from dynclear.cli import main as cli_main
from dynclear.runner import _ols

from conftest import (
    deep_constant_proportion_path,
    redrawn_asset_instance,
    same_bits,
    sbm100_instance,
    traced_peak,
    write_config,
    write_path_replay,
)


def _one_round_sums(samples):
    """One round; ``samples`` lists each sample's per-node
    (payment, intervention, beta) triples.  Returns the arguments of
    :func:`summarize_scatter`: the (samples, n) sums over the round."""
    values = np.array(samples, dtype=float)  # (samples, n, 3)
    return values[..., 0], values[..., 1], values[..., 2], 1


def _rows_from_xy(points):
    """One sample, one round, one node per (payment, intervention) pair."""
    return _one_round_sums([[(x, y, 0.1 * i) for i, (x, y) in enumerate(points)]])


def _steps(rounds, totals, cleared, z, beta, rewards):
    """One sample's steps from its (rounds, n) arrays and (rounds,) rewards."""
    return [
        PolicyStepResult(round=t, totals=totals[k], clearing=cleared[k],
                         intervention=z[k], reward=float(rewards[k]),
                         beta=beta[k])
        for k, t in enumerate(rounds)
    ]


class TestSummarizeScatter:
    def test_perfectly_linear_points(self):
        rows = _rows_from_xy([(x, 2 * x + 1) for x in (0.0, 1.0, 2.0, 3.0)])
        scatter = summarize_scatter(*rows)
        assert scatter.payments_fit.slope == pytest.approx(2.0)
        assert scatter.payments_fit.intercept == pytest.approx(1.0)
        assert scatter.payments_fit.r_squared == pytest.approx(1.0)
        assert not scatter.payments_fit.degenerate

    def test_three_point_hand_fit(self):
        scatter = summarize_scatter(*_rows_from_xy([(1, 1), (2, 2), (3, 2)]))
        assert scatter.payments_fit.slope == pytest.approx(0.5)
        assert scatter.payments_fit.r_squared == pytest.approx(0.75)

    def test_constant_regressor_is_flagged(self):
        fit = _ols(np.array([2.0, 2.0, 2.0]), np.array([1.0, 5.0, 9.0]))
        assert fit.degenerate
        assert fit.slope == 0.0 and fit.r_squared == 0.0

    def test_node_averages_over_samples(self):
        rows = _one_round_sums([[(1, 1, 0.0), (3, 3, 0.1)],
                                [(3, 3, 0.0), (5, 5, 0.1)]])
        scatter = summarize_scatter(*rows)
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
        contents = {k: Path(v).read_bytes() for k, v in first.items()}
        _, second = run_experiment(load_config(config_path))
        for key, path in second.items():
            assert Path(path).read_bytes() == contents[key]

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
        summary = json.loads(Path(files["summary"]).read_text(encoding="utf-8"))
        assert summary["certificate"]["valid"] is True


def _read_table(path):
    """A numeric CSV table without its header row."""
    with open(path, encoding="utf-8", newline="") as handle:
        return np.array([[float(v) for v in row]
                         for row in list(csv.reader(handle))[1:]])


class TestOutputTables:
    """rewards.csv, interventions.csv, scatter.csv and gini.csv are
    reductions of trace.csv and summary.json."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"fairness": {"kind": "spatial", "g": 0.5}, "paired_pof": True},
            {"mode": "discrete", "budget": 1.0, "caps": 1.0, "retries": 8},
            {"mode": "horizon_lp"},
        ],
        ids=["fractional", "discrete", "horizon_lp"],
    )
    def test_tables_agree_with_the_trace(self, tmp_path, overrides):
        _, files = run_experiment(
            load_config(write_config(tmp_path, samples=3, **overrides))
        )
        trace = _read_table(files["trace"])
        samples, rounds = 3, 2
        n = len(trace) // (samples * rounds)
        # rows run in (sample, round, node) order
        trace = trace.reshape(samples, rounds, n, 7)
        rewards = trace[:, :, 0, 6]
        z_totals = trace[:, :, :, 5].sum(axis=2)
        close = dict(rel=1e-12, abs=1e-12)

        table = _read_table(files["rewards"])
        assert table[:, 0].tolist() == [1.0, 2.0]
        assert table[:, 1] == pytest.approx(rewards.mean(axis=0), **close)
        stderr = rewards.std(axis=0, ddof=1) / np.sqrt(samples)
        assert table[:, 2] == pytest.approx(stderr, **close)

        table = _read_table(files["interventions"])
        assert table[:, 1] == pytest.approx(z_totals.mean(axis=0), **close)

        table = _read_table(files["scatter"])
        assert table[:, 0].tolist() == list(range(n))
        for column, k in ((1, 4), (2, 5)):
            per_node = trace[:, :, :, k].sum(axis=1).mean(axis=0)
            assert table[:, column] == pytest.approx(per_node, **close)

        summary = json.loads(Path(files["summary"]).read_text(encoding="utf-8"))
        if "fairness" in overrides:
            with open(files["gini"], encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            fairness = summary["fairness"]
            assert rows == [
                [str(t), fairness["kind"], repr(fairness["g"]), repr(g)]
                for t, g in zip((1, 2), fairness["gini_per_round"])
            ]
        else:
            assert "gini" not in files

    def test_discrete_outputs_are_byte_identical_across_threads(self, tmp_path):
        # distinct SBM paths, so both the relaxed solves and the rounding
        # run on the worker pool
        config = str(tmp_path / "config.json")
        with open(config, "w", encoding="utf-8") as handle:
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
                    "budget": 2.0,
                    "caps": 1.0,
                    "mode": "discrete",
                    "samples": 6,
                    "seed": 99,
                    "out_dir": "unused",
                },
                handle,
            )
        dirs = [str(tmp_path / d) for d in ("serial", "parallel")]
        for out_dir, threads in zip(dirs, ("1", "3")):
            assert cli_main(
                ["run", config, "--out-dir", out_dir, "--threads", threads]
            ) == 0
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        for name in names:
            first = Path(dirs[0], name).read_bytes()
            second = Path(dirs[1], name).read_bytes()
            assert first == second, f"{name} differs across thread counts"


#: Float cells every writer test draws from, repeats included: signed zeros,
#: the smallest subnormal, both exponent notations, infinities and two NaNs
#: with different payloads.
SPECIAL_FLOATS = (
    -0.0, 0.0, 5e-324, 1e-5, 1e16, 0.1, -2.5, 1 / 3, math.inf, -math.inf,
    math.nan, float(np.array(0x7FF8000000000001, np.int64).view(np.float64)),
)


def _row_wise(header, columns) -> str:
    """The text the row-wise writer gave: ``str`` of every value, rows
    joined by commas."""
    rows = [",".join(map(str, row)) for row in zip(*columns)]
    return "\n".join([",".join(header), *rows]) + "\n"


@st.composite
def float_arrays(draw, size):
    """A float array of ``size`` cells drawn with repeats from a small pool
    of special and arbitrary floats."""
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                         min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size,
                          max_size=size))
    return np.array([pool[i] for i in picks], dtype=float)


def test_outputs_get_the_mode_of_a_plain_open(tmp_path):
    umask = os.umask(0o022)
    try:
        with open(tmp_path / "plain", "w", encoding="utf-8"):
            pass
        runner.write_atomic(str(tmp_path / "atomic"), "x")
    finally:
        os.umask(umask)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("plain", "atomic")]
    assert modes[1] == modes[0]


class TestColumnWriter:
    """``_write_csv`` writes exactly the text of the row-wise writer it
    replaced: ``str`` of every cell, one repr per distinct float."""

    @settings(max_examples=60)
    @given(data=st.data(), rows=st.integers(0, 12), floats=st.integers(1, 3))
    def test_columns_match_row_wise_text(self, tmp_path_factory, data, rows,
                                         floats):
        arrays = [data.draw(float_arrays(rows)) for _ in range(floats)]
        ints = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=rows,
                                  max_size=rows))
        kinds = data.draw(st.lists(st.sampled_from(["spatial", "standard"]),
                                   min_size=rows, max_size=rows))
        header = ["t", "kind", *(f"x{k}" for k in range(floats))]
        path = str(tmp_path_factory.mktemp("table") / "table.csv")
        runner._write_csv(path, header, runner._cells(ints, kinds, *arrays))
        with open(path, encoding="utf-8", newline="") as handle:
            text = handle.read()
        assert text == _row_wise(
            header, [ints, kinds, *(a.tolist() for a in arrays)]
        )
        # arrays formatted together keep each one's cells apart
        joint = runner._float_cells(*arrays)
        assert joint == [list(map(str, a.tolist())) for a in arrays]

    @settings(max_examples=30)
    @given(data=st.data(), shape=st.tuples(st.integers(1, 3), st.integers(1, 3),
                                           st.integers(1, 4)))
    def test_every_table_matches_row_wise_text(self, tmp_path_factory, data,
                                               shape):
        samples, rounds, n = shape
        # finite z, so its per-round sums raise no invalid-value warning
        finite = [x for x in SPECIAL_FLOATS if math.isfinite(x) and abs(x) < 1e6]
        ts = list(range(1, rounds + 1))
        totals, cleared = (data.draw(float_arrays(samples * rounds * n))
                           .reshape(shape) for _ in range(2))
        interventions = np.array(data.draw(st.lists(
            st.sampled_from(finite), min_size=samples * rounds * n,
            max_size=samples * rounds * n))).reshape(shape)
        rewards = data.draw(float_arrays(samples * rounds)).reshape(shape[:2])
        # a sample may hold the previous sample's steps, as a replay does
        runs = []
        for k, again in enumerate(data.draw(st.lists(
                st.booleans(), min_size=samples, max_size=samples))):
            if k and again:
                for a in (totals, cleared, interventions, rewards):
                    a[k] = a[k - 1]
                runs.append((None, runs[-1][1]))
            else:
                runs.append((None, _steps(ts, totals[k], cleared[k],
                                          interventions[k], np.zeros((rounds, n)),
                                          rewards[k])))
        fit = runner.OlsFit(0.0, 0.0, 0.0, True)
        scatter = runner.ScatterSummary(
            nodes=np.arange(n), total_payments=data.draw(float_arrays(n)),
            total_interventions=data.draw(float_arrays(n)),
            mean_beta=data.draw(float_arrays(n)),
            payments_fit=fit, connectivity_fit=fit,
        )
        per_round = data.draw(float_arrays(rounds)).tolist()
        report = runner.SummaryReport(
            mode="fractional", samples=samples, seed=0, budget=1.0,
            horizon=rounds, total_value_mean=0.0, total_value_stderr=0.0,
            per_round_rewards=tuple(per_round), scatter=scatter,
            gini_per_round=tuple(data.draw(float_arrays(rounds)).tolist()),
            fairness_kind="spatial", fairness_cap=0.5,
        )
        reward_stderr = data.draw(float_arrays(rounds)).tolist()
        out_dir = str(tmp_path_factory.mktemp("out"))
        kept = []
        runner.write_atomic(os.path.join(out_dir, "trace.csv"),
                            runner._trace_blocks(runs, kept))
        round_z = np.array([reduced[4] for reduced in kept])
        files = runner.emit_plot_data(report, out_dir, ts, reward_stderr,
                                      runner._per_round(round_z).mean(axis=1))
        files["trace"] = os.path.join(out_dir, "trace.csv")

        sample, t, node = np.indices(shape)
        mean_z = interventions.sum(axis=2).T.mean(axis=1)
        expected = {
            "trace": (
                ["sample", "t", "node", "P", "p_tilde", "z", "reward"],
                [c.ravel().tolist() for c in (
                    sample, np.array(ts)[t], node, totals, cleared,
                    interventions, np.broadcast_to(rewards[..., None], shape))],
            ),
            "rewards": (["t", "mean_reward", "stderr"],
                        [ts, per_round, reward_stderr]),
            "interventions": (["t", "mean_total_interventions"],
                              [ts, mean_z.tolist()]),
            "scatter": (
                ["node", "total_payments", "total_interventions", "mean_beta"],
                [scatter.nodes.tolist(), scatter.total_payments.tolist(),
                 scatter.total_interventions.tolist(), scatter.mean_beta.tolist()],
            ),
            "gini": (["t", "kind", "g", "gc_realized"],
                     [ts, ["spatial"] * rounds, [0.5] * rounds,
                      list(report.gini_per_round)]),
        }
        for name, (header, columns) in expected.items():
            with open(files[name], encoding="utf-8", newline="") as handle:
                assert handle.read() == _row_wise(header, columns), name


#: sha256 of every file three runs write, recorded with the row-wise CSV
#: writer, before the tables were written column by column: the shipped
#: fractional config, and the hub replay of ``conftest.write_config`` in
#: ``horizon_lp`` mode and in paired spatial-fairness mode.
GOLDEN_DIGESTS = {
    "three_node_fractional": {
        "PLOTS_README.md": "7f98fed61f8e21f1410c1d0ea1f032362c1a45fbc1dc5c3af9803e623693c313",
        "interventions.csv": "12c1b2c215674f8032109db81aaf7fc89a0fcc7d23ca5b1a32829b7f516eab6f",
        "rewards.csv": "a554e7851c8520f47207b5c8703d60da132527d944f10f6777efb6ad72bf0a30",
        "scatter.csv": "86dfc9c82e8ebf32ccd0c5876e8f77c5d0e34753e661532dd9afc8b39c1be4ac",
        "summary.json": "d4f7e8bbde97f058407331f1204a289f7b7d9ae64faef1115556d39273f601e0",
        "trace.csv": "4298db00bec20bd440cf71b61fc9e392e4086281b1c53bff5caf475d0c0c3eeb",
    },
    "hub_horizon_lp": {
        "PLOTS_README.md": "7f98fed61f8e21f1410c1d0ea1f032362c1a45fbc1dc5c3af9803e623693c313",
        "interventions.csv": "12c1b2c215674f8032109db81aaf7fc89a0fcc7d23ca5b1a32829b7f516eab6f",
        "rewards.csv": "a554e7851c8520f47207b5c8703d60da132527d944f10f6777efb6ad72bf0a30",
        "scatter.csv": "86dfc9c82e8ebf32ccd0c5876e8f77c5d0e34753e661532dd9afc8b39c1be4ac",
        "summary.json": "521bb0ea5e9253901ead6ff6687be0a65a5914a48c5096beb096ac347e1b352a",
        "trace.csv": "104d6076c8e438b23efc1d62be479ebb9a094e8e715fbf0773ecb5f858cf0a1e",
    },
    "hub_spatial_fairness": {
        "PLOTS_README.md": "7f98fed61f8e21f1410c1d0ea1f032362c1a45fbc1dc5c3af9803e623693c313",
        "gini.csv": "2ac4152eb5ab0918ff6005713b49795af485bc5dad3de800a03fde1bd2b91b34",
        "interventions.csv": "12c1b2c215674f8032109db81aaf7fc89a0fcc7d23ca5b1a32829b7f516eab6f",
        "pof.csv": "0b305189534f104c2a755a19e7286891932c81bc97ede63037e21e0e6cde92cb",
        "rewards.csv": "9226c7cd0dbcd7fcdda0f619b2aa54051287ced25cf60cf312b51d17d679bb4c",
        "scatter.csv": "24780ea6d010a7bc8c216f63492d3e671f006fb4c0fff48a92ae8e0c1501740e",
        "summary.json": "5e524366119c9d39880fb6f0d23ad9c997b5223d4418ce41b1688afac829911e",
        "trace.csv": "20cca30aa7340c29784b65302528d71373446a14e9f94cc22a988f0319c61ae4",
    },
}


@pytest.mark.parametrize("run", sorted(GOLDEN_DIGESTS))
def test_outputs_match_golden_digests(tmp_path, run):
    if run == "three_node_fractional":
        config = dataclasses.replace(
            load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                     "three_node", "fractional.json")),
            out_dir=str(tmp_path / "out"),
        )
    else:
        overrides = (
            {"mode": "horizon_lp"} if run == "hub_horizon_lp"
            else {"fairness": {"kind": "spatial", "g": 0.5}, "paired_pof": True}
        )
        config = load_config(write_config(tmp_path, budget=2.0, **overrides))
    _, files = run_experiment(config)
    digests = {
        os.path.basename(path): hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for path in files.values()
    }
    assert digests == GOLDEN_DIGESTS[run]


class TestHorizonLpMode:
    def test_replayed_path_is_solved_once(self, tmp_path, monkeypatch):
        lps = []
        solve = runner.solve_horizon_primal

        def counting(*args):
            lps.append(args)
            return solve(*args)

        monkeypatch.setattr(runner, "solve_horizon_primal", counting)
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

    def test_a_schedule_below_the_maximal_clearing_is_refused(self, tmp_path):
        # the horizon LP of this path is worth 132.47 against the sequential
        # 131.59: it lets a solvent node pay late, which the dynamics do not
        path, budget, caps = redrawn_asset_instance(10)
        config = write_config(tmp_path, mode="horizon_lp", budget=budget,
                              caps=caps.tolist())
        write_path_replay(tmp_path, path)
        with pytest.raises(CertificateError,
                           match=r"sample 0 .* maximal clearing in round \d"):
            run_experiment(load_config(config))
        assert cli_main(["run", config]) == 3

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_highs_schedules_of_deep_paths_replay_as_the_dynamics(self, seed):
        # every node stays in default, so each optimum of the horizon LP is
        # a maximal-clearing trajectory and the replay check never fires
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        path = deep_constant_proportion_path(rng, n, int(rng.integers(1, 5)))
        budget, caps = float(rng.uniform(0.0, 4.0)), rng.uniform(0.0, 3.0, n)
        env = ReplayEnvironment(shocks=path.shocks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(horizon, "_closed_form_horizon", lambda *args: None)
            [((value, _, gap), _)] = runner._horizon_lp_runs(
                env, None, 1, budget, caps, 0)
        sequential, _ = value_given_sample_path(
            SystemState.empty(n), path, budget, caps)
        assert value == pytest.approx(sequential, abs=1e-6)
        assert gap <= 1e-6

    @pytest.mark.parametrize("budget", [0.0, 1.0])
    def test_trace_writes_no_negative_zero(self, tmp_path, monkeypatch, budget):
        # HiGHS may return -0.0 for a zero intervention: make every zero one
        solve = runner.solve_horizon_primal

        def signed_zeros(*args):
            sol = solve(*args)
            z = np.where(sol.interventions == 0.0, -0.0, sol.interventions)
            return dataclasses.replace(sol, interventions=z)

        monkeypatch.setattr(runner, "solve_horizon_primal", signed_zeros)
        config = load_config(
            write_config(tmp_path, mode="horizon_lp", budget=budget, caps=1.0)
        )
        _, files = run_experiment(config)
        with open(files["trace"], encoding="utf-8", newline="") as handle:
            z_column = [row[5] for row in list(csv.reader(handle))[1:]]
        assert "0.0" in z_column
        assert "-0.0" not in z_column

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


class TestStreamedRun:
    """``run_experiment`` reduces each sample's steps as they arrive, with
    the expressions the (samples, rounds, n) stack of every step gave."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 7, 8, 9, 17, 100, 130]),
           samples=st.integers(1, 300), rounds=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, samples=300, rounds=10, seed=0)
    @example(n=1, samples=257, rounds=10, seed=1)
    def test_reductions_equal_the_stacked_ones(self, n, samples, rounds, seed):
        rounds = max(1, min(rounds, 40_000 // (n * samples)))
        shape = (samples, rounds, n)
        rng = np.random.default_rng(seed)
        cleared, z, beta = (rng.standard_normal(shape)
                            * 10.0 ** rng.integers(-3, 4, shape)
                            for _ in range(3))
        ts = list(range(1, rounds + 1))
        kept = []
        deque(runner._trace_blocks(
            ((k, _steps(ts, cleared[k], cleared[k], z[k], beta[k],
                        np.zeros(rounds))) for k in range(samples)),
            kept), maxlen=0)
        records, _, _, _, round_z, payments, interventions, betas = map(
            np.array, zip(*kept))
        assert records.tolist() == list(range(samples))
        assert same_bits(payments, cleared.sum(axis=1))
        assert same_bits(interventions, z.sum(axis=1))
        assert same_bits(betas, beta.sum(axis=1))
        assert same_bits(round_z, z.sum(axis=2))
        scatter = summarize_scatter(payments, interventions, betas, rounds)
        assert same_bits(scatter.total_payments, cleared.sum(axis=1).mean(axis=0))
        assert same_bits(scatter.total_interventions, z.sum(axis=1).mean(axis=0))
        assert same_bits(scatter.mean_beta, beta.sum(axis=1).mean(axis=0) / rounds)
        assert same_bits(runner._per_round(round_z).mean(axis=1),
                          runner._per_round(z.sum(axis=2)).mean(axis=1))

    def test_memory_is_flat_in_samples(self, tmp_path):
        # the discrete_sbm100 instance over 3 rounds; HiGHS's first import
        # allocates about 23 MB, so it is made before tracing
        import scipy.optimize._highspy._core  # noqa: F401
        env, _ = sbm100_instance()
        config = load_config(write_config(tmp_path, mode="discrete", budget=10.0,
                                          caps=2.0, seed=1, horizon=3))
        run_experiment(dataclasses.replace(config, samples=1), env)  # warm up
        peaks = {
            samples: traced_peak(lambda: run_experiment(dataclasses.replace(
                config, samples=samples, out_dir=str(tmp_path / str(samples))),
                env))
            for samples in (16, 256)
        }
        assert (peaks[256] - peaks[16]) / 240 < 0.05 * 2**20

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_failed_run_leaves_an_existing_out_dir_as_it_was(
        self, tmp_path, monkeypatch, threads
    ):
        env = SbmEnvironment(
            params=SbmParams(n_core=3, n_periphery=9,
                             block_probs=np.array([[0.7, 0.4], [0.4, 0.1]])),
            horizon=3,
        )
        config = load_config(write_config(tmp_path, samples=5, threads=threads))
        out = Path(config.out_dir)
        run_experiment(config, env)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        calls, lock = [], threading.Lock()
        solve = dynclear.fractional.value_given_sample_path

        def failing(*args):
            with lock:  # workers call it concurrently at threads 2
                calls.append(args)
                third = len(calls) == 3
            if third:
                raise SolverError("the third solve fails")
            return solve(*args)

        monkeypatch.setattr(dynclear.fractional, "value_given_sample_path",
                            failing)
        with pytest.raises(SolverError, match="third solve"):
            run_experiment(dataclasses.replace(config, seed=config.seed + 1), env)
        assert len(calls) >= 3
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
