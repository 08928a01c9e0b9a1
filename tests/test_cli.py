import json
import os

import pytest

from dynclear.cli import main

from conftest import write_config


def test_validate_ok(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["validate", config]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_missing_replay_file(tmp_path, capsys):
    config = write_config(tmp_path)
    os.unlink(os.path.join(tmp_path, "internal.csv"))
    assert main(["validate", config]) == 2
    assert "no such file" in capsys.readouterr().err


def test_run_writes_outputs(tmp_path, capsys):
    config = write_config(tmp_path, budget=2.0)
    assert main(["run", config]) == 0
    out = capsys.readouterr().out
    assert "value 10.0" in out
    assert os.path.exists(tmp_path / "out" / "trace.csv")


def test_run_with_overrides(tmp_path):
    config = write_config(tmp_path, budget=2.0)
    override_dir = tmp_path / "elsewhere"
    assert main(["run", config, "--seed", "3", "--out-dir", str(override_dir),
                 "--threads", "2"]) == 0
    assert os.path.exists(override_dir / "summary.json")


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_field_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "fractional"}')
    assert main(["run", str(bad)]) == 2


def test_numerical_failure_exit_code(tmp_path, capsys):
    # horizon_lp on a replay whose proportions jump between rounds
    internal = tmp_path / "internal.csv"
    internal.write_text("t,i,j,amount\n1,0,1,1\n2,0,1,3\n")
    external = tmp_path / "external.csv"
    external.write_text("t,i,b,c\n1,0,1,0\n1,1,1,0\n2,0,1,0\n2,1,1,0\n")
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "environment": {
                    "kind": "replay",
                    "internal_csv": "internal.csv",
                    "external_csv": "external.csv",
                },
                "budget": 1.0,
                "mode": "horizon_lp",
                "samples": 1,
                "out_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["run", str(config)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_oracle_reports_exact_optimum(tmp_path, capsys):
    config = write_config(tmp_path, mode="discrete", budget=1.0, caps=1.0)
    assert main(["oracle", config]) == 0
    payload = json.loads((tmp_path / "out" / "oracle.json").read_text())
    assert payload["mean_value"] == pytest.approx(20 / 3, abs=1e-9)
    assert payload["per_sample"][0]["actions"] == [[1, 0, 0], [1, 0, 0]]


def test_oracle_on_the_shipped_discrete_config(tmp_path, capsys):
    config = os.path.join(
        os.path.dirname(__file__), "..", "configs", "three_node", "discrete.json"
    )
    assert main(["oracle", config, "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert sorted(payload) == ["budget", "mean_value", "per_sample", "samples"]
    assert payload["budget"] == 1.0 and payload["samples"] == 5
    assert payload["mean_value"] == pytest.approx(20 / 3, abs=1e-12)
    for i, sample in enumerate(payload["per_sample"]):
        assert sample["sample"] == i
        assert sample["value"] == pytest.approx(20 / 3, abs=1e-12)
        assert sample["actions"] == [[1, 0, 0], [1, 0, 0]]
    assert len(payload["per_sample"]) == 5


def gamma(**fields) -> dict:
    """Overrides for a two-node transaction-count config."""
    env = {"kind": "gamma_transactions", "counts": [[0, 1], [1, 0]],
           "out_counts": [1, 1], "in_counts": [0, 1]}
    return {"environment": {**env, **fields}, "horizon": 2}


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "field, overrides",
    [
        ("caps", {"caps": -1.0}),
        ("caps", {"caps": [1, 2]}),
        ("caps", {"caps": [1, -1, 1]}),
        ("caps", {"caps": ["a", 1, 1]}),
        ("fairness.q", {"fairness": {"kind": "property", "g": 0.5,
                                     "q": ["a", 0, 1]}}),
        ("fairness.q", {"fairness": {"kind": "property", "g": 0.5,
                                     "q": [0.5, 1]}}),
        ("fairness.q", {"fairness": {"kind": "property", "g": 0.5,
                                     "q": [0.5, 1, 2]}}),
        ("environment.block_probs", {
            "environment": {"kind": "sbm_core_periphery", "n_core": 1,
                            "n_periphery": 2, "block_probs": [["a", 1], [1, 1]]},
            "horizon": 2,
        }),
        ("samples", {"samples": True}),
        ("budget", {"budget": True}),
        ("environment", gamma(counts=[["a", 1], [1, 0]])),
        ("environment", gamma(out_counts=["a", 1])),
        ("environment", gamma(counts=[[0, 1], [1]])),
        ("environment", gamma(counts=[[0, 1.5], [1, 0]])),
        ("environment", gamma(counts=[[0, -1], [1, 0]])),
        ("environment", gamma(out_counts=[1, 1, 1])),
    ],
)
def test_bad_values_are_config_errors(tmp_path, capsys, command, field, overrides):
    config = write_config(tmp_path, **overrides)
    assert main([command, config]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}")
