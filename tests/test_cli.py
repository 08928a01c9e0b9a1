import json
import os
import subprocess
import sys

import pytest

import dynclear
from dynclear.cli import main

from conftest import write_config


def test_validate_ok(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["validate", config]) == 0
    assert "OK" in capsys.readouterr().out


def test_import_and_validate_load_no_scipy(tmp_path):
    # scipy is imported on the first LP solve, not before
    configs = [
        write_config(tmp_path, mode="discrete", caps=1),
        os.path.join(os.path.dirname(__file__), "..", "configs",
                     "synthetic_fairness.json"),
    ]
    script = (
        "import sys\n"
        "import dynclear\n"
        "from dynclear.cli import main\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        f"for config in {configs!r}:\n"
        "    assert main(['validate', config]) == 0\n"
        "print(loaded())\n"
    )
    src = os.path.dirname(os.path.dirname(dynclear.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[0] == "[]"  # after import dynclear
    assert done.stdout.splitlines()[-1] == "[]"  # after both validations


def gamma(**fields) -> dict:
    """Overrides for a two-node transaction-count config."""
    env = {"kind": "gamma_transactions", "counts": [[0, 1], [1, 0]],
           "out_counts": [1, 1], "in_counts": [0, 1]}
    return {"environment": {**env, **fields}, "horizon": 2}


SBM = {"kind": "sbm_core_periphery", "n_core": 1, "n_periphery": 2,
       "block_probs": [[0.5, 0.5], [0.5, 0.5]]}


def number_fields(x) -> dict:
    """Per config field holding a number, overrides that put ``x`` there."""
    return {
        "budget": {"budget": x, "caps": 1.0},
        "fairness.g": {"fairness": {"kind": "standard", "g": x}},
        "caps": {"mode": "discrete", "caps": x},
        "caps[1]": {"mode": "discrete", "caps": [1.0, x, 1.0]},
        "environment.liability_rate": {
            "environment": {**SBM, "liability_rate": x}, "horizon": 2},
        "environment.asset_level": {
            "environment": {**SBM, "asset_level": x}, "horizon": 2},
        "environment.counts[0][1]": gamma(counts=[[0, x], [1, 0]]),
        "environment.in_counts[1]": gamma(in_counts=[0, x]),
    }


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 10**400],
                         ids=["inf", "nan", "too-large"])
@pytest.mark.parametrize("field", sorted(number_fields(0)))
def test_non_finite_and_huge_numbers_are_config_errors(tmp_path, capsys, command,
                                                      value, field):
    """A NaN, an infinity or an integer too large for a double in any config
    number is a config error naming the field, not a crash or a run."""
    config = write_config(tmp_path, **number_fields(value)[field])
    assert main([command, config]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_an_integer_too_long_to_read_is_a_config_error(tmp_path, capsys):
    # json refuses to read an integer of over 4300 digits with a ValueError
    path = tmp_path / "config.json"
    path.write_text('{"budget": ' + "1" * 5000 + "}")
    assert main(["validate", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, mode", [
    ("validate", "discrete"), ("run", "discrete"),
    ("oracle", "discrete"), ("oracle", "fractional"),
])
def test_non_integer_caps_are_a_config_error(tmp_path, capsys, command, mode):
    # discrete interventions and the oracle's enumeration are integral
    config = write_config(tmp_path, mode=mode, caps=1.5)
    assert main([command, config]) == 2
    assert "caps" in capsys.readouterr().err


def test_validate_missing_replay_file(tmp_path, capsys):
    config = write_config(tmp_path)
    os.unlink(os.path.join(tmp_path, "internal.csv"))
    assert main(["validate", config]) == 2
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("column", ["amount", "b", "c"])
def test_validate_rejects_a_non_finite_replay_value(tmp_path, capsys, column, value):
    # the loader names the line; ShockRealization would name none (exit 3)
    config = write_config(tmp_path)
    name, row = ("internal.csv", 2) if column == "amount" else ("external.csv", 3)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    cells = lines[row - 1].split(",")
    cells[{"amount": 3, "b": 2, "c": 3}[column]] = value
    lines[row - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert main(["validate", config]) == 2
    err = capsys.readouterr().err
    assert f"{name}:{row}: " in err and "not finite" in err


def test_validate_rejects_a_replay_that_is_not_utf8(tmp_path, capsys):
    # both loader routes used to let a raw UnicodeDecodeError out (exit 1)
    config = write_config(tmp_path)
    path = tmp_path / "internal.csv"
    lines = path.read_bytes().splitlines()
    lines[2] = lines[2][:-1] + b"\xff"  # the amount of row 3
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["validate", config]) == 2
    err = capsys.readouterr().err
    assert "internal.csv:3: not UTF-8 text: byte 0xff" in err


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
        ("budget", {"budget": float("inf"), "caps": 1.0}),
        ("seed", {"seed": -1}),
    ],
)
def test_bad_values_are_config_errors(tmp_path, capsys, command, field, overrides):
    config = write_config(tmp_path, **overrides)
    assert main([command, config]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}")


@pytest.mark.parametrize("command", ["run", "validate"])
def test_negative_seed_override_is_a_config_error(tmp_path, capsys, command):
    config = write_config(tmp_path)
    assert main([command, config, "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: seed")
