"""The benchmark's three workloads: how each one's inputs are made from the
seed, and the correctness gate its outputs must pass.

Every workload runs through the public ``run_experiment`` entry point,
single-process with ``threads=1``.  ``prepare`` is the set-up the benchmark
times as ``setup_s``: config validation, ``build_environment`` and the
generation of any input file.  ``check`` reads what a call wrote to its
``out_dir`` and returns how many sample paths it attempted and how many of
them failed the gate.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dynclear.config import ExperimentConfig, build_environment, validate_config
from dynclear.clearing import clear_fixed_point, clear_lp
from dynclear.fairness import gini_coefficient
from dynclear.fractional import per_round_lp, substream, value_given_sample_path
from dynclear.network import SystemState, advance_state, relative_matrix

#: Absolute tolerance of the paper's identities checked by the gates.
GATE_TOL = 1e-6

#: Price-of-fairness band of acceptance criterion 7.
POF_BAND = (1.0, 1.1)


@dataclass(frozen=True)
class Workload:
    """``prepare(seed, checkout_root, work_dir, tiny)`` returns the config
    and built environment; ``check(config, env, out_dir)`` returns
    ``(attempted, failed)`` sample paths.  ``tiny`` shrinks the instance for
    warm-up and tests."""

    name: str
    prepare: Callable[[int, str, str, bool], tuple[ExperimentConfig, object]]
    check: Callable[[ExperimentConfig, object, str], tuple[int, int]]


def _shipped(root: str, relative: str) -> tuple[dict, str]:
    path = os.path.join(root, relative)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle), os.path.dirname(path)


def _generated(work_dir: str, name: str, data: dict):
    """Write a generated config file, then load it like a user's config."""
    path = os.path.join(work_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
    with open(path, encoding="utf-8") as handle:
        config = validate_config(json.load(handle), base_dir=work_dir)
    return config, build_environment(config)


def read_trace(out_dir: str) -> dict[int, list[tuple]]:
    """``trace.csv`` as ``{sample: [(t, node, P, p_tilde, z, reward), ...]}``."""
    by_sample: dict[int, list[tuple]] = {}
    with open(os.path.join(out_dir, "trace.csv"), newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for s, t, node, p, cleared, z, reward in reader:
            by_sample.setdefault(int(s), []).append(
                (int(t), int(node), float(p), float(cleared), float(z),
                 float(reward))
            )
    return by_sample


def read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _rounds(rows: list[tuple], n: int):
    """Split one sample's trace rows into per-round arrays
    ``(t, P, p_tilde, z, reward)``; rows are written in round, node order."""
    for k in range(0, len(rows), n):
        block = rows[k : k + n]
        yield (
            block[0][0],
            np.array([r[2] for r in block]),
            np.array([r[3] for r in block]),
            np.array([r[4] for r in block]),
            block[0][5],
        )


def _replay_matches(state, totals) -> bool:
    return float(np.max(np.abs(state.totals - totals))) <= GATE_TOL


def _trace_total_matches(trace, summary, n: int) -> bool:
    total = sum(
        reward for rows in trace.values() for _, _, _, _, reward in _rounds(rows, n)
    )
    mean = total / summary["samples"]
    return abs(mean - summary["total_value_mean"]) <= GATE_TOL * max(1.0, abs(mean))


# -- fairness_sbm50 ---------------------------------------------------------

FAIRNESS_SAMPLES = 2


def prepare_fairness(seed: int, root: str, work_dir: str, tiny: bool):
    data, base_dir = _shipped(root, "configs/synthetic_fairness.json")
    data.update(samples=FAIRNESS_SAMPLES, seed=seed, threads=1, out_dir=work_dir)
    if tiny:
        data["environment"].update(n_core=3, n_periphery=7)
        data.update(horizon=3, samples=2)
    config = validate_config(data, base_dir=base_dir)
    return config, build_environment(config)


def check_fairness(config: ExperimentConfig, env, out_dir: str):
    """Per path: realized per-round Gini <= g, trace totals follow the
    transition law, and on round 1 (one state for both runs) the
    unconstrained optimum is 1 to 1.1 times the constrained reward.  The
    paired ``pof.csv`` must agree with the summary and stay <= 1.1."""
    trace = read_trace(out_dir)
    summary = read_summary(out_dir)
    n, g = env.n, config.fairness.g
    pof = summary["price_of_fairness"]
    run_ok = (
        len(trace) == config.samples
        and abs(pof["constrained"] - summary["total_value_mean"]) <= GATE_TOL
        and 0.0 < pof["pof"] <= POF_BAND[1]
        and _trace_total_matches(trace, summary, n)
    )
    failed = 0
    for sample in range(config.samples):
        ok = run_ok and sample in trace
        if ok:
            path = env.sample_path(1, config.horizon, substream(config.seed, sample))
            ok = _fair_path_ok(config, path, trace[sample], g)
        failed += not ok
    return config.samples, failed


def _fair_path_ok(config, path, rows, g) -> bool:
    state = SystemState.empty(path.n)
    clearing = np.zeros(path.n)
    for shock, (t, totals, cleared, z, reward) in zip(path, _rounds(rows, path.n)):
        state = advance_state(state, clearing, shock)
        if t != shock.round or not _replay_matches(state, totals):
            return False
        if np.any(z < 0) or z.sum() > config.budget + GATE_TOL:
            return False
        matrix = relative_matrix(state)
        if gini_coefficient(z, config.fairness.weights_for(matrix)) > g + GATE_TOL:
            return False
        if t == 1:
            free = per_round_lp(
                matrix, state.totals, shock.external_assets, config.budget,
                config.caps,
            ).reward
            low, high = POF_BAND
            if not low * reward - GATE_TOL <= free <= high * reward + GATE_TOL:
                return False
        clearing = cleared
    return True


# -- discrete_sbm100 --------------------------------------------------------

DISCRETE_SAMPLES = 16


def prepare_discrete(seed: int, root: str, work_dir: str, tiny: bool):
    n_core, n_periphery, horizon, samples = (
        (2, 8, 3, 3) if tiny else (20, 80, 10, DISCRETE_SAMPLES)
    )
    data = {
        "environment": {
            "kind": "sbm_core_periphery",
            "n_core": n_core,
            "n_periphery": n_periphery,
            "block_probs": [[0.6, 0.35], [0.35, 0.1]],
            "liability_rate": 1.0,
            "asset_level": 0.0,
        },
        "horizon": horizon,
        "mode": "discrete",
        "budget": 10.0,
        "caps": 2.0,
        "retries": 64,
        "samples": samples,
        "seed": seed,
        "threads": 1,
        "out_dir": work_dir,
    }
    return _generated(work_dir, "discrete_sbm100.json", data)


def check_discrete(config: ExperimentConfig, env, out_dir: str):
    """Per path: every rounded action is an integer within caps, trace totals
    follow the transition law, and on one round per path picked from the
    seed, Picard and LP clearing agree with each other and with the trace.
    The trace-sum total must match ``summary.json``."""
    trace = read_trace(out_dir)
    summary = read_summary(out_dir)
    run_ok = len(trace) == config.samples and _trace_total_matches(
        trace, summary, env.n
    )
    caps = float(config.caps)
    picks = np.random.default_rng([config.seed, 1]).integers(
        1, config.horizon + 1, size=config.samples
    )
    failed = 0
    for sample in range(config.samples):
        ok = run_ok and sample in trace
        if ok:
            path = env.sample_path(1, config.horizon, substream(config.seed, sample))
            ok = _discrete_path_ok(path, trace[sample], caps, int(picks[sample]))
        failed += not ok
    return config.samples, failed


def _discrete_path_ok(path, rows, caps: float, checked_round: int) -> bool:
    state = SystemState.empty(path.n)
    clearing = np.zeros(path.n)
    for shock, (t, totals, cleared, z, _) in zip(path, _rounds(rows, path.n)):
        state = advance_state(state, clearing, shock)
        if t != shock.round or not _replay_matches(state, totals):
            return False
        if np.any(z < 0) or np.any(z > caps) or np.any(z != np.rint(z)):
            return False
        if t == checked_round:
            matrix = relative_matrix(state)
            assets = shock.external_assets
            picard = clear_fixed_point(matrix, state.totals, assets, z)
            lp = clear_lp(matrix, state.totals, assets, z)
            if max(np.abs(picard - lp).max(), np.abs(picard - cleared).max()) > GATE_TOL:
                return False
        clearing = cleared
    return True


# -- horizon_replay60 -------------------------------------------------------

HORIZON_SAMPLES = 4


def write_constant_proportion_replay(
    seed: int, n: int, rounds: int, directory: str
) -> tuple[str, str]:
    """Write a replay whose liability proportions are constant over time and
    large against assets and caps, so every node stays in default and the
    sequential and whole-horizon values coincide.

    Amounts are written as plain Python floats: ``repr`` of a NumPy 2 scalar
    reads ``np.float64(...)``, which the replay loader rejects.
    """
    rng = np.random.default_rng([seed, 60])
    zeta = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.7)
    np.fill_diagonal(zeta, 0.0)
    rows = zeta.sum(axis=1)
    scale = rng.uniform(0.15, 0.6, n)
    zeta = np.where(
        rows[:, None] > 0,
        zeta / np.maximum(rows, 1e-12)[:, None] * scale[:, None],
        0.0,
    )
    beta = zeta.sum(axis=1)
    internal = os.path.join(directory, "internal.csv")
    external = os.path.join(directory, "external.csv")
    with open(internal, "w", encoding="utf-8") as lf, open(
        external, "w", encoding="utf-8"
    ) as ef:
        lf.write("t,i,j,amount\n")
        ef.write("t,i,b,c\n")
        for t in range(1, rounds + 1):
            b = rng.uniform(4.0, 6.0, n)
            c = rng.uniform(0.0, 0.3, n)
            liabilities = zeta * (b / (1.0 - beta))[:, None]
            for i, j in zip(*np.nonzero(liabilities)):
                lf.write(f"{t},{i},{j},{float(liabilities[i, j])!r}\n")
            for i in range(n):
                ef.write(f"{t},{i},{float(b[i])!r},{float(c[i])!r}\n")
    return internal, external


def prepare_horizon(seed: int, root: str, work_dir: str, tiny: bool):
    n, rounds = (6, 4) if tiny else (60, 25)
    internal, external = write_constant_proportion_replay(seed, n, rounds, work_dir)
    data = {
        "environment": {
            "kind": "replay",
            "internal_csv": os.path.basename(internal),
            "external_csv": os.path.basename(external),
        },
        "mode": "horizon_lp",
        "budget": 10.0,
        "caps": 1.0,
        "samples": HORIZON_SAMPLES,
        "seed": seed,
        "threads": 1,
        "out_dir": work_dir,
    }
    return _generated(work_dir, "horizon_replay60.json", data)


def check_horizon(config: ExperimentConfig, env, out_dir: str):
    """The certificate is valid, the primal/dual gap is within tolerance, and
    the sequential per-round solve of the replayed path reaches the value the
    run reports (criterion 6).  Every sample replays the same path."""
    summary = read_summary(out_dir)
    cert = summary["certificate"]
    ok = (
        cert["valid"]
        and cert["max_duality_gap"] <= GATE_TOL
        and _trace_total_matches(read_trace(out_dir), summary, env.n)
    )
    if ok:
        path = env.sample_path(1, env.horizon, None)
        sequential, _ = value_given_sample_path(
            SystemState.empty(env.n), path, config.budget, config.caps
        )
        ok = abs(sequential - summary["total_value_mean"]) <= GATE_TOL
    return config.samples, 0 if ok else config.samples


#: Why each workload was chosen is recorded beside it in ``BENCHMARK.json``.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fairness_sbm50", prepare_fairness, check_fairness),
        Workload("discrete_sbm100", prepare_discrete, check_discrete),
        Workload("horizon_replay60", prepare_horizon, check_horizon),
    )
}
