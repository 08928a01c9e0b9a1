import json
import os

import numpy as np
import pytest
from hypothesis import settings

from dynclear import ReplayEnvironment, SamplePath, ShockRealization, SystemState


# Every property test replays the same examples on every run (no example
# database), and LP solve times that vary with host load fail no example.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def hub_shock(t: int) -> ShockRealization:
    """Three-node instance: node 0 owes 1 to each of nodes 1 and 2, every
    node owes 1 outside, only node 0 holds an external asset."""
    return ShockRealization(
        round=t,
        external_liabilities=[1.0, 1.0, 1.0],
        external_assets=[1.0, 0.0, 0.0],
        internal_liabilities=[[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    )


def hub_path(rounds: int = 2) -> SamplePath:
    return SamplePath(shocks=tuple(hub_shock(t) for t in range(1, rounds + 1)))


@pytest.fixture
def hub_env() -> ReplayEnvironment:
    return ReplayEnvironment(shocks=hub_path(2).shocks)


@pytest.fixture
def hub_start() -> SystemState:
    return SystemState.empty(3)


def write_hub_replay(directory, rounds: int = 2) -> tuple[str, str]:
    internal = os.path.join(directory, "internal.csv")
    external = os.path.join(directory, "external.csv")
    with open(internal, "w", encoding="utf-8") as f:
        f.write("t,i,j,amount\n")
        for t in range(1, rounds + 1):
            f.write(f"{t},0,1,1\n{t},0,2,1\n")
    with open(external, "w", encoding="utf-8") as f:
        f.write("t,i,b,c\n")
        for t in range(1, rounds + 1):
            f.write(f"{t},0,1,1\n{t},1,1,0\n{t},2,1,0\n")
    return internal, external


@pytest.fixture
def hub_replay_files(tmp_path):
    return write_hub_replay(tmp_path)


def write_config(directory, **overrides) -> str:
    """A hub-replay config with overridable fields; returns the JSON path."""
    write_hub_replay(directory)
    data = {
        "environment": {
            "kind": "replay",
            "internal_csv": "internal.csv",
            "external_csv": "external.csv",
        },
        "budget": 2.0,
        "mode": "fractional",
        "samples": 3,
        "seed": 7,
        "out_dir": os.path.join(str(directory), "out"),
    }
    data.update(overrides)
    path = os.path.join(directory, "config.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f)
    return path


def random_general_path(rng, n: int, rounds: int, edge_p: float = 0.6) -> SamplePath:
    """Generic random instance; external liabilities keep it contracting."""
    shocks = []
    for t in range(1, rounds + 1):
        liabilities = rng.uniform(0, 1.5, (n, n)) * (rng.random((n, n)) < edge_p)
        np.fill_diagonal(liabilities, 0.0)
        shocks.append(
            ShockRealization(
                round=t,
                external_liabilities=rng.uniform(0.3, 1.5, n),
                external_assets=rng.uniform(0.0, 0.8, n),
                internal_liabilities=liabilities,
            )
        )
    return SamplePath(shocks=tuple(shocks))


def deep_constant_proportion_path(rng, n: int, rounds: int) -> SamplePath:
    """Constant liability proportions with liabilities large against assets
    and caps, so every node stays in default for the whole horizon.  In that
    regime the per-round solves decouple and the sequential value equals the
    whole-horizon optimum, making relaxation-dominance comparisons exact."""
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
    shocks = []
    for t in range(1, rounds + 1):
        b = rng.uniform(4.0, 6.0, n)
        liabilities = zeta * (b / (1.0 - beta))[:, None]
        shocks.append(
            ShockRealization(
                round=t,
                external_liabilities=b,
                external_assets=rng.uniform(0.0, 0.3, n),
                internal_liabilities=liabilities,
            )
        )
    return SamplePath(shocks=tuple(shocks))


def random_clearing_instance(rng, n: int):
    """Raw (matrix, totals, assets) triple with strictly substochastic rows."""
    from dynclear import RelativeLiabilityMatrix

    raw = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.7)
    np.fill_diagonal(raw, 0.0)
    rows = raw.sum(axis=1)
    beta = rng.uniform(0.0, 0.95, n)
    entries = np.where(
        rows[:, None] > 0, raw / np.maximum(rows, 1e-12)[:, None] * beta[:, None], 0.0
    )
    matrix = RelativeLiabilityMatrix.from_entries(entries)
    totals = rng.uniform(0.0, 5.0, n)
    assets = rng.uniform(0.0, 2.0, n)
    return matrix, totals, assets


def picard(matrix, totals, assets, tol: float = 1e-9):
    """Reference clearing by Picard iteration: ``x -> min(P, A^T x + assets)``
    from ``x = P`` down to the greatest fixed point, stopped once the sup
    norm of a step is at most ``tol``.

    Returns ``(clearing, residuals)``; the residuals are the l1 step sizes,
    the norm in which the map contracts at rate ``max_connectivity`` along
    the monotone trajectory.
    """
    totals = np.asarray(totals, dtype=float)
    at = matrix.entries.T
    x = totals.copy()
    residuals = []
    for _ in range(100_000):
        nxt = np.minimum(totals, at @ x + assets)
        step = np.abs(nxt - x)
        residuals.append(float(step.sum()))
        x = nxt
        if float(step.max(initial=0.0)) <= tol:
            return x, residuals
    raise AssertionError("Picard reference did not converge")
