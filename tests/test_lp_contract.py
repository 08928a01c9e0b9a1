"""The sparse <=-only LP contract: every builder's CSC arrays equal the
arrays a row scan of its dense constraint matrix gives, and no builder
holds a dense constraint matrix."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynclear import (
    FairnessSpec,
    check_constant_proportions,
    clearing_lp_model,
    per_round_lp,
    solve_horizon_primal,
    solve_prefix_oneshot,
)
from dynclear import clearing
from dynclear.fractional import _allocation_lp
from dynclear.horizon import _prefix_data

from conftest import deep_constant_proportion_path, random_clearing_instance, sbm_round


class Captured(Exception):
    """Raised in place of a solve, carrying the LP that was to be solved."""


def capture(monkeypatch, build):
    """The LP ``build()`` hands to ``clearing.solve_lp``, left unsolved."""

    def stop(lp):
        raise Captured(lp)

    monkeypatch.setattr(clearing, "solve_lp", stop)
    with pytest.raises(Captured) as caught:
        build()
    return caught.value.args[0]


def csc_scan(lhs):
    """The CSC arrays ``(start, index, value)`` of the nonzeros of a dense
    matrix, found by scanning its rows, as ``solve_lp`` did while LPs were
    built dense."""
    n_cols = lhs.shape[1]
    flat = np.flatnonzero(lhs.ravel() != 0.0)
    value = lhs.ravel()[flat]
    by_col = np.argsort(flat % n_cols, kind="stable")
    row, col = np.divmod(flat[by_col], n_cols)
    start = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=n_cols), out=start[1:])
    return start, row.astype(np.int32), value[by_col]


def assert_same_lp(lp, objective, lhs, rhs, upper):
    for got, want in zip((lp.start, lp.index, lp.value), csc_scan(lhs)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for got, want in ((lp.objective, objective), (lp.rhs, rhs), (lp.upper, upper)):
        assert np.array_equal(got, np.asarray(want, dtype=float))


def dense_fairness_rows(weights, g):
    """The fairness block's dense ``(z_rows, slack_rows)``."""
    n = weights.n
    pair_w = weights.weights + weights.weights.T
    ii, jj = np.nonzero(np.triu(pair_w, k=1))
    e = ii.size
    k = np.arange(e)
    w = pair_w[ii, jj]
    z_rows = np.zeros((e + 1, n))
    slack_rows = np.zeros((e + 1, e))
    z_rows[k, ii] = 1.0
    z_rows[k, jj] = -1.0
    slack_rows[k, k] = -1.0
    z_rows[-1] = -g * weights.node_mass() - w @ z_rows[:e]
    slack_rows[-1] = 2.0 * w
    return z_rows, slack_rows


def dense_per_round(matrix, totals, assets, budget, caps, spec):
    n = matrix.n
    blocks = (np.zeros((0, n)), np.zeros((0, 0)))
    if spec is not None:
        blocks = dense_fairness_rows(spec.weights_for(matrix), spec.g)
    n_slack = blocks[1].shape[1]
    objective = np.concatenate([np.ones(n), np.zeros(n + n_slack)])
    lhs = np.zeros((n + 1 + blocks[0].shape[0], objective.size))
    lhs[:n, :n] = np.eye(n) - matrix.entries.T
    lhs[:n, n : 2 * n] = -np.eye(n)
    lhs[n, n : 2 * n] = 1.0
    lhs[n + 1 :, n : 2 * n] = blocks[0]
    lhs[n + 1 :, 2 * n :] = blocks[1]
    rhs = np.concatenate([assets, [budget], np.zeros(blocks[0].shape[0])])
    upper = np.concatenate([totals, caps, np.full(n_slack, np.inf)])
    return objective, lhs, rhs, upper


def dense_horizon(path, budget, caps, zeta):
    rounds, n = len(path), path.n
    c, h, _ = _prefix_data(path)
    tn = rounds * n
    lhs = np.zeros((2 * tn + rounds, 2 * tn))
    lhs[:tn, :tn] = np.kron(np.tril(np.ones((rounds, rounds))), np.eye(n))
    lhs[tn : 2 * tn, :tn] = np.kron(np.eye(rounds), np.eye(n) - zeta.T)
    lhs[tn : 2 * tn, tn:] = -np.eye(tn)
    lhs[2 * tn :, tn:] = np.kron(np.eye(rounds), np.ones((1, n)))
    rhs = np.concatenate([h.ravel(), c.ravel(), np.full(rounds, float(budget))])
    upper = np.concatenate([np.full(tn, np.inf), np.tile(caps, rounds)])
    return np.repeat([1.0, 0.0], tn), lhs, rhs, upper


def dense_prefix(path, budget, caps, zeta):
    rounds, n = len(path), path.n
    _, h, f = _prefix_data(path)
    tn = rounds * n
    lhs = np.zeros((tn + rounds, 2 * tn))
    lhs[:tn, :tn] = np.kron(np.eye(rounds), np.eye(n) - zeta.T)
    lhs[:tn, tn:] = -np.eye(tn)
    lhs[tn:, tn:] = np.kron(np.eye(rounds), np.ones((1, n)))
    steps = np.arange(1, rounds + 1)
    rhs = np.concatenate([f.ravel(), float(budget) * steps])
    upper = np.concatenate([h.ravel(), np.outer(steps, caps).ravel()])
    return np.repeat([1.0, 0.0], tn), lhs, rhs, upper


KINDS = (None, "standard", "spatial", "property")


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9),
       kind=st.sampled_from(KINDS), g=st.sampled_from((0.0, 0.3, 1.0)))
def test_per_round_lp_arrays_equal_the_dense_scan(seed, n, kind, g):
    rng = np.random.default_rng(seed)
    state, matrix, assets = sbm_round(rng, n, rounds=2)
    budget = float(rng.uniform(0.0, 3.0))
    caps = rng.uniform(0.2, 1.5, n)
    spec = None if kind is None else FairnessSpec(
        kind=kind, budget=g, q=rng.random(n) if kind == "property" else None,
    )
    if spec is None:  # the knapsack route solves most of these without an LP
        lp = _allocation_lp(matrix, state.totals, assets, budget, caps)
    else:
        with pytest.MonkeyPatch.context() as mp:
            lp = capture(mp, lambda: per_round_lp(
                matrix, state.totals, assets, budget, caps, fairness=spec))
    assert_same_lp(lp, *dense_per_round(
        matrix, state.totals, assets, budget, caps, spec))


@st.composite
def horizon_instances(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, rounds = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    path = deep_constant_proportion_path(rng, n, rounds)
    return path, float(rng.uniform(0.0, 4.0)), rng.uniform(0.0, 3.0, n)


@settings(max_examples=25)
@given(horizon_instances())
def test_horizon_lp_arrays_equal_the_dense_scan(instance):
    path, budget, caps = instance
    cert = check_constant_proportions(path)
    with pytest.MonkeyPatch.context() as mp:
        lp = capture(mp, lambda: solve_horizon_primal(path, budget, caps, cert))
    assert_same_lp(lp, *dense_horizon(path, budget, caps, cert.zeta))


@settings(max_examples=25)
@given(horizon_instances())
def test_prefix_lp_arrays_equal_the_dense_scan(instance):
    path, budget, caps = instance
    cert = check_constant_proportions(path)
    with pytest.MonkeyPatch.context() as mp:
        lp = capture(mp, lambda: solve_prefix_oneshot(path, budget, caps, cert))
    assert_same_lp(lp, *dense_prefix(path, budget, caps, cert.zeta))


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
def test_clearing_lp_arrays_equal_the_dense_scan(seed, n):
    rng = np.random.default_rng(seed)
    matrix, totals, assets = random_clearing_instance(rng, n)
    z = rng.uniform(0.0, 1.0, n)
    lp = clearing_lp_model(matrix, totals, assets, z)
    assert_same_lp(lp, np.ones(n), np.eye(n) - matrix.entries.T, assets + z, totals)


def test_constraint_rows_view_matches_the_arrays():
    rng = np.random.default_rng(7)
    state, matrix, assets = sbm_round(rng, 8, rounds=2)
    spec = FairnessSpec(kind="spatial", budget=0.3)
    with pytest.MonkeyPatch.context() as mp:
        lp = capture(mp, lambda: per_round_lp(
            matrix, state.totals, assets, 2.0, 1.0, fairness=spec))
    _, lhs, rhs, _ = dense_per_round(matrix, state.totals, assets, 2.0,
                                     np.ones(8), spec)
    rows = lp.constraints
    assert len(rows) == len(rhs)
    for (row, rel, b), want_row, want_b in zip(rows, lhs, rhs):
        assert np.array_equal(row, want_row)
        assert (rel, b) == ("<=", want_b)


#: Traced allocation allowed while one large LP is built, unsolved.  The
#: dense constraint matrices of these two LPs alone are about 514 and
#: 643 MB.
BUILD_PEAK_MB = 40


def build_peak_mb(monkeypatch, build) -> float:
    tracemalloc.start()
    try:
        capture(monkeypatch, build)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_the_horizon_lp_at_100_nodes_and_40_rounds_is_built_sparse(monkeypatch):
    path = deep_constant_proportion_path(np.random.default_rng(1), 100, 40)
    cert = check_constant_proportions(path)
    peak = build_peak_mb(
        monkeypatch, lambda: solve_horizon_primal(path, 10.0, 1.0, cert))
    assert peak < BUILD_PEAK_MB


def test_the_spatial_fairness_lp_at_200_nodes_is_built_sparse(monkeypatch):
    state, matrix, assets = sbm_round(
        np.random.default_rng(1), 200, rounds=3,
        block_probs=((0.9, 0.4), (0.4, 0.05)),
    )
    spec = FairnessSpec(kind="spatial", budget=0.3)
    peak = build_peak_mb(monkeypatch, lambda: per_round_lp(
        matrix, state.totals, assets, 5.0, 2.0, fairness=spec))
    assert peak < BUILD_PEAK_MB
