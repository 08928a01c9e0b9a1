import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynclear import (
    CertificateError,
    SamplePath,
    ShockRealization,
    SolverError,
    SystemState,
    advance_state,
    check_constant_proportions,
    per_round_lp,
    relative_matrix,
    solve_horizon_dual,
    solve_horizon_primal,
    solve_prefix_oneshot,
    value_given_sample_path,
    verify_myopic_optimality,
)
from dynclear import clearing
from dynclear.clearing import LP_REPAIR_TOL, dense_coo, leq_program, solve_lp
from dynclear.horizon import _prefix_data

from conftest import deep_constant_proportion_path, hub_path, hub_shock


def jump_path():
    """Internal liability doubles while the external stays fixed, breaking
    the constant-proportion requirement by 2/4 - 1/3 = 1/6."""
    first = ShockRealization(
        round=1,
        external_liabilities=[1.0, 1.0],
        external_assets=[0.5, 0.0],
        internal_liabilities=[[0.0, 1.0], [0.0, 0.0]],
    )
    second = ShockRealization(
        round=2,
        external_liabilities=[1.0, 1.0],
        external_assets=[0.5, 0.0],
        internal_liabilities=[[0.0, 2.0], [0.0, 0.0]],
    )
    return SamplePath(shocks=(first, second))


class TestCertificate:
    def test_hub_proportions_are_constant(self):
        cert = check_constant_proportions(hub_path(2))
        assert cert.valid
        np.testing.assert_allclose(cert.zeta[0], [0.0, 1 / 3, 1 / 3])
        np.testing.assert_allclose(cert.zeta[1:], 0.0)
        assert cert.max_violation == 0.0

    def test_liability_jump_breaks_the_certificate(self):
        cert = check_constant_proportions(jump_path())
        assert not cert.valid
        assert cert.max_violation == pytest.approx(1 / 6, abs=1e-12)

    def test_pure_external_path_is_trivially_constant(self):
        shocks = tuple(
            ShockRealization(
                round=t,
                external_liabilities=[1.0 + t, 2.0],
                external_assets=[0.0, 0.0],
                internal_liabilities=np.zeros((2, 2)),
            )
            for t in (1, 2, 3)
        )
        cert = check_constant_proportions(SamplePath(shocks=shocks))
        assert cert.valid
        np.testing.assert_allclose(cert.zeta, 0.0)


class TestHorizonPrimal:
    def test_hub_budget_two(self):
        path = hub_path(2)
        cert = check_constant_proportions(path)
        solution = solve_horizon_primal(path, 2.0, 2.0, cert)
        assert solution.value == pytest.approx(10.0, abs=1e-6)
        assert solution.rewards == pytest.approx((5.0, 5.0), abs=1e-6)

    def test_hub_zero_budget(self):
        path = hub_path(2)
        cert = check_constant_proportions(path)
        solution = solve_horizon_primal(path, 0.0, 0.0, cert)
        assert solution.value == pytest.approx(10 / 3, abs=1e-6)

    def test_single_round_reduces_to_the_per_round_lp(self):
        path = hub_path(1)
        cert = check_constant_proportions(path)
        solution = solve_horizon_primal(path, 1.0, 1.0, cert)
        state = advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1))
        step = per_round_lp(
            relative_matrix(state), state.totals, hub_shock(1).external_assets,
            1.0, 1.0,
        )
        assert solution.value == pytest.approx(step.reward, abs=1e-7)
        np.testing.assert_allclose(solution.clearing[0], step.clearing, atol=1e-6)

    def test_invalid_certificate_is_rejected(self):
        path = jump_path()
        cert = check_constant_proportions(path)
        with pytest.raises(CertificateError):
            solve_horizon_primal(path, 1.0, 1.0, cert)


class TestHorizonDual:
    def test_hub_strong_duality(self):
        path = hub_path(2)
        cert = check_constant_proportions(path)
        dual = solve_horizon_dual(path, 2.0, 2.0, cert)
        assert dual.value == pytest.approx(10.0, abs=1e-6)

    def test_near_empty_economy_dual_value_vanishes(self):
        shocks = tuple(
            ShockRealization(
                round=t,
                external_liabilities=np.full(2, 1e-6),
                external_assets=np.zeros(2),
                internal_liabilities=np.zeros((2, 2)),
            )
            for t in (1, 2)
        )
        path = SamplePath(shocks=shocks)
        cert = check_constant_proportions(path)
        dual = solve_horizon_dual(path, 0.0, 0.0, cert)
        assert dual.value == pytest.approx(0.0, abs=1e-9)

    def test_gap_vanishes_on_random_valid_instances(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            path = deep_constant_proportion_path(rng, n, int(rng.integers(2, 4)))
            cert = check_constant_proportions(path)
            budget = float(rng.integers(0, 4))
            caps = rng.integers(1, 3, n).astype(float)
            primal = solve_horizon_primal(path, budget, caps, cert)
            dual = solve_horizon_dual(path, budget, caps, cert)
            assert abs(primal.value - dual.value) <= 1e-6
            assert dual.lam.min() >= -1e-9 and dual.mu.min() >= -1e-9
            assert dual.nu.min() >= -1e-9 and dual.xi.min() >= -1e-9


def reference_primal_rows(path, budget, zeta):
    """The horizon primal's constraint rows built one row at a time."""
    rounds, n = len(path), path.n
    c, h, _ = _prefix_data(path)
    dim = 2 * rounds * n
    rows = []
    for t in range(rounds):
        for i in range(n):
            row = np.zeros(dim)
            for tp in range(t + 1):
                row[tp * n + i] = 1.0
            rows.append((row, "<=", float(h[t, i])))
    for t in range(rounds):
        for i in range(n):
            row = np.zeros(dim)
            row[t * n : (t + 1) * n] = (np.eye(n) - zeta.T)[i]
            row[rounds * n + t * n + i] = -1.0
            rows.append((row, "<=", float(c[t, i])))
    for t in range(rounds):
        row = np.zeros(dim)
        row[rounds * n + t * n : rounds * n + (t + 1) * n] = 1.0
        rows.append((row, "<=", float(budget)))
    return rows


def reference_prefix_rows(path, budget, zeta):
    """The prefix one-shot LP's constraint rows built one row at a time."""
    rounds, n = len(path), path.n
    _, _, f = _prefix_data(path)
    dim = 2 * rounds * n
    rows = []
    for t in range(rounds):
        for i in range(n):
            row = np.zeros(dim)
            row[t * n : (t + 1) * n] = (np.eye(n) - zeta.T)[i]
            row[rounds * n + t * n + i] = -1.0
            rows.append((row, "<=", float(f[t, i])))
    for t in range(rounds):
        row = np.zeros(dim)
        row[rounds * n + t * n : rounds * n + (t + 1) * n] = 1.0
        rows.append((row, "<=", float(budget) * (t + 1)))
    return rows


def reference_dual_value(path, budget, caps, zeta) -> float:
    """The dual of the horizon primal built and solved as its own LP:
    minimize ``h.lam + c.mu + B sum(nu) + caps.sum(xi)`` over nonnegative
    multipliers subject to ``(I - zeta) mu(t) + sum_{t' >= t} lam(t') >= 1``
    and ``xi(t) + nu(t) - mu(t) >= 0``, each >= row written as its negated
    <= row."""
    rounds, n = len(path), path.n
    c, h, _ = _prefix_data(path)
    # variable layout: [lam (T*n) | mu (T*n) | nu (T) | xi (T*n)], all >= 0
    base_mu, base_nu = rounds * n, 2 * rounds * n
    base_xi = base_nu + rounds
    dim = base_xi + rounds * n
    cost = np.concatenate(
        [h.ravel(), c.ravel(), np.full(rounds, budget), np.tile(caps, rounds)]
    )
    rows = []
    for t in range(rounds):
        for i in range(n):
            row = np.zeros(dim)
            row[base_mu + t * n : base_mu + (t + 1) * n] = np.eye(n)[i] - zeta[i]
            row[[tp * n + i for tp in range(t, rounds)]] = 1.0
            rows.append((-row, -1.0))
    for t in range(rounds):
        for i in range(n):
            row = np.zeros(dim)
            row[base_xi + t * n + i] = 1.0
            row[base_nu + t] = 1.0
            row[base_mu + t * n + i] = -1.0
            rows.append((-row, 0.0))
    lhs, rhs = zip(*rows)
    sol = solve_lp(leq_program(-cost, [dense_coo(np.array(lhs))], rhs,
                               np.full(dim, np.inf)))
    assert sol.status == "optimal"
    return -sol.objective_value


def random_instance(rng):
    n = int(rng.integers(2, 6))
    path = deep_constant_proportion_path(rng, n, int(rng.integers(2, 5)))
    budget = float(rng.integers(0, 4))
    caps = rng.integers(1, 3, n).astype(float)
    return path, budget, caps


class TestDualCertificate:
    def test_marginal_dual_matches_the_dual_lp(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            path, budget, caps = random_instance(rng)
            cert = check_constant_proportions(path)
            dual = solve_horizon_dual(path, budget, caps, cert)
            reference = reference_dual_value(path, budget, caps, cert.zeta)
            assert dual.value == pytest.approx(reference, abs=1e-7)

    def test_primal_rows_match_the_row_by_row_build(self, monkeypatch):
        lps = []
        solve = clearing.solve_lp
        monkeypatch.setattr(clearing, "solve_lp", lambda lp: lps.append(lp) or solve(lp))
        rng = np.random.default_rng(55)
        for _ in range(5):
            path, budget, caps = random_instance(rng)
            cert = check_constant_proportions(path)
            solve_horizon_primal(path, budget, caps, cert)
            expected = reference_primal_rows(path, budget, cert.zeta)
            rows = lps[-1].constraints
            assert len(rows) == len(expected)
            for (row, rel, rhs), (ref_row, ref_rel, ref_rhs) in zip(rows, expected):
                assert np.array_equal(row, ref_row)
                assert (rel, rhs) == (ref_rel, ref_rhs)

    def test_dual_is_feasible_on_a_generated_replay_of_60_nodes(self):
        # the n = 60, T = 25 replay perfbench/workloads.py generates for seed
        # 31 (budget 10, caps 1): at HiGHS's default dual feasibility
        # tolerance its payment-column marginals fell 5e-7 short
        path = deep_constant_proportion_path(np.random.default_rng([31, 60]), 60, 25)
        cert = check_constant_proportions(path)
        primal = solve_horizon_primal(path, 10.0, 1.0, cert)
        assert abs(primal.value - primal.dual.value) <= 1e-6

    @pytest.mark.parametrize("corrupt", [-1.0, 0.0, np.nan])
    def test_a_corrupted_row_marginal_is_refused(self, monkeypatch, corrupt):
        # with zero budget on a deep-default path every default-row
        # multiplier mu_i(t) is at least 1 and its payment column needs it:
        # negating, dropping or blanking the largest one breaks feasibility
        path = deep_constant_proportion_path(np.random.default_rng(54), 3, 2)
        cert = check_constant_proportions(path)
        solve = clearing.solve_lp

        def corrupted(lp):
            sol = solve(lp)
            k = int(np.argmax(sol.dual))
            assert sol.dual[k] >= 1.0 - 1e-9
            sol.dual[k] *= corrupt
            return sol

        solve_horizon_dual(path, 0.0, 1.0, cert)
        monkeypatch.setattr(clearing, "solve_lp", corrupted)
        with pytest.raises(SolverError, match="dual feasibility"):
            solve_horizon_dual(path, 0.0, 1.0, cert)


@st.composite
def horizon_instances(draw):
    n = draw(st.integers(1, 5))
    rounds = draw(st.integers(1, 4))
    path = deep_constant_proportion_path(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, rounds
    )
    amounts = st.floats(0.0, 4.0, allow_subnormal=False)
    budget = draw(amounts)
    caps = np.array(draw(st.lists(amounts, min_size=n, max_size=n)))
    return path, budget, caps


@settings(max_examples=30)
@given(horizon_instances())
def test_horizon_duality_and_myopic_optimality_hold(instance):
    path, budget, caps = instance
    cert = check_constant_proportions(path)
    primal = solve_horizon_primal(path, budget, caps, cert)
    dual = primal.dual
    for multipliers in (dual.lam, dual.mu, dual.nu, dual.xi):
        assert multipliers.min() >= -LP_REPAIR_TOL
    zeta = cert.zeta
    suffix_lam = np.cumsum(dual.lam[::-1], axis=0)[::-1]
    assert np.all(dual.mu - dual.mu @ zeta.T + suffix_lam >= 1.0 - LP_REPAIR_TOL)
    assert np.all(dual.xi + dual.nu[:, None] - dual.mu >= -LP_REPAIR_TOL)
    assert abs(primal.value - dual.value) <= 1e-6
    sequential, _ = value_given_sample_path(
        SystemState.empty(path.n), path, budget, caps
    )
    assert sequential == pytest.approx(primal.value, abs=1e-6)


class TestPrefixOneShot:
    def test_hub_budget_two_recovers_per_round_rewards(self):
        path = hub_path(2)
        cert = check_constant_proportions(path)
        solution = solve_prefix_oneshot(path, 2.0, 2.0, cert)
        assert solution.value == pytest.approx(10.0, abs=1e-6)
        assert solution.rewards == pytest.approx((5.0, 5.0), abs=1e-6)
        assert np.all(np.diff(solution.prefix.cumulative_payments, axis=0) >= -1e-9)

    def test_hub_zero_budget(self):
        path = hub_path(2)
        cert = check_constant_proportions(path)
        solution = solve_prefix_oneshot(path, 0.0, 0.0, cert)
        assert solution.rewards == pytest.approx((5 / 3, 5 / 3), abs=1e-6)

    def test_single_round_matches_the_horizon_primal(self):
        path = hub_path(1)
        cert = check_constant_proportions(path)
        one_shot = solve_prefix_oneshot(path, 1.0, 1.0, cert)
        primal = solve_horizon_primal(path, 1.0, 1.0, cert)
        assert one_shot.value == pytest.approx(primal.value, abs=1e-7)

    def test_weighted_objective_picks_the_same_schedule(self):
        # the prefix objective weights round t by t; on a unique-optimum
        # instance the recovered schedule matches the plain-sum optimum
        path = hub_path(2)
        cert = check_constant_proportions(path)
        primal = solve_horizon_primal(path, 2.0, 2.0, cert)
        prefix = solve_prefix_oneshot(path, 2.0, 2.0, cert)
        np.testing.assert_allclose(prefix.clearing, primal.clearing, atol=1e-6)

    def test_rows_match_the_row_by_row_build(self, monkeypatch):
        lps = []
        solve = clearing.solve_lp
        monkeypatch.setattr(clearing, "solve_lp", lambda lp: lps.append(lp) or solve(lp))
        rng = np.random.default_rng(56)
        for _ in range(5):
            path, budget, caps = random_instance(rng)
            cert = check_constant_proportions(path)
            solve_prefix_oneshot(path, budget, caps, cert)
            expected = reference_prefix_rows(path, budget, cert.zeta)
            rows = lps[-1].constraints
            assert len(rows) == len(expected)
            for (row, rel, rhs), (ref_row, ref_rel, ref_rhs) in zip(rows, expected):
                assert np.array_equal(row, ref_row)
                assert (rel, rhs) == (ref_rel, ref_rhs)

    def test_prefix_quantities_are_cumulative(self):
        rng = np.random.default_rng(51)
        path = deep_constant_proportion_path(rng, 3, 3)
        cert = check_constant_proportions(path)
        solution = solve_prefix_oneshot(path, 2.0, np.array([1.0, 2.0, 1.0]), cert)
        q = solution.prefix.cumulative_payments
        h = solution.prefix.cumulative_liabilities
        assert np.all(np.diff(h, axis=0) >= 0)
        assert np.all(q <= h + 1e-9)


class TestMyopicOptimality:
    def test_hub_sequential_equals_horizon(self):
        report = verify_myopic_optimality(hub_path(2), 2.0, 2.0)
        assert report.applicable
        assert report.sequential_value == pytest.approx(10.0, abs=1e-6)
        assert report.horizon_value == pytest.approx(10.0, abs=1e-6)
        assert abs(report.gap) <= 1e-6

    def test_random_default_heavy_instances_have_no_gap(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            path = deep_constant_proportion_path(rng, n, int(rng.integers(2, 5)))
            budget = float(rng.integers(0, 4))
            caps = rng.integers(1, 3, n).astype(float)
            report = verify_myopic_optimality(path, budget, caps)
            assert report.applicable
            assert abs(report.gap) <= 1e-6

    def test_certificate_violation_reports_inapplicable(self):
        report = verify_myopic_optimality(jump_path(), 1.0, 1.0)
        assert not report.applicable
        assert not report.certificate.valid
        assert np.isfinite(report.sequential_value)
        assert np.isfinite(report.horizon_value)


def _carry_share(path, y, i=0, j=1):
    """Share of node i's round-2 obligations owed to j, as a function of the
    round-1 clearing y: the quantity whose cross-derivative must vanish for
    the joint feasible set to be convex."""
    first, second = path.shocks
    p1 = first.internal_liabilities[i, j]
    total1 = float(
        first.external_liabilities[i] + first.internal_liabilities[i].sum()
    )
    p2 = second.internal_liabilities[i, j] + p1 * (1.0 - y / total1)
    total2 = float(
        second.external_liabilities[i]
        + second.internal_liabilities[i].sum()
        + total1
        - y
    )
    return p2 / total2


class TestBilinearTermVanishes:
    def test_constant_proportions_kill_the_cross_derivative(self):
        path = hub_path(2)
        h = 1e-5
        for y in (0.3, 1.0, 2.0):
            slope = (_carry_share(path, y + h) - _carry_share(path, y - h)) / (2 * h)
            assert abs(slope) <= 1e-5

    def test_varying_proportions_leave_it_alive(self):
        path = jump_path()
        h = 1e-5
        slope = (_carry_share(path, 1.0 + h) - _carry_share(path, 1.0 - h)) / (2 * h)
        assert abs(slope) > 1e-3
