import numpy as np
import pytest

from dynclear import (
    GammaEnvironment,
    ReplayFormatError,
    SbmEnvironment,
    SbmParams,
    SystemState,
    ValidationError,
    advance_state,
    check_nonvanishing,
    load_replay,
    relative_matrix,
    sample_gamma_round,
    sample_path,
    sample_sbm_round,
)

from conftest import write_hub_replay


def paper_sbm_params(**overrides):
    kwargs = dict(
        n_core=10,
        n_periphery=40,
        block_probs=np.array([[0.6, 0.35], [0.35, 0.1]]),
        liability_rate=1.0,
        asset_level=0.0,
    )
    kwargs.update(overrides)
    return SbmParams(**kwargs)


class TestReplay:
    def test_hub_files_round_trip(self, tmp_path):
        internal, external = write_hub_replay(tmp_path)
        env = load_replay(internal, external)
        assert env.n == 3 and env.horizon == 2
        shock = env.shocks[0]
        np.testing.assert_allclose(shock.internal_liabilities[0], [0.0, 1.0, 1.0])
        np.testing.assert_allclose(shock.external_liabilities, 1.0)
        np.testing.assert_allclose(shock.external_assets, [1.0, 0.0, 0.0])

    def test_pure_external_economy(self, tmp_path):
        internal = tmp_path / "internal.csv"
        internal.write_text("t,i,j,amount\n")
        external = tmp_path / "external.csv"
        external.write_text("t,i,b,c\n1,0,1.5,0.5\n1,1,2.5,0\n")
        env = load_replay(str(internal), str(external))
        assert env.n == 2 and env.horizon == 1
        assert env.shocks[0].internal_liabilities.sum() == 0.0

    def test_zero_external_liability_rejected_with_line(self, tmp_path):
        internal = tmp_path / "internal.csv"
        internal.write_text("t,i,j,amount\n")
        external = tmp_path / "external.csv"
        external.write_text("t,i,b,c\n1,0,1,0\n1,1,0,0\n")
        with pytest.raises(ReplayFormatError, match="external.csv:3"):
            load_replay(str(internal), str(external))

    def test_bad_header_rejected(self, tmp_path):
        internal = tmp_path / "internal.csv"
        internal.write_text("time,i,j,amount\n")
        external = tmp_path / "external.csv"
        external.write_text("t,i,b,c\n1,0,1,0\n")
        with pytest.raises(ReplayFormatError, match="internal.csv:1"):
            load_replay(str(internal), str(external))

    def test_unparseable_field_reports_line(self, tmp_path):
        internal = tmp_path / "internal.csv"
        internal.write_text("t,i,j,amount\n1,0,1,abc\n")
        external = tmp_path / "external.csv"
        external.write_text("t,i,b,c\n1,0,1,0\n1,1,1,0\n")
        with pytest.raises(ReplayFormatError, match="internal.csv:2"):
            load_replay(str(internal), str(external))

    def test_missing_external_row_rejected(self, tmp_path):
        internal = tmp_path / "internal.csv"
        internal.write_text("t,i,j,amount\n1,0,1,1\n")
        external = tmp_path / "external.csv"
        external.write_text("t,i,b,c\n1,0,1,0\n")  # node 1 absent
        with pytest.raises(ReplayFormatError, match="missing external"):
            load_replay(str(internal), str(external))

    def test_replay_returns_stored_rounds_verbatim(self, hub_env):
        rng = np.random.default_rng(0)
        path = sample_path(hub_env, 1, 2, rng)
        assert path.shocks == hub_env.shocks
        sub = sample_path(hub_env, 2, 2, rng)
        assert sub.shocks == (hub_env.shocks[1],)

    def test_replay_span_errors(self, hub_env):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="requested"):
            hub_env.sample_path(1, 3, rng)

    def test_shock_norm_bound(self, hub_env):
        assert hub_env.shock_norm_bound() == pytest.approx(5.0)


class TestSbm:
    def test_disconnected_blocks_have_no_internal_liabilities(self):
        params = paper_sbm_params(block_probs=np.zeros((2, 2)))
        shock = sample_sbm_round(params, np.random.default_rng(1))
        assert shock.internal_liabilities.sum() == 0.0

    def test_full_core_block_is_complete(self):
        params = paper_sbm_params(
            block_probs=np.array([[1.0, 0.0], [0.0, 0.0]])
        )
        shock = sample_sbm_round(params, np.random.default_rng(2))
        core = shock.internal_liabilities[:10, :10]
        off_diag = core[~np.eye(10, dtype=bool)]
        assert np.all(off_diag > 0)
        assert shock.internal_liabilities[10:, :].sum() == 0.0

    def test_zero_asset_level_is_exact(self):
        shock = sample_sbm_round(paper_sbm_params(), np.random.default_rng(3))
        assert np.all(shock.external_assets == 0.0)

    def test_exponential_liability_mean(self):
        params = paper_sbm_params(
            n_core=2, n_periphery=0, block_probs=np.full((2, 2), 1.0)
        )
        rng = np.random.default_rng(4)
        draws = np.array(
            [sample_sbm_round(params, rng).internal_liabilities[0, 1]
             for _ in range(50_000)]
        )
        assert abs(draws.mean() - 1.0) <= 0.015

    def test_core_core_edge_count_matches_probability(self):
        params = paper_sbm_params()
        rng = np.random.default_rng(5)
        counts = []
        for _ in range(200):
            shock = sample_sbm_round(params, rng)
            core = shock.internal_liabilities[:10, :10]
            counts.append(int((core > 0).sum()))
        expected = 0.6 * 10 * 9  # directed pairs inside the core
        assert abs(np.mean(counts) - expected) <= 0.1 * expected

    def test_environment_sampling_contract(self):
        env = SbmEnvironment(params=paper_sbm_params(), horizon=10)
        path = env.sample_path(1, 10, np.random.default_rng(6))
        assert len(path) == 10 and path.n == 50


class TestGamma:
    def test_zero_count_pairs_are_exactly_zero(self):
        counts = np.array([[0, 2], [0, 0]])
        shock = sample_gamma_round(
            counts, np.array([1, 1]), np.array([0, 3]), np.random.default_rng(7)
        )
        assert shock.internal_liabilities[1, 0] == 0.0
        assert shock.internal_liabilities[0, 1] > 0.0
        assert shock.external_assets[0] == 0.0

    def test_isolated_sender_still_owes_outside(self):
        counts = np.zeros((2, 2), dtype=int)
        rng = np.random.default_rng(8)
        for _ in range(200):
            shock = sample_gamma_round(
                counts, np.array([0, 0]), np.array([0, 0]), rng
            )
            assert np.all(shock.external_liabilities >= 1.0)

    def test_gamma_mean_tracks_count(self):
        k = 7
        counts = np.array([[0, k], [0, 0]])
        rng = np.random.default_rng(9)
        draws = np.array(
            [
                sample_gamma_round(
                    counts, np.array([1, 1]), np.array([0, 0]), rng
                ).internal_liabilities[0, 1]
                for _ in range(50_000)
            ]
        )
        assert abs(draws.mean() - k) <= 0.02 * k

    def test_counts_must_be_nonnegative_integers(self):
        with pytest.raises(ValidationError):
            sample_gamma_round(
                np.array([[0.0, 1.5], [0.0, 0.0]]),
                np.array([1, 1]),
                np.array([0, 0]),
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize(
        "fields",
        [
            {"counts": [["a", 1], [1, 0]]},
            {"out_counts": ["a", 1]},
            {"counts": [[0, 1], [1]]},
            {"counts": [[0, 1.5], [1, 0]]},
            {"in_counts": [0, -1]},
            {"out_counts": [1, 1, 1]},
            {"counts": [[0, np.inf], [1, 0]]},
        ],
    )
    def test_environment_checks_counts_when_built(self, fields):
        data = {"counts": [[0, 1], [1, 0]], "out_counts": [1, 1],
                "in_counts": [0, 1], **fields}
        with pytest.raises(ValidationError):
            GammaEnvironment(horizon=2, **data)

    def test_environment_wrapper(self):
        env = GammaEnvironment(
            counts=np.array([[0, 3], [1, 0]]),
            out_counts=np.array([2, 0]),
            in_counts=np.array([0, 1]),
            horizon=4,
        )
        path = env.sample_path(1, 4, np.random.default_rng(10))
        assert len(path) == 4
        assert all(np.all(s.external_liabilities >= 1.0) for s in path)


class TestContracts:
    def test_determinism_per_seed(self):
        env = SbmEnvironment(params=paper_sbm_params(), horizon=3)
        a = env.sample_path(1, 3, np.random.default_rng(123))
        b = env.sample_path(1, 3, np.random.default_rng(123))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(
                x.internal_liabilities, y.internal_liabilities
            )
            np.testing.assert_array_equal(
                x.external_liabilities, y.external_liabilities
            )

    def test_generated_rounds_keep_the_system_contracting(self):
        env = SbmEnvironment(params=paper_sbm_params(), horizon=4)
        rng = np.random.default_rng(11)
        path = env.sample_path(1, 4, rng)
        state = SystemState.empty(env.n)
        clearing = np.zeros(env.n)
        for shock in path:
            state = advance_state(state, clearing, shock)
            assert check_nonvanishing(relative_matrix(state))
            clearing = rng.uniform(0, 1, env.n) * state.totals

    def test_rounds_out_of_horizon_rejected(self):
        env = SbmEnvironment(params=paper_sbm_params(), horizon=3)
        with pytest.raises(ValidationError):
            env.sample_path(0, 2, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            env.sample_path(2, 4, np.random.default_rng(0))
