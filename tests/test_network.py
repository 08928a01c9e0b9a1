import numpy as np
import pytest

from dynclear import (
    InterventionVector,
    RelativeLiabilityMatrix,
    SamplePath,
    ShockRealization,
    SystemState,
    ValidationError,
    advance_state,
    check_nonvanishing,
    relative_matrix,
)

from conftest import hub_shock, random_general_path


def test_shock_rejects_external_liability_below_floor():
    with pytest.raises(ValidationError, match="below floor"):
        ShockRealization(
            round=1,
            external_liabilities=[1.0, 0.0],
            external_assets=[0.0, 0.0],
            internal_liabilities=np.zeros((2, 2)),
        )


def test_shock_floor_is_configurable_not_clamping():
    shock = ShockRealization(
        round=1,
        external_liabilities=[1e-8, 1e-8],
        external_assets=[0.0, 0.0],
        internal_liabilities=np.zeros((2, 2)),
        b_floor=1e-9,
    )
    assert shock.external_liabilities[0] == 1e-8


@pytest.mark.parametrize(
    "field,value",
    [
        ("external_assets", [-0.1, 0.0]),
        ("internal_liabilities", [[0.0, -1.0], [0.0, 0.0]]),
        ("internal_liabilities", [[0.5, 0.0], [0.0, 0.0]]),  # nonzero diagonal
    ],
)
def test_shock_field_validation(field, value):
    kwargs = dict(
        round=1,
        external_liabilities=[1.0, 1.0],
        external_assets=[0.0, 0.0],
        internal_liabilities=np.zeros((2, 2)),
    )
    kwargs[field] = value
    with pytest.raises(ValidationError):
        ShockRealization(**kwargs)


def test_sample_path_requires_contiguous_rounds():
    with pytest.raises(ValidationError, match="contiguous"):
        SamplePath(shocks=(hub_shock(1), hub_shock(3)))
    with pytest.raises(ValidationError, match="at least one"):
        SamplePath(shocks=())


def test_system_state_totals_consistency_enforced():
    with pytest.raises(ValidationError, match="inconsistent"):
        SystemState(
            pairwise=np.zeros((2, 2)),
            totals=[1.0, 0.0],
            external=[0.0, 0.0],
        )


def test_advance_state_hub_default_carry():
    # pay (1, 1/3, 1/3) against round-1 totals (3, 1, 1): two thirds of every
    # obligation rolls forward, landing on (5, 5/3, 5/3)
    state = advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1))
    np.testing.assert_allclose(state.totals, [3.0, 1.0, 1.0])
    nxt = advance_state(state, [1.0, 1 / 3, 1 / 3], hub_shock(2))
    np.testing.assert_allclose(nxt.totals, [5.0, 5 / 3, 5 / 3], atol=1e-9)
    np.testing.assert_allclose(nxt.pairwise[0], [0.0, 5 / 3, 5 / 3], atol=1e-9)


def test_advance_state_full_clearing_leaves_no_carry():
    state = advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1))
    nxt = advance_state(state, [3.0, 1.0, 1.0], hub_shock(2))
    np.testing.assert_allclose(nxt.totals, [3.0, 1.0, 1.0], atol=1e-9)


def test_advance_state_full_clearing_zero_shock_zeroes_out():
    state = advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1))
    quiet = ShockRealization(
        round=2,
        external_liabilities=np.full(3, 1e-6),
        external_assets=np.zeros(3),
        internal_liabilities=np.zeros((3, 3)),
    )
    nxt = advance_state(state, state.totals, quiet)
    np.testing.assert_allclose(nxt.pairwise, 0.0)
    np.testing.assert_allclose(nxt.totals, 1e-6)


def test_advance_state_rejects_bad_inputs():
    state = advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1))
    with pytest.raises(ValidationError, match="exceeds outstanding"):
        advance_state(state, [4.0, 0.0, 0.0], hub_shock(2))
    with pytest.raises(ValidationError):
        advance_state(state, [0.0, 0.0], hub_shock(2))
    bad_shock = ShockRealization(
        round=2,
        external_liabilities=[1.0, 1.0],
        external_assets=[0.0, 0.0],
        internal_liabilities=np.zeros((2, 2)),
    )
    with pytest.raises(ValidationError, match="nodes"):
        advance_state(state, np.zeros(3), bad_shock)


def test_conservation_of_pairwise_mass_under_random_clearings():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        path = random_general_path(rng, n, 3)
        state = SystemState.empty(n)
        clearing = np.zeros(n)
        for shock in path:
            prev_internal = state.pairwise.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                carry = np.where(state.totals > 0, 1 - clearing / state.totals, 0.0)
            state = advance_state(state, clearing, shock)
            expected = shock.internal_liabilities.sum(axis=1) + prev_internal * carry
            np.testing.assert_allclose(
                state.pairwise.sum(axis=1), expected, atol=1e-9
            )
            assert state.pairwise.min() >= 0.0
            clearing = rng.uniform(0, 1, n) * state.totals


def test_always_full_clearing_means_no_accumulation():
    rng = np.random.default_rng(7)
    path = random_general_path(rng, 4, 4)
    state = SystemState.empty(4)
    clearing = np.zeros(4)
    for shock in path:
        state = advance_state(state, clearing, shock)
        instantaneous = (
            shock.external_liabilities + shock.internal_liabilities.sum(axis=1)
        )
        np.testing.assert_allclose(state.totals, instantaneous, atol=1e-9)
        clearing = state.totals


def test_relative_matrix_hub_round_one():
    state = advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1))
    matrix = relative_matrix(state)
    np.testing.assert_allclose(matrix.entries[0], [0.0, 1 / 3, 1 / 3])
    np.testing.assert_allclose(matrix.row_sums, [2 / 3, 0.0, 0.0])


def test_relative_matrix_hub_round_two_shares_unchanged():
    state = advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1))
    nxt = advance_state(state, [1.0, 1 / 3, 1 / 3], hub_shock(2))
    matrix = relative_matrix(nxt)
    assert matrix.entries[0, 1] == pytest.approx(1 / 3, abs=1e-12)


def test_relative_matrix_zero_total_row_is_zero():
    state = SystemState.from_components(
        pairwise=np.zeros((2, 2)), external=[1.0, 0.0]
    )
    matrix = relative_matrix(state)
    np.testing.assert_allclose(matrix.entries[1], 0.0)
    assert matrix.row_sums[1] == 0.0


def test_check_nonvanishing():
    hub = relative_matrix(advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1)))
    assert check_nonvanishing(hub)
    full = RelativeLiabilityMatrix.from_entries([[0.0, 1.0], [0.0, 0.0]])
    assert not check_nonvanishing(full)
    assert check_nonvanishing(RelativeLiabilityMatrix.from_entries(np.zeros((3, 3))))


def test_intervention_vector_validation():
    InterventionVector(amounts=[1.0, 1.0], budget=2.0, caps=[1.0, 1.0])
    with pytest.raises(ValidationError, match="budget"):
        InterventionVector(amounts=[2.0, 1.0], budget=2.0, caps=[2.0, 2.0])
    with pytest.raises(ValidationError, match="caps"):
        InterventionVector(amounts=[2.0, 0.0], budget=3.0, caps=[1.0, 1.0])
    with pytest.raises(ValidationError, match="nonnegative"):
        InterventionVector(amounts=[-0.5, 0.0], budget=1.0, caps=[1.0, 1.0])


def test_states_are_immutable():
    state = advance_state(SystemState.empty(3), np.zeros(3), hub_shock(1))
    with pytest.raises(ValueError):
        state.totals[0] = 99.0
    shock = hub_shock(1)
    with pytest.raises(ValueError):
        shock.internal_liabilities[0, 1] = 5.0
