"""Gini-style inequality measures over intervention vectors, the linear
constraint block that caps them inside the per-round allocation LP, and
price-of-fairness accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import RelativeLiabilityMatrix, _freeze, _matrix, _vector

KINDS = ("standard", "spatial", "property")


@dataclass(frozen=True, eq=False)
class FairnessWeights:
    """Pairwise comparison weights ``w_ij >= 0`` with zero diagonal.

    The edge set is the ordered pairs with positive weight; both (i, j) and
    (j, i) contribute when both weights are positive, which is what makes the
    one-node-gets-everything extreme evaluate to exactly 1 under standard
    weights.
    """

    kind: str
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown fairness kind {self.kind!r}")
        w = _matrix(self.weights, None, "weights")
        if np.any(w < 0):
            raise ValidationError("fairness weights must be nonnegative")
        if np.any(np.abs(np.diag(w)) > 0):
            raise ValidationError("fairness weights must have a zero diagonal")
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def edges(self) -> list[tuple[int, int]]:
        ii, jj = np.nonzero(self.weights)
        return list(zip(ii.tolist(), jj.tolist()))

    def node_mass(self) -> np.ndarray:
        """Per-node normalizer ``s_i = sum_j (w_ij + w_ji)``."""
        return self.weights.sum(axis=1) + self.weights.sum(axis=0)


@dataclass(frozen=True)
class FairnessBudget:
    """Per-round inequality cap ``g`` in [0, 1], constant across rounds."""

    g: float

    def __post_init__(self):
        if not 0.0 <= self.g <= 1.0:
            raise ValidationError(f"fairness cap must lie in [0, 1], got {self.g}")


def standard_weights(n: int) -> FairnessWeights:
    """All off-diagonal pairs weighted 1: the classic inequality measure."""
    w = np.ones((n, n)) - np.eye(n)
    return FairnessWeights(kind="standard", weights=w)


def spatial_weights(matrix: RelativeLiabilityMatrix) -> FairnessWeights:
    """Pairs weighted by relative liabilities, so inequality between
    strongly tied nodes costs more."""
    return FairnessWeights(kind="spatial", weights=matrix.entries)


def property_weights(
    q, matrix: RelativeLiabilityMatrix | None = None, masked: bool = True
) -> FairnessWeights:
    """Pairs weighted by the gap in a sensitive attribute ``q in [0, 1]``.

    By default only pairs connected by a positive relative liability count
    (``masked=True``); the unmasked variant penalizes every attribute gap.
    """
    q = _vector(q, None, "q")
    if np.any(q < 0) or np.any(q > 1):
        raise ValidationError("attribute values must lie in [0, 1]")
    w = np.abs(q[:, None] - q[None, :])
    np.fill_diagonal(w, 0.0)
    if masked:
        if matrix is None:
            raise ValidationError("masked property weights need a liability matrix")
        w = w * (matrix.entries > 0)
    return FairnessWeights(kind="property", weights=w)


@dataclass(frozen=True)
class FairnessSpec:
    """How to build the round's weights and cap; weights that depend on the
    liability structure are re-derived every round."""

    kind: str
    budget: FairnessBudget
    q: np.ndarray | None = None
    masked: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown fairness kind {self.kind!r}")
        if isinstance(self.budget, (int, float)):
            object.__setattr__(self, "budget", FairnessBudget(float(self.budget)))
        if self.kind == "property":
            if self.q is None:
                raise ValidationError("property fairness needs an attribute vector")
            object.__setattr__(self, "q", np.asarray(self.q, dtype=float))

    @property
    def g(self) -> float:
        return self.budget.g

    def weights_for(self, matrix: RelativeLiabilityMatrix) -> FairnessWeights:
        if self.kind == "standard":
            return standard_weights(matrix.n)
        if self.kind == "spatial":
            return spatial_weights(matrix)
        return property_weights(self.q, matrix, masked=self.masked)


def gini_coefficient(interventions, weights: FairnessWeights) -> float:
    """Weighted inequality of an allocation, in [0, 1].

    Ratio of the weighted absolute allocation gaps over the edge set to the
    per-node-normalized total allocation; 0/0 (all-zero allocation or
    all-zero weights) is defined as 0.
    """
    z = _vector(interventions, weights.n, "interventions")
    if np.any(z < -1e-12):
        raise ValidationError("interventions must be nonnegative")
    w = weights.weights
    numer = float(np.sum(w * np.abs(z[:, None] - z[None, :])))
    denom = float(np.dot(z, weights.node_mass()))
    if denom <= 0.0:
        return 0.0
    return numer / denom


@dataclass(frozen=True, eq=False)
class FairnessBlock:
    """LP rows over the stacked variables ``(Z, varpi)``: one slack per
    unordered pair ``{i, j}`` (``i < j``) with ``w_ij + w_ji > 0``, its one
    row ``Z_i - Z_j - varpi_ij <= 0``, and one aggregate cap row.  All rows
    are <= with zero right-hand sides; slacks are bounded below by 0 and
    unbounded above.  ``E`` below counts unordered pairs, so a symmetric
    weight matrix gets half the slacks of its ordered edge set."""

    edges: tuple[tuple[int, int], ...]
    z_rows: np.ndarray     # (E + 1, n)
    cap_slack: np.ndarray  # (E,): the cap row's slack coefficients 2 w'
    rhs: np.ndarray        # (E + 1,)

    @property
    def n_slacks(self) -> int:
        return len(self.edges)

    @property
    def slack_rows(self) -> np.ndarray:
        """The (E + 1, E) slack coefficients as a dense matrix, for
        inspection; ``per_round_lp`` emits their nonzeros directly."""
        return np.vstack([-np.eye(self.n_slacks), self.cap_slack])


def fairness_constraint_block(weights: FairnessWeights, g: float) -> FairnessBlock:
    """Linearize ``GC(Z) <= g`` with one slack ``varpi_ij >= Z_i - Z_j`` per
    unordered pair, weighted ``w'_ij = w_ij + w_ji``, and the aggregate row
    ``sum_{i<j} w'_ij (2 varpi_ij - Z_i + Z_j) <= g * sum_i s_i Z_i``.

    Since ``|d| = 2 max(0, d) - d``, the slack ``max(0, Z_i - Z_j)`` turns
    the cap row into ``sum w'_ij |Z_i - Z_j| <= g s^T Z``, and any larger
    slack only tightens it (``w' >= 0``): the block's feasible set,
    projected onto ``Z``, is exactly ``GC(Z) <= g``, with one row per pair
    where a two-sided ``varpi >= |Z_i - Z_j|`` needs two."""
    if not 0.0 <= g <= 1.0:
        raise ValidationError(f"fairness cap must lie in [0, 1], got {g}")
    n = weights.n
    pair_w = weights.weights + weights.weights.T
    ii, jj = np.nonzero(np.triu(pair_w, k=1))
    e = ii.size
    k = np.arange(e)
    w = pair_w[ii, jj]
    z_rows = np.zeros((e + 1, n))
    # Z_i - Z_j <= varpi_k
    z_rows[k, ii] = 1.0
    z_rows[k, jj] = -1.0
    # sum_k w'_k (2 varpi_k - Z_i + Z_j) - g s^T Z <= 0
    z_rows[-1] = -g * weights.node_mass() - w @ z_rows[:e]
    return FairnessBlock(
        edges=tuple(zip(ii.tolist(), jj.tolist())),
        z_rows=z_rows,
        cap_slack=2.0 * w,
        rhs=np.zeros(e + 1),
    )


def price_of_fairness(v_unconstrained: float, v_constrained: float) -> float:
    """Ratio of unconstrained to fairness-constrained value.

    Within one round the constrained problem only adds rows, so its optimum
    cannot exceed the unconstrained one.  Across a multi-round run the two
    policies evolve different states, which can push the reported ratio a
    hair below 1; the ratio is reported as computed.  A zero constrained
    value against a positive unconstrained one is the ``inf`` sentinel.
    """
    if v_constrained <= 0.0:
        return float("inf") if v_unconstrained > 0.0 else 1.0
    return v_unconstrained / v_constrained
