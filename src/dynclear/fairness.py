"""Gini-style inequality measures over intervention vectors, the linear
constraint block that caps them inside the per-round allocation LP, and
price-of-fairness accounting."""

from __future__ import annotations

import numbers
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

    weights: np.ndarray

    def __post_init__(self):
        w = _matrix(self.weights, None, "weights")
        if np.any(w < 0):
            raise ValidationError("fairness weights must be nonnegative")
        if np.any(np.abs(np.diag(w)) > 0):
            raise ValidationError("fairness weights must have a zero diagonal")
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def node_mass(self) -> np.ndarray:
        """Per-node normalizer ``s_i = sum_j (w_ij + w_ji)``."""
        return self.weights.sum(axis=1) + self.weights.sum(axis=0)


def _check_cap(g) -> float:
    """The inequality cap ``g`` as a float, refusing anything but a real
    number (a bool included) in [0, 1]."""
    if isinstance(g, bool) or not isinstance(g, numbers.Real) or not 0.0 <= g <= 1.0:
        raise ValidationError(f"fairness cap must be a number in [0, 1], got {g!r}")
    return float(g)


def standard_weights(n: int) -> FairnessWeights:
    """All off-diagonal pairs weighted 1: the classic inequality measure."""
    w = np.ones((n, n)) - np.eye(n)
    return FairnessWeights(weights=w)


def spatial_weights(matrix: RelativeLiabilityMatrix) -> FairnessWeights:
    """Pairs weighted by relative liabilities, so inequality between
    strongly tied nodes costs more."""
    return FairnessWeights(weights=matrix.entries)


def property_weights(
    q, matrix: RelativeLiabilityMatrix | None = None, masked: bool = True
) -> FairnessWeights:
    """Pairs weighted by the gap in a sensitive attribute ``q in [0, 1]``.

    By default only pairs connected by a positive relative liability count
    (``masked=True``); the unmasked variant penalizes every attribute gap.
    """
    q = _vector(q, None if matrix is None else matrix.n, "q")
    if np.any(q < 0) or np.any(q > 1):
        raise ValidationError("attribute values must lie in [0, 1]")
    w = np.abs(q[:, None] - q[None, :])
    np.fill_diagonal(w, 0.0)
    if masked:
        if matrix is None:
            raise ValidationError("masked property weights need a liability matrix")
        w = w * (matrix.entries > 0)
    return FairnessWeights(weights=w)


@dataclass(frozen=True)
class FairnessSpec:
    """How to build the round's weights, and the per-round inequality cap
    ``g`` in [0, 1], constant across rounds; weights that depend on the
    liability structure are re-derived every round."""

    kind: str
    g: float
    q: np.ndarray | None = None
    masked: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown fairness kind {self.kind!r}")
        object.__setattr__(self, "g", _check_cap(self.g))
        if self.kind == "property":
            if self.q is None:
                raise ValidationError("property fairness needs an attribute vector")
            object.__setattr__(self, "q", np.asarray(self.q, dtype=float))

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
    unordered pair ``k = {i, j}`` (``i < j``) with ``w'_k = w_ij + w_ji > 0``,
    its one row ``Z_i - Z_j - varpi_k <= 0``, and one aggregate cap row
    ``cap_z @ Z + 2 w' @ varpi <= 0``.  Every right-hand side is zero;
    slacks are bounded below by 0 and unbounded above.  ``E`` below counts
    unordered pairs, so a symmetric weight matrix gets half the slacks of
    its ordered edge set."""

    first: np.ndarray        # (E,): pair k's node i
    second: np.ndarray       # (E,): pair k's node j > i
    pair_weight: np.ndarray  # (E,): w'_k
    cap_z: np.ndarray        # (n,): the cap row's Z coefficients

    @property
    def n_slacks(self) -> int:
        return self.first.size

    def triplets(self, row0: int, z0: int, slack0: int):
        """COO triplets ``(rows, cols, values)`` of the block's ``E + 1``
        rows, pair rows first and the cap row last, starting at row
        ``row0``, with ``Z`` at columns ``z0 ..`` and ``varpi`` at
        ``slack0 ..``."""
        e, n = self.n_slacks, self.cap_z.size
        pair = row0 + np.arange(e)
        slack = slack0 + np.arange(e)
        cap = np.full(n + e, row0 + e)
        return (
            np.concatenate([pair, pair, pair, cap]),
            np.concatenate([z0 + self.first, z0 + self.second, slack,
                            z0 + np.arange(n), slack]),
            np.concatenate([np.ones(e), np.full(2 * e, -1.0), self.cap_z,
                            2.0 * self.pair_weight]),
        )


def fairness_constraint_block(weights: FairnessWeights, g: float) -> FairnessBlock:
    """Linearize ``GC(Z) <= g`` with one slack ``varpi_ij >= Z_i - Z_j`` per
    unordered pair, weighted ``w'_ij = w_ij + w_ji``, and the aggregate row
    ``sum_{i<j} w'_ij (2 varpi_ij - Z_i + Z_j) <= g * sum_i s_i Z_i``.

    Since ``|d| = 2 max(0, d) - d``, the slack ``max(0, Z_i - Z_j)`` turns
    the cap row into ``sum w'_ij |Z_i - Z_j| <= g s^T Z``, and any larger
    slack only tightens it (``w' >= 0``): the block's feasible set,
    projected onto ``Z``, is exactly ``GC(Z) <= g``, with one row per pair
    where a two-sided ``varpi >= |Z_i - Z_j|`` needs two.  The cap row's
    ``Z`` coefficients are ``-g s - (F - S)``, where ``F_i`` sums ``w'_k``
    over the pairs whose first node is ``i`` and ``S_j`` over those whose
    second node is ``j``, each by ``np.bincount`` in pair order."""
    g = _check_cap(g)
    pair_w = weights.weights + weights.weights.T
    first, second = np.nonzero(np.triu(pair_w, k=1))
    w = pair_w[first, second]
    signed = (np.bincount(first, w, minlength=weights.n)
              - np.bincount(second, w, minlength=weights.n))
    return FairnessBlock(first=first, second=second, pair_weight=w,
                         cap_z=-g * weights.node_mass() - signed)


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
