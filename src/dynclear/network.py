"""Domain types and the deterministic transition law that carries unpaid
liabilities forward in time.

A round is modelled in two halves: shocks arrive (new internal/external
liabilities and external assets), then a clearing vector is chosen and
executed.  ``SystemState`` is the post-shock, pre-clearing view of a round;
``advance_state`` applies a clearing to it and folds in the next shock;
``play`` does the same on bare arrays along a whole path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

#: Smallest admissible external liability.  Keeps every row of the relative
#: liability matrix strictly substochastic, which the clearing fixed point
#: needs for uniqueness.
DEFAULT_B_FLOOR = 1e-6

#: Tolerance on maintained consistency invariants (totals vs. components).
CONSISTENCY_TOL = 1e-9

#: How far below 1 every row sum of the relative liability matrix must stay
#: for the clearing map to count as a contraction.
CONNECTIVITY_MARGIN = 1e-12


def _vector(x, n: int | None, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValidationError(f"{name} has length {arr.shape[0]}, expected {n}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _matrix(x, n: int | None, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValidationError(f"{name} has size {arr.shape[0]}, expected {n}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ShockRealization:
    """One round's exogenous environment: external liabilities ``b``,
    external assets ``c`` and the internal liability matrix ``l``.

    External liabilities must be strictly positive; values below ``b_floor``
    are rejected (never clamped), because the clearing contraction argument
    breaks down at zero.
    """

    round: int
    external_liabilities: np.ndarray
    external_assets: np.ndarray
    internal_liabilities: np.ndarray
    b_floor: float = DEFAULT_B_FLOOR

    def __post_init__(self):
        if self.round < 1:
            raise ValidationError(f"round must be >= 1, got {self.round}")
        b = _vector(self.external_liabilities, None, "external_liabilities")
        n = b.shape[0]
        c = _vector(self.external_assets, n, "external_assets")
        l = _matrix(self.internal_liabilities, n, "internal_liabilities")
        if (b < self.b_floor).any():
            bad = int(np.argmin(b))
            raise ValidationError(
                f"external_liabilities[{bad}] = {b[bad]} below floor {self.b_floor}"
            )
        if (c < 0).any():
            raise ValidationError("external_assets must be nonnegative")
        if (l < 0).any():
            raise ValidationError("internal_liabilities must be nonnegative")
        if (np.abs(np.diag(l)) > 0).any():
            raise ValidationError("internal_liabilities must have a zero diagonal")
        object.__setattr__(self, "external_liabilities", _freeze(b))
        object.__setattr__(self, "external_assets", _freeze(c))
        object.__setattr__(self, "internal_liabilities", _freeze(l))

    @property
    def n(self) -> int:
        return self.external_liabilities.shape[0]

    def shock_norm(self) -> float:
        """l1 mass of the round's liabilities: ``||b||_1 + ||l||_1``."""
        return float(self.external_liabilities.sum() + self.internal_liabilities.sum())


@dataclass(frozen=True, eq=False)
class SamplePath:
    """A contiguous realization of shocks for rounds ``t .. T``."""

    shocks: tuple[ShockRealization, ...]

    def __post_init__(self):
        shocks = tuple(self.shocks)
        if not shocks:
            raise ValidationError("sample path must contain at least one round")
        n = shocks[0].n
        for prev, cur in zip(shocks, shocks[1:]):
            if cur.round != prev.round + 1:
                raise ValidationError(
                    f"rounds must be contiguous: {prev.round} followed by {cur.round}"
                )
            if cur.n != n:
                raise ValidationError("all rounds must have the same number of nodes")
        object.__setattr__(self, "shocks", shocks)

    @property
    def n(self) -> int:
        return self.shocks[0].n

    @property
    def start_round(self) -> int:
        return self.shocks[0].round

    def __len__(self) -> int:
        return len(self.shocks)

    def __iter__(self):
        return iter(self.shocks)

    def shock_norm_bound(self) -> float:
        return max(s.shock_norm() for s in self.shocks)


@dataclass(frozen=True, eq=False)
class SystemState:
    """Outstanding liabilities at the start of a round, before clearing.

    ``totals[i]`` equals ``external[i] + pairwise[i].sum()`` (maintained by
    the constructors, not recomputed by callers).
    """

    pairwise: np.ndarray
    totals: np.ndarray
    external: np.ndarray

    def __post_init__(self):
        p = _matrix(self.pairwise, None, "pairwise")
        n = p.shape[0]
        totals = _vector(self.totals, n, "totals")
        external = _vector(self.external, n, "external")
        if (p < 0).any():
            raise ValidationError("pairwise liabilities must be nonnegative")
        if (external < -CONSISTENCY_TOL).any():
            raise ValidationError("external component must be nonnegative")
        recomputed = external + p.sum(axis=1)
        if np.max(np.abs(recomputed - totals)) > CONSISTENCY_TOL:
            raise ValidationError(
                "totals inconsistent with external + pairwise row sums"
            )
        object.__setattr__(self, "pairwise", _freeze(p))
        object.__setattr__(self, "totals", _freeze(totals))
        object.__setattr__(self, "external", _freeze(external))

    @property
    def n(self) -> int:
        return self.totals.shape[0]

    @classmethod
    def empty(cls, n: int) -> "SystemState":
        """The debt-free state used before the first round."""
        z = np.zeros(n)
        return cls(pairwise=np.zeros((n, n)), totals=z, external=z)

    @classmethod
    def from_components(cls, pairwise, external) -> "SystemState":
        pairwise = np.asarray(pairwise, dtype=float)
        external = np.asarray(external, dtype=float)
        return cls(pairwise=pairwise, totals=external + pairwise.sum(axis=1),
                   external=external)


@dataclass(frozen=True, eq=False)
class RelativeLiabilityMatrix:
    """Row-normalized outstanding liabilities and their row sums, which are
    derived from ``entries``."""

    entries: np.ndarray
    row_sums: np.ndarray = field(init=False)

    def __post_init__(self):
        a = _matrix(self.entries, None, "entries")
        object.__setattr__(self, "row_sums", _freeze(a.sum(axis=1)))
        object.__setattr__(self, "entries", _freeze(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def max_connectivity(self) -> float:
        return float(self.row_sums.max()) if self.row_sums.size else 0.0

    @classmethod
    def from_entries(cls, entries) -> "RelativeLiabilityMatrix":
        return cls(entries=entries)


def advance_state(
    state: SystemState, clearing, shock: ShockRealization
) -> SystemState:
    """Apply ``clearing`` to ``state`` and fold in the next round's shock.

    The unpaid fraction of each node's obligations scales all of its pairwise
    and external liabilities by the same factor (pro-rata carry-over); the
    carry factor is defined as 0 for nodes with no outstanding liabilities.
    """
    clearing = _vector(clearing, state.n, "clearing")
    if shock.n != state.n:
        raise ValidationError(
            f"shock has {shock.n} nodes, state has {state.n}"
        )
    if (clearing < -CONSISTENCY_TOL).any():
        raise ValidationError("clearing must be nonnegative")
    if (clearing > state.totals + CONSISTENCY_TOL).any():
        bad = int(np.argmax(clearing - state.totals))
        raise ValidationError(
            f"clearing[{bad}] = {clearing[bad]} exceeds outstanding total "
            f"{state.totals[bad]}"
        )
    pairwise, external, totals = carry_forward(
        state.pairwise, state.external, state.totals, clearing, shock
    )
    return SystemState(pairwise=pairwise, totals=totals, external=external)


def carry_forward(pairwise, external, totals, clearing, shock):
    """The carry arithmetic of :func:`advance_state` on bare arrays, for one
    state (``(n, n)`` / ``(n,)``) or a stack of them (``(k, n, n)`` /
    ``(k, n)``): returns the next ``(pairwise, external, totals)``."""
    paid = np.divide(clearing, totals, out=np.ones(np.shape(totals)),
                     where=totals > 0)
    carry = np.clip(1.0 - paid, 0.0, 1.0)
    pairwise = shock.internal_liabilities + pairwise * carry[..., :, None]
    external = shock.external_liabilities + external * carry
    return pairwise, external, external + pairwise.sum(axis=-1)


def relative_entries(pairwise, totals) -> np.ndarray:
    """Row-normalized pairwise liabilities, for one state or a stack;
    zero-total rows map to all-zero rows."""
    rows = totals[..., :, None]
    return np.divide(pairwise, rows, out=np.zeros(np.shape(pairwise)),
                     where=rows > 0)


def play(start: SystemState, path: SamplePath, step, stack: tuple[int, ...] = ()):
    """Carry ``start``, or copies of it stacked to shape ``stack``, along ``path``:
    each round folds the shock and the previous round's clearing into the
    state (:func:`carry_forward`, from ``start`` with nothing cleared) and
    row-normalizes it (:func:`relative_entries`), then ``step(t, shock,
    totals, entries)`` returns the round's ``(clearing, result)``.  Yields
    each ``result``."""
    if start.n != path.n:
        raise ValidationError("start state and path disagree on node count")
    pairwise, external, totals = (np.broadcast_to(a, stack + a.shape) for a in
                                  (start.pairwise, start.external, start.totals))
    clearing = np.zeros(totals.shape)
    for t, shock in enumerate(path):
        pairwise, external, totals = carry_forward(
            pairwise, external, totals, clearing, shock)
        clearing, result = step(t, shock, totals, relative_entries(pairwise, totals))
        yield result


def relative_matrix(state: SystemState) -> RelativeLiabilityMatrix:
    """Row-normalize the state's pairwise liabilities; zero-total rows map
    to all-zero rows."""
    entries = relative_entries(state.pairwise, state.totals)
    return RelativeLiabilityMatrix(entries=entries)


def check_nonvanishing(matrix: RelativeLiabilityMatrix) -> bool:
    """True iff every node keeps a strictly positive external share,
    i.e. ``max_i beta_i < 1 - CONNECTIVITY_MARGIN``."""
    return bool(matrix.max_connectivity < 1.0 - CONNECTIVITY_MARGIN)
