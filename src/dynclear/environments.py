"""Markovian shock generators sharing a single sampling contract: a
core-periphery blockmodel, a transaction-count gamma model, and a
deterministic replay of recorded rounds."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ReplayFormatError, ValidationError
from .network import DEFAULT_B_FLOOR, SamplePath, ShockRealization


class EnvironmentModel:
    """Base sampling contract.

    Subclasses implement :meth:`sample_round`; rounds of the shipped
    synthetic models are drawn i.i.d., the degenerate case of a Markov
    chain.  Identical ``(model, rng state)`` pairs yield identical samples.
    """

    kind: str = "abstract"
    n: int
    horizon: int

    def sample_round(self, t: int, rng: np.random.Generator) -> ShockRealization:
        raise NotImplementedError

    def sample_path(
        self, from_round: int, to_round: int, rng: np.random.Generator
    ) -> SamplePath:
        if not 1 <= from_round <= to_round <= self.horizon:
            raise ValidationError(
                f"rounds {from_round}..{to_round} outside horizon 1..{self.horizon}"
            )
        return SamplePath(
            shocks=tuple(
                self.sample_round(t, rng) for t in range(from_round, to_round + 1)
            )
        )

    def shock_norm_bound(self) -> float | None:
        """Sup of ||b||_1 + ||l||_1 over the environment, when finite."""
        return None


def sample_path(
    model: EnvironmentModel, from_round: int, to_round: int, rng: np.random.Generator
) -> SamplePath:
    return model.sample_path(from_round, to_round, rng)


@dataclass(frozen=True, eq=False)
class SbmParams:
    """Core-periphery blockmodel parameters: block sizes, the 2x2 directed
    edge probabilities ((CC, CP), (PC, PP)), the exponential rate shared by
    internal and external liabilities, and a constant asset level."""

    n_core: int
    n_periphery: int
    block_probs: np.ndarray
    liability_rate: float = 1.0
    asset_level: float = 0.0

    def __post_init__(self):
        probs = np.asarray(self.block_probs, dtype=float)
        if probs.shape != (2, 2):
            raise ValidationError("block_probs must be a 2x2 matrix")
        if np.any(probs < 0) or np.any(probs > 1):
            raise ValidationError("block probabilities must lie in [0, 1]")
        if self.n_core < 0 or self.n_periphery < 0 or self.n_core + self.n_periphery < 1:
            raise ValidationError("need at least one node")
        if self.liability_rate <= 0:
            raise ValidationError("liability_rate must be positive")
        if self.asset_level < 0:
            raise ValidationError("asset_level must be nonnegative")
        object.__setattr__(self, "block_probs", probs)

    @property
    def n(self) -> int:
        return self.n_core + self.n_periphery


def sample_sbm_round(
    params: SbmParams,
    rng: np.random.Generator,
    round_index: int = 1,
    b_floor: float = DEFAULT_B_FLOOR,
) -> ShockRealization:
    """One blockmodel round: directed edges by block probability, liability
    mass exponential on present edges, exponential external liabilities
    floored away from zero, constant external assets."""
    n = params.n
    core = np.arange(n) < params.n_core
    block = np.where(core, 0, 1)
    probs = params.block_probs[block[:, None], block[None, :]]
    np.fill_diagonal(probs, 0.0)
    present = rng.random((n, n)) < probs
    scale = 1.0 / params.liability_rate
    internal = np.where(present, rng.exponential(scale, size=(n, n)), 0.0)
    np.fill_diagonal(internal, 0.0)
    b = np.maximum(rng.exponential(scale, size=n), b_floor)
    c = np.full(n, params.asset_level)
    return ShockRealization(
        round=round_index,
        external_liabilities=b,
        external_assets=c,
        internal_liabilities=internal,
        b_floor=min(b_floor, DEFAULT_B_FLOOR),
    )


@dataclass(frozen=True, eq=False)
class SbmEnvironment(EnvironmentModel):
    params: SbmParams
    horizon: int
    b_floor: float = DEFAULT_B_FLOOR
    kind: str = field(default="sbm_core_periphery", init=False)

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")

    @property
    def n(self) -> int:
        return self.params.n

    def sample_round(self, t, rng):
        return sample_sbm_round(self.params, rng, round_index=t, b_floor=self.b_floor)


def _gamma_or_zero(rng, shape: np.ndarray) -> np.ndarray:
    return np.where(shape > 0, rng.gamma(np.maximum(shape, 1e-300)), 0.0)


def _gamma_counts(counts, out_counts, in_counts):
    """The transaction counts as float arrays, checked to be an ``n x n``
    matrix and two length-``n`` vectors of nonnegative integers."""
    arrays = []
    for name, value in (("counts", counts), ("out_counts", out_counts),
                        ("in_counts", in_counts)):
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError) as exc:  # text, or ragged rows
            raise ValidationError(f"{name} must be a numeric array: {exc}") from None
        if not np.all(np.isfinite(arr) & (arr >= 0) & (arr == np.floor(arr))):
            raise ValidationError(f"{name} must be nonnegative integers")
        arrays.append(arr)
    counts, out_counts, in_counts = arrays
    n = counts.shape[0] if counts.ndim else 0
    if counts.shape != (n, n):
        raise ValidationError("counts must be square")
    if out_counts.shape != (n,) or in_counts.shape != (n,):
        raise ValidationError("external counts must have length n")
    return counts, out_counts, in_counts


def sample_gamma_round(
    counts,
    out_counts,
    in_counts,
    rng: np.random.Generator,
    round_index: int = 1,
) -> ShockRealization:
    """One transaction-model round: each liability is Gamma(count, 1) where
    the count is the number of transactions on that pair; zero counts give
    exactly zero.  External-out counts are raised to at least one and the
    resulting liability floored at 1, keeping every node strictly exposed to
    the outside."""
    counts, out_counts, in_counts = _gamma_counts(counts, out_counts, in_counts)
    internal = _gamma_or_zero(rng, counts)
    np.fill_diagonal(internal, 0.0)
    b = np.maximum(1.0, _gamma_or_zero(rng, np.maximum(out_counts, 1)))
    c = _gamma_or_zero(rng, in_counts)
    return ShockRealization(
        round=round_index,
        external_liabilities=b,
        external_assets=c,
        internal_liabilities=internal,
    )


@dataclass(frozen=True, eq=False)
class GammaEnvironment(EnvironmentModel):
    counts: np.ndarray
    out_counts: np.ndarray
    in_counts: np.ndarray
    horizon: int
    kind: str = field(default="gamma_transactions", init=False)

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")
        arrays = _gamma_counts(self.counts, self.out_counts, self.in_counts)
        for name, arr in zip(("counts", "out_counts", "in_counts"), arrays):
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    def sample_round(self, t, rng):
        return sample_gamma_round(
            self.counts, self.out_counts, self.in_counts, rng, round_index=t
        )


@dataclass(frozen=True, eq=False)
class ReplayEnvironment(EnvironmentModel):
    """Deterministic playback of recorded rounds 1..T."""

    shocks: tuple[ShockRealization, ...]
    kind: str = field(default="replay", init=False)

    def __post_init__(self):
        path = SamplePath(shocks=tuple(self.shocks))  # validates contiguity
        if path.start_round != 1:
            raise ValidationError("replay must start at round 1")
        object.__setattr__(self, "shocks", path.shocks)

    @property
    def n(self) -> int:
        return self.shocks[0].n

    @property
    def horizon(self) -> int:
        return len(self.shocks)

    def sample_round(self, t, rng):
        if not 1 <= t <= self.horizon:
            raise ValidationError(
                f"round {t} outside recorded horizon 1..{self.horizon}"
            )
        return self.shocks[t - 1]

    def sample_path(self, from_round, to_round, rng):
        if not 1 <= from_round <= to_round <= self.horizon:
            raise ValidationError(
                f"replay holds rounds 1..{self.horizon}, "
                f"requested {from_round}..{to_round}"
            )
        return SamplePath(shocks=self.shocks[from_round - 1 : to_round])

    def shock_norm_bound(self) -> float:
        return max(s.shock_norm() for s in self.shocks)


def _read_rows(path: str, expected_header: list[str]):
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ReplayFormatError(path, 0, str(exc)) from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ReplayFormatError(path, 1, "missing header row") from None
        if [h.strip() for h in header] != expected_header:
            raise ReplayFormatError(
                path, 1, f"expected header {','.join(expected_header)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(expected_header):
                raise ReplayFormatError(
                    path, lineno, f"expected {len(expected_header)} fields"
                )
            yield lineno, row


def load_replay(internal_csv: str, external_csv: str) -> ReplayEnvironment:
    """Build a replay environment from two CSV files.

    ``internal_csv`` holds ``t,i,j,amount`` rows (1-based rounds, 0-based
    node ids); missing triples mean zero.  ``external_csv`` holds
    ``t,i,b,c`` rows.  Every parse problem is reported with its line number;
    non-positive external liabilities are rejected.
    """
    internal: dict[tuple[int, int, int], float] = {}
    external: dict[tuple[int, int], tuple[float, float]] = {}
    max_node = -1
    max_round = 0

    for lineno, row in _read_rows(internal_csv, ["t", "i", "j", "amount"]):
        try:
            t, i, j = int(row[0]), int(row[1]), int(row[2])
            amount = float(row[3])
        except ValueError as exc:
            raise ReplayFormatError(internal_csv, lineno, str(exc)) from exc
        if t < 1:
            raise ReplayFormatError(internal_csv, lineno, f"round {t} must be >= 1")
        if i < 0 or j < 0:
            raise ReplayFormatError(internal_csv, lineno, "node ids must be >= 0")
        if i == j:
            raise ReplayFormatError(internal_csv, lineno, "self-liability not allowed")
        if amount < 0:
            raise ReplayFormatError(internal_csv, lineno, "amount must be >= 0")
        internal[(t, i, j)] = internal.get((t, i, j), 0.0) + amount
        max_node = max(max_node, i, j)
        max_round = max(max_round, t)

    for lineno, row in _read_rows(external_csv, ["t", "i", "b", "c"]):
        try:
            t, i = int(row[0]), int(row[1])
            b, c = float(row[2]), float(row[3])
        except ValueError as exc:
            raise ReplayFormatError(external_csv, lineno, str(exc)) from exc
        if t < 1:
            raise ReplayFormatError(external_csv, lineno, f"round {t} must be >= 1")
        if i < 0:
            raise ReplayFormatError(external_csv, lineno, "node ids must be >= 0")
        if b < DEFAULT_B_FLOOR:
            raise ReplayFormatError(
                external_csv, lineno,
                f"external liability {b} below the floor {DEFAULT_B_FLOOR}",
            )
        if c < 0:
            raise ReplayFormatError(external_csv, lineno, "assets must be >= 0")
        if (t, i) in external:
            raise ReplayFormatError(external_csv, lineno, f"duplicate entry ({t},{i})")
        external[(t, i)] = (b, c)
        max_node = max(max_node, i)
        max_round = max(max_round, t)

    if max_round == 0:
        raise ReplayFormatError(external_csv, 1, "no rounds found")
    n = max_node + 1
    seen = np.zeros((max_round, n), dtype=bool)
    b = np.zeros((max_round, n))
    c = np.zeros((max_round, n))
    for (t, i), entry in external.items():
        b[t - 1, i], c[t - 1, i] = entry
        seen[t - 1, i] = True
    missing = np.argwhere(~seen)  # in (round, node) order
    if missing.size:
        t, i = missing[0]
        raise ReplayFormatError(
            external_csv, 1,
            f"missing external entry for round {t + 1}, node {i} "
            "(external liabilities must be strictly positive)",
        )
    l = np.zeros((max_round, n, n))
    for (t, i, j), amount in internal.items():
        l[t - 1, i, j] = amount
    return ReplayEnvironment(shocks=tuple(
        ShockRealization(
            round=t + 1, external_liabilities=b[t], external_assets=c[t],
            internal_liabilities=l[t],
        )
        for t in range(max_round)
    ))
