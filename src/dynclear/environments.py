"""Markovian shock generators sharing a single sampling contract: a
core-periphery blockmodel, a transaction-count gamma model, and a
deterministic replay of recorded rounds."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ReplayFormatError, ValidationError
from .network import DEFAULT_B_FLOOR, SamplePath, ShockRealization


class EnvironmentModel:
    """Base sampling contract.

    Subclasses implement :meth:`sample_round`, or override
    :meth:`sample_path` as a replay does; rounds of the shipped synthetic
    models are drawn i.i.d., the degenerate case of a Markov chain.
    Identical ``(model, rng state)`` pairs yield identical samples.
    """

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


@dataclass(frozen=True, eq=False)
class SbmParams:
    """Core-periphery blockmodel parameters: block sizes, the 2x2 directed
    edge probabilities ((CC, CP), (PC, PP)), the exponential rate shared by
    internal and external liabilities, and a constant asset level.
    ``edge_probs`` is the read-only n x n matrix of those probabilities per
    node pair, 0 on the diagonal, built once here for every round drawn."""

    n_core: int
    n_periphery: int
    block_probs: np.ndarray
    liability_rate: float = 1.0
    asset_level: float = 0.0
    edge_probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        probs = np.asarray(self.block_probs, dtype=float)
        if probs.shape != (2, 2):
            raise ValidationError("block_probs must be a 2x2 matrix")
        if np.any(probs < 0) or np.any(probs > 1):
            raise ValidationError("block probabilities must lie in [0, 1]")
        if self.n_core < 0 or self.n_periphery < 0 or self.n_core + self.n_periphery < 1:
            raise ValidationError("need at least one node")
        if not 0.0 < self.liability_rate < np.inf:  # NaN fails too
            raise ValidationError("liability_rate must be finite and positive")
        if not 0.0 <= self.asset_level < np.inf:
            raise ValidationError("asset_level must be finite and nonnegative")
        object.__setattr__(self, "block_probs", probs)
        block = np.where(np.arange(self.n) < self.n_core, 0, 1)
        edges = probs[block[:, None], block[None, :]]
        np.fill_diagonal(edges, 0.0)
        edges.flags.writeable = False
        object.__setattr__(self, "edge_probs", edges)

    @property
    def n(self) -> int:
        return self.n_core + self.n_periphery


def sample_sbm_round(
    params: SbmParams, rng: np.random.Generator, round_index: int = 1
) -> ShockRealization:
    """One blockmodel round: directed edges by block probability, liability
    mass exponential on present edges, exponential external liabilities
    floored at ``DEFAULT_B_FLOOR``, constant external assets."""
    n = params.n
    present = rng.random((n, n)) < params.edge_probs
    scale = 1.0 / params.liability_rate
    internal = np.where(present, rng.exponential(scale, size=(n, n)), 0.0)
    np.fill_diagonal(internal, 0.0)
    b = np.maximum(rng.exponential(scale, size=n), DEFAULT_B_FLOOR)
    c = np.full(n, params.asset_level)
    return ShockRealization(
        round=round_index,
        external_liabilities=b,
        external_assets=c,
        internal_liabilities=internal,
    )


@dataclass(frozen=True, eq=False)
class SbmEnvironment(EnvironmentModel):
    params: SbmParams
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")

    @property
    def n(self) -> int:
        return self.params.n

    def sample_round(self, t, rng):
        return sample_sbm_round(self.params, rng, round_index=t)


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
        except (TypeError, ValueError, OverflowError) as exc:  # text, ragged, huge ints
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

    def sample_path(self, from_round, to_round, rng):
        if not 1 <= from_round <= to_round <= self.horizon:
            raise ValidationError(
                f"replay holds rounds 1..{self.horizon}, "
                f"requested {from_round}..{to_round}"
            )
        return SamplePath(shocks=self.shocks[from_round - 1 : to_round])

    def shock_norm_bound(self) -> float:
        return max(s.shock_norm() for s in self.shocks)


_INTERNAL_HEADER = ["t", "i", "j", "amount"]
_EXTERNAL_HEADER = ["t", "i", "b", "c"]


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
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        if [h.strip() for h in header] != expected_header:
            raise ReplayFormatError(
                path, 1, f"expected header {','.join(expected_header)}"
            )
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(expected_header):
                    raise ReplayFormatError(
                        path, lineno, f"expected {len(expected_header)} fields"
                    )
                yield lineno, row
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _not_utf8(path: str) -> ReplayFormatError:
    """The error for a replay file that is not UTF-8 text, at the line of
    its first undecodable byte (the reader decodes ahead of the rows)."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return ReplayFormatError(
            path, data.count(b"\n", 0, exc.start) + 1,
            f"not UTF-8 text: byte 0x{data[exc.start]:02x} ({exc.reason})",
        )
    return ReplayFormatError(path, 0, "not UTF-8 text")  # changed since read


def _parse_rows(internal_csv: str, external_csv: str):
    """``(l, b, c)`` of a replay, parsed and checked one row at a time; every
    problem raises :class:`ReplayFormatError` naming its file and line."""
    internal: dict[tuple[int, int, int], float] = {}
    external: dict[tuple[int, int], tuple[float, float]] = {}
    max_node = -1
    max_round = 0

    for lineno, row in _read_rows(internal_csv, _INTERNAL_HEADER):
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
        if not math.isfinite(amount):
            raise ReplayFormatError(
                internal_csv, lineno, f"amount {amount} is not finite"
            )
        internal[(t, i, j)] = internal.get((t, i, j), 0.0) + amount
        max_node = max(max_node, i, j)
        max_round = max(max_round, t)

    for lineno, row in _read_rows(external_csv, _EXTERNAL_HEADER):
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
        if not (math.isfinite(b) and math.isfinite(c)):
            raise ReplayFormatError(
                external_csv, lineno, f"external entry ({b}, {c}) is not finite"
            )
        external[(t, i)] = (b, c)
        max_node = max(max_node, i)
        max_round = max(max_round, t)

    if max_round == 0:
        raise ReplayFormatError(external_csv, 1, "no rounds found")
    n = max_node + 1
    # the entries are distinct pairs in range: all are there iff they count
    # rounds x n, and the first missing one is where the sorted pairs first
    # leave the sequence (1, 0), (1, 1), ..., checked before any allocation
    if len(external) != max_round * n:
        k = next((k for k, key in enumerate(sorted(external))
                  if key != (k // n + 1, k % n)), len(external))
        raise ReplayFormatError(
            external_csv, 1,
            f"missing external entry for round {k // n + 1}, node {k % n} "
            "(external liabilities must be strictly positive)",
        )
    b = np.zeros((max_round, n))
    c = np.zeros((max_round, n))
    for (t, i), entry in external.items():
        b[t - 1, i], c[t - 1, i] = entry
    l = np.zeros((max_round, n, n))
    for (t, i, j), amount in internal.items():
        l[t - 1, i, j] = amount
    return l, b, c


def _read_columns(path: str, header: list[str]):
    """The body of a replay file as one structured array from a single
    ``np.loadtxt`` call (int64 ids and rounds, float64 values), or None when
    the file cannot be opened, its header is wrong, or loadtxt refuses the
    body.  A body of line breaks only is an empty array: loadtxt would warn
    that it holds no data."""
    dtype = np.dtype([(name, np.int64 if name in ("t", "i", "j") else np.float64)
                      for name in header])
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)  # the header row exactly as _read_rows reads it
            if [h.strip() for h in next(reader, [])] != header:
                return None
            body = handle.read()
        if not body.strip("\r\n"):
            return np.zeros(0, dtype=dtype)
        return np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                          quotechar='"', ndmin=1, dtype=dtype)
    except (OSError, ValueError, csv.Error):
        return None


def _load_columns(internal_csv: str, external_csv: str):
    """``(l, b, c)`` of a replay parsed by :func:`_read_columns`, or None
    unless every row passes every check of :func:`_parse_rows`, which then
    loads or rejects the files itself.  ``l`` sums duplicate triples in file
    order onto zeros, as the row route does."""
    internal = _read_columns(internal_csv, _INTERNAL_HEADER)
    external = _read_columns(external_csv, _EXTERNAL_HEADER)
    if internal is None or external is None:
        return None
    t, i, j, amount = (internal[name] for name in _INTERNAL_HEADER)
    et, ei, eb, ec = (external[name] for name in _EXTERNAL_HEADER)
    if not (np.all((t >= 1) & (i >= 0) & (j >= 0) & (i != j))
            and np.all(np.isfinite(amount) & (amount >= 0))
            and np.all((et >= 1) & (ei >= 0))
            and np.all(np.isfinite(eb) & (eb >= DEFAULT_B_FLOOR))
            and np.all(np.isfinite(ec) & (ec >= 0))):
        return None
    rounds = int(max(t.max(initial=0), et.max(initial=0)))
    n = int(max(i.max(initial=-1), j.max(initial=-1), ei.max(initial=-1))) + 1
    # one external row per (round, node): as many rows as pairs, each seen
    if rounds == 0 or et.size != rounds * n:
        return None
    seen = np.zeros((rounds, n), dtype=bool)
    seen[et - 1, ei] = True
    if not seen.all():
        return None
    b = np.zeros((rounds, n))
    c = np.zeros((rounds, n))
    b[et - 1, ei] = eb
    c[et - 1, ei] = ec
    l = np.zeros((rounds, n, n))
    np.add.at(l, (t - 1, i, j), amount)
    return l, b, c


def load_replay(internal_csv: str, external_csv: str) -> ReplayEnvironment:
    """Build a replay environment from two CSV files.

    ``internal_csv`` holds ``t,i,j,amount`` rows (1-based rounds, 0-based
    node ids); missing triples mean zero and repeated triples are summed in
    file order.  ``external_csv`` holds exactly one ``t,i,b,c`` row per
    round and node, with ``b >= DEFAULT_B_FLOOR`` and ``c >= 0``.  Blank
    lines are skipped and quoted cells accepted.  Every bad row, a
    non-finite value included, is reported with its file and line number.

    Files that ``np.loadtxt`` reads and that pass every check are loaded
    through it in a few array operations; any other file goes through the
    row-by-row parser, which alone writes error messages.  Both routes
    return the same arrays bit for bit.
    """
    arrays = _load_columns(internal_csv, external_csv)
    l, b, c = arrays if arrays is not None else _parse_rows(internal_csv, external_csv)
    return ReplayEnvironment(shocks=tuple(
        ShockRealization(
            round=t + 1, external_liabilities=b[t], external_assets=c[t],
            internal_liabilities=l[t],
        )
        for t in range(len(b))
    ))
