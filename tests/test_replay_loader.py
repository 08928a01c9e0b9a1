"""The two routes of ``load_replay``: the ``np.loadtxt`` route and the
row-by-row parser it falls back to, checked against a copy of the
row-by-row loader as it stood before the loadtxt route existed."""

import csv
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynclear import (
    ReplayEnvironment,
    ReplayFormatError,
    ShockRealization,
    environments,
    load_replay,
)
from dynclear.network import DEFAULT_B_FLOOR

from conftest import deep_constant_proportion_path, write_hub_replay, write_path_replay

THREE_NODE = os.path.join(os.path.dirname(__file__), "..", "configs", "three_node")


# -- reference: the row-by-row loader before the loadtxt route ---------------

def _reference_rows(path, expected_header):
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


def reference_load_replay(internal_csv, external_csv):
    internal = {}
    external = {}
    max_node = -1
    max_round = 0

    for lineno, row in _reference_rows(internal_csv, ["t", "i", "j", "amount"]):
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

    for lineno, row in _reference_rows(external_csv, ["t", "i", "b", "c"]):
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


# -- comparison ---------------------------------------------------------------

def outcome(load, internal, external):
    """``("arrays", l, b, c)`` as int64 bit patterns, or the exception."""
    try:
        env = load(internal, external)
    except Exception as exc:  # the type and text of any exception must match
        return exc
    return ("arrays",) + tuple(
        np.stack([getattr(s, name) for s in env.shocks]).view(np.int64)
        for name in ("internal_liabilities", "external_liabilities", "external_assets")
    )


def assert_same(new, old):
    if isinstance(old, Exception) or isinstance(new, Exception):
        assert (type(new), str(new)) == (type(old), str(old))
    else:
        assert len(new) == len(old)
        for a, b in zip(new[1:], old[1:]):
            assert a.shape == b.shape and np.array_equal(a, b)


def _position(exc, internal):
    """Where the reference loader stopped: (file, line) for a row or header
    error, after every row for a missing entry or a ``ValidationError``."""
    message = str(exc)
    if isinstance(exc, ReplayFormatError) and not (
        "missing external entry" in message or "no rounds found" in message
    ):
        return (exc.path != internal, exc.line)
    return (2, 0)


def check_against_reference(internal, external):
    new = outcome(load_replay, internal, external)
    old = outcome(reference_load_replay, internal, external)
    if isinstance(new, ReplayFormatError) and "is not finite" in str(new):
        # the one intended change: the reference accepted this row and failed
        # later, in ShockRealization at the latest
        assert isinstance(old, Exception)
        assert _position(old, internal) > _position(new, internal)
    else:
        assert_same(new, old)


# -- generated replays and their mutations ------------------------------------

FLOATS = st.floats(0.0, 1e3, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-6, 0.1, 0.30000000000000004, 1 / 3, 1e15 + 0.3]
)
EXTERNAL_B = st.floats(DEFAULT_B_FLOOR, 1e3, allow_nan=False) | st.just(DEFAULT_B_FLOOR)
BAD_CELLS = [
    "", " ", "abc", "1.0", "1e3", "0x1", "1_0", "1_0.5", "\u0661", "-1", "0", "7",
    "-0", "-0.0", "+2", "1e-7", "nan", "inf", "-inf", "1e400", "NaN", "Infinity",
    "99999999999999999999", '"1"', '""', "1,0", "1 # c",
]


def _cell_edits(cell, value_column):
    """Spellings of ``cell`` that ``int`` or ``float`` reads: quoted, padded
    (a no-break space included), signed, underscored, and in a value column
    17-digit and 3-digit forms."""
    edits = [f'"{cell}"', f" {cell} ", f"\t{cell}", f"+{cell}", f"{cell}\xa0"]
    digits = [k for k in range(1, len(cell))
              if cell[k - 1].isdigit() and cell[k].isdigit()]
    if digits:
        edits.append(cell[:digits[0]] + "_" + cell[digits[0]:])
    if value_column:
        try:
            value = float(cell)
        except ValueError:  # an earlier edit quoted or double-signed it
            return edits
        edits += [f"{value:.17g}", f"{value:.17e}", f"{value:.3f}"]
    return edits


SYNTAX = ["blank", "space_line", "cell", "duplicate_triple", "crlf"]
FAULTS = ["bad_cell", "fields", "duplicate_entry", "drop", "self_loop", "round",
          "negative_id", "non_finite", "header", "retarget"]


def _edit(draw, files, newline, headers, kind):
    name = draw(st.sampled_from(
        ["internal"] if kind in ("duplicate_triple", "self_loop")
        else ["external"] if kind == "duplicate_entry"
        else ["internal", "external"]
    ))
    rows = files[name]
    full = [k for k, row in enumerate(rows) if len(row) == 4]
    if kind == "blank":
        rows.insert(draw(st.integers(0, len(rows))), [])
    elif kind == "space_line":
        rows.insert(draw(st.integers(0, len(rows))),
                    [draw(st.sampled_from([" ", "\t", " , ", ",,,", '""']))])
    elif kind == "crlf":
        newline[name] = "\r\n"
    elif kind == "header":
        headers[name] = draw(st.sampled_from([
            " " + headers[name].replace(",", " , ") + " ",
            '"t",' + headers[name][2:],
            headers[name][:-2],
            headers[name] + ",x",
        ]))
    elif not full:
        return
    else:
        row = rows[draw(st.sampled_from(full))]
        k = draw(st.integers(0, 3))
        if kind == "cell":
            value_column = k == 3 or (k == 2 and name == "external")
            row[k] = draw(st.sampled_from(_cell_edits(row[k], value_column)))
        elif kind == "bad_cell":
            row[k] = draw(st.sampled_from(BAD_CELLS))
        elif kind in ("duplicate_triple", "duplicate_entry"):
            copy = row[:3] + [repr(draw(FLOATS))]
            rows.insert(draw(st.integers(0, len(rows))), copy)
        elif kind == "drop":
            rows.remove(row)
        elif kind == "fields":
            extra = [draw(st.sampled_from(["", "1"]))]
            rows[rows.index(row)] = row[:k] if k else row + extra
        elif kind == "self_loop":
            row[2] = row[1]
        elif kind == "round":
            row[0] = draw(st.sampled_from(["0", "-1", "-0"]))
        elif kind == "retarget":  # in an external row: one entry twice, one missing
            row[draw(st.integers(0, 1))] = str(draw(st.integers(0, 4)))
        elif kind == "negative_id":
            row[draw(st.integers(1, 2 if name == "internal" else 1))] = "-1"
        elif kind == "non_finite":
            row[3 if name == "internal" else draw(st.integers(2, 3))] = draw(
                st.sampled_from(["nan", "inf", "-inf", "1e400"])
            )


@st.composite
def replay_files(draw):
    """The text of a small valid replay after up to three edits that the row
    parser accepts (blank and whitespace-only lines; quoted, padded, signed,
    underscored or reformatted cells; repeated triples; CRLF line ends) and
    at most one fault."""
    n, rounds = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    triples = draw(st.lists(
        st.tuples(st.integers(1, rounds), st.sampled_from(pairs), FLOATS),
        min_size=1, max_size=10,
    ))
    files = {
        "internal": [[str(t), str(i), str(j), repr(a)] for t, (i, j), a in triples],
        "external": draw(st.permutations([
            [str(t), str(i), repr(draw(EXTERNAL_B)), repr(draw(FLOATS))]
            for t in range(1, rounds + 1) for i in range(n)
        ])),
    }
    newline = {"internal": "\n", "external": "\n"}
    headers = {"internal": "t,i,j,amount", "external": "t,i,b,c"}
    kinds = draw(st.lists(st.sampled_from(SYNTAX), max_size=3))
    fault = draw(st.sampled_from([None] * 4 + FAULTS))
    for kind in kinds + ([fault] if fault else []):
        _edit(draw, files, newline, headers, kind)
    return {
        name: newline[name].join([headers[name]] + [",".join(r) for r in files[name]])
        + newline[name]
        for name in files
    }


@settings(max_examples=400)
@given(files=replay_files())
def test_both_routes_match_the_reference_loader(tmp_path_factory, files):
    directory = tmp_path_factory.mktemp("replay")
    paths = {}
    for name, text in files.items():
        paths[name] = os.path.join(directory, f"{name}.csv")
        with open(paths[name], "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    check_against_reference(paths["internal"], paths["external"])


def hub_with(directory, name, line, text):
    """The hub replay files with line ``line`` of ``name`` replaced by
    ``text``, deleted when it is None, or appended one past the end."""
    files = write_hub_replay(directory)
    path = files[name == "external"]
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    lines[line - 1:line] = [] if text is None else [text]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return files


# Rows 2-5 of the hub's internal file are t,0,{1,2},1 for t = 1, 2; rows 2-7
# of its external file are t,{0,1,2},1,c.
@pytest.mark.parametrize("name, line, text", [
    ("internal", 2, "0,0,1,1"),
    ("internal", 2, "-1,0,1,1"),
    ("internal", 2, "1,-1,1,1"),
    ("internal", 2, "1,0,-1,1"),
    ("internal", 2, "1,0,0,1"),
    ("internal", 2, "1,0,1,-1"),
    ("internal", 2, "1,0,1,nan"),
    ("internal", 2, "1,0,1,inf"),
    ("internal", 2, "1,0,3,1"),  # node 3 has no external row
    ("internal", 2, "3,0,1,1"),  # nor has round 3
    ("external", 2, "0,0,1,1"),
    ("external", 2, "1,-1,1,1"),
    ("external", 2, "1,0,0,1"),
    ("external", 2, "1,0,nan,1"),
    ("external", 2, "1,0,inf,1"),
    ("external", 2, "1,0,1,-1"),
    ("external", 2, "1,0,1,nan"),
    ("external", 3, "1,0,1,0"),  # (1, 0) twice and (1, 1) missing: rows still 6
    ("external", 3, None),
    ("external", 8, "1,0,1,1"),
    ("internal", 2, "1,0,1,1_0"),  # read by the row route alone
    ("internal", 2, " "),
])
def test_the_loadtxt_route_refuses_every_other_file(tmp_path, name, line, text):
    files = hub_with(tmp_path, name, line, text)
    assert environments._load_columns(*files) is None
    check_against_reference(*files)


@pytest.mark.parametrize("name, line, text", [
    ("internal", 6, "1,0,1,2.5"),  # a repeated triple is summed
    ("internal", 2, "1,0,1,-0.0"),
    ("internal", 2, '"1", 0 ,1,"1"'),
    ("internal", 2, ""),
    ("external", 2, "1,0,1,-0.0"),
    ("external", 2, "+1,0,1e0,1.0"),
])
def test_the_loadtxt_route_reads_plain_variants(tmp_path, name, line, text):
    files = hub_with(tmp_path, name, line, text)
    assert environments._load_columns(*files) is not None
    check_against_reference(*files)


@pytest.mark.parametrize("source", ["three_node", "hub", "generated"])
def test_shipped_and_generated_replays_match_the_reference(tmp_path, source):
    if source == "three_node":
        files = (os.path.join(THREE_NODE, "internal.csv"),
                 os.path.join(THREE_NODE, "external.csv"))
    elif source == "hub":
        files = write_hub_replay(tmp_path)
    else:  # the n = 60, T = 25 replay perfbench/workloads.py generates for seed 1
        write_path_replay(tmp_path, deep_constant_proportion_path(
            np.random.default_rng([1, 60]), 60, 25))
        files = (os.path.join(tmp_path, "internal.csv"),
                 os.path.join(tmp_path, "external.csv"))
    new = outcome(load_replay, *files)
    assert not isinstance(new, Exception)
    assert_same(new, outcome(reference_load_replay, *files))


def test_plain_files_take_the_loadtxt_route(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the row route parsed a plain replay")

    monkeypatch.setattr(environments, "_parse_rows", refuse)
    path = deep_constant_proportion_path(np.random.default_rng([2, 60]), 60, 25)
    write_path_replay(tmp_path, path)
    env = load_replay(str(tmp_path / "internal.csv"), str(tmp_path / "external.csv"))
    assert env.horizon == 25 and env.n == 60
    for loaded, written in zip(env.shocks, path.shocks):
        for name in ("internal_liabilities", "external_liabilities", "external_assets"):
            assert np.array_equal(getattr(loaded, name).view(np.int64),
                                  getattr(written, name).view(np.int64))


@pytest.mark.parametrize("name, line, text", [
    ("internal", 1, b"t,i,j,amount\xff"),
    ("internal", 3, b"1,0,2,\xff"),
    ("external", 5, b"2,0,1,\xc3"),  # a truncated two-byte sequence
])
def test_a_file_that_is_not_utf8_is_a_format_error(tmp_path, name, line, text):
    files = write_hub_replay(tmp_path)
    path = files[name == "external"]
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    lines[line - 1] = text
    with open(path, "wb") as handle:
        handle.write(b"\n".join(lines) + b"\n")
    assert environments._load_columns(*files) is None
    for load in (environments._parse_rows, load_replay):
        with pytest.raises(ReplayFormatError, match="not UTF-8 text") as caught:
            load(*files)
        assert (caught.value.path, caught.value.line) == (path, line)


def test_a_missing_external_entry_is_found_without_round_by_node_arrays(tmp_path):
    # the largest id sets n = 1,000,001: (rounds, n) arrays seen, b and c
    # alone would take 17 MB before the same error
    internal, external = tmp_path / "internal.csv", tmp_path / "external.csv"
    internal.write_text("t,i,j,amount\n")
    external.write_text("t,i,b,c\n1,0,1,0\n1,1000000,1,0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ReplayFormatError) as caught:
            load_replay(str(internal), str(external))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == (
        f"{external}:1: missing external entry for round 1, node 1 "
        "(external liabilities must be strictly positive)")
    assert peak < 1_000_000
