"""Artifact text: the table-driven writers against the generic writers and
``json.dumps``, and the density reader on shuffled and malformed files."""

import csv
import io
import json
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entrogame.artifacts as artifacts_mod
from entrogame import DensityVector, Partition
from entrogame.errors import ConfigurationError
from entrogame.artifacts import (
    _json_text,
    _jsonable,
    read_density,
    sidecar_path,
    write_csv,
    write_density,
    write_json,
    write_ulam,
)
from conftest import line_partition, reference_read_density

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, np.inf, -np.inf, np.nan, 1.0 / 3.0]

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.sampled_from(SPECIAL_FLOATS)
    | st.text(max_size=6)
)
json_arrays = st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS), max_size=6).map(np.array) | st.lists(
    st.integers(-(2**62), 2**62), max_size=6
).map(lambda v: np.array(v, dtype=np.int64))
number_lists = st.lists(st.integers() | st.floats() | st.booleans(), max_size=8)
json_payloads = st.recursive(
    json_scalars | json_arrays | number_lists,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=120, deadline=None)
@given(json_payloads)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}]})
@example({"n": [1, True, 2.5, False, None]})
@example({"big": [2**63, 2**64 + 1, -(2**63) - 1]})
@example({"z": [-0.0, 5e-324, -5e-324], "x": -0.0})
@example({"ключ": {"é": None, "日本": [1]}, "": "ünï"})
@example({"leak": np.zeros(7), "nan": np.array([1.0, np.nan]), "n": np.int64(3)})
def test_json_text_equals_json_dumps(tmp_path_factory, payload):
    value = _jsonable(payload)
    expected = json.dumps(value, sort_keys=True, indent=2)
    assert _json_text(value) == expected
    path = tmp_path_factory.mktemp("json") / "p.json"
    write_json(path, payload)
    assert path.read_bytes() == (expected + "\n").encode("utf-8")


index_columns = st.integers(0, 60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 2**40), min_size=n, max_size=n),
        st.lists(st.integers(0, 2**40), min_size=n, max_size=n),
        st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS), min_size=n, max_size=n),
    )
)


@settings(max_examples=60, deadline=None)
@given(index_columns, st.sampled_from([np.int64, np.int32]))
def test_numeric_writers_equal_write_csv_on_random_triplets(tmp_path_factory, columns, dtype):
    rows, cols, values = columns
    if dtype is np.int32:
        rows = [r % 2**31 for r in rows]
        cols = [c % 2**31 for c in cols]
    rows = np.array(rows, dtype=dtype)
    cols = np.array(cols, dtype=dtype)
    values = np.array(values, dtype=float)
    partition = line_partition(max(1, len(values)))
    matrix = SimpleNamespace(
        partition=partition, rows=rows, cols=cols, values=values,
        leakage=np.zeros(partition.cell_count), samples_per_cell=8, leak_tol=1e-3,
        t0=0.0, t1=1.0, flow_id="test",
    )
    out = tmp_path_factory.mktemp("ulam")
    write_ulam(matrix, out / "ulam.csv")
    write_csv(out / "ref.csv", ["row", "col", "value"], zip(rows, cols, values))
    assert (out / "ulam.csv").read_bytes() == (out / "ref.csv").read_bytes()

    write_density(SimpleNamespace(partition=partition, values=values), out / "d.csv")
    write_csv(out / "d_ref.csv", ["cell_index", "value"], list(enumerate(values)))
    assert (out / "d.csv").read_bytes() == (out / "d_ref.csv").read_bytes()


densities = st.tuples(st.integers(1, 2), st.integers(1, 9), st.integers(1, 7)).flatmap(
    lambda shape: st.tuples(
        st.just(shape),
        st.lists(
            st.floats(0.0, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, 1.0 / 3.0]),
            min_size=shape[1] * (shape[2] if shape[0] == 2 else 1),
            max_size=shape[1] * (shape[2] if shape[0] == 2 else 1),
        ),
        st.randoms(use_true_random=False),
        st.booleans(),
    )
)


@settings(max_examples=50, deadline=None)
@given(densities)
def test_read_density_round_trips_shuffled_rows_bit_for_bit(tmp_path_factory, case):
    (dim, n0, n1), raw, rnd, blanks = case
    cells = [n0, n1][:dim]
    partition = Partition(np.full(dim, -0.5), np.array([1.5, 0.25][:dim]), np.array(cells))
    values = np.array(raw)
    if not values.sum() * partition.cell_volume > 1e-200:
        values[0] += 1.0
    values = values / (values.sum() * partition.cell_volume)
    path = tmp_path_factory.mktemp("density") / "theta.csv"
    write_density(DensityVector(partition, values), path)
    lines = path.read_text().splitlines()
    body = lines[1:]
    rnd.shuffle(body)
    if blanks:
        body = [x for line in body for x in (line, "")]
    path.write_text("\n".join(lines[:1] + body) + "\n")
    got = read_density(path).values
    assert got.view(np.uint64).tolist() == values.view(np.uint64).tolist()


# Each edit of a uniform 4-cell density (rows 2-5 are cells 0-3) and the
# message it raises; None for edits that still read.
MALFORMED = {
    "header": (lambda ls: ["idx,val"] + ls[1:], "{path} must start with the header 'cell_index,value'"),
    "empty body": (lambda ls: ls[:1], "cell_index 0 missing from {path}"),
    "duplicate": (lambda ls: ls + [ls[1]], "row 6: duplicate cell_index 0"),
    "missing": (lambda ls: ls[:-1], "cell_index 3 missing from {path}"),
    "negative": (lambda ls: ls[:-1] + ["3,-1.0"], "row 5: negative value -1.0"),
    "negative zero": (
        lambda ls: ls[:-1] + ["3,-0.0"],
        "mass 0.75 deviates from 1 by more than 1e-06; refusing to renormalise",
    ),
    "outside": (lambda ls: ls[:-1] + ["9,1.0"], "row 5: cell_index 9 outside 0..3"),
    "index at cell count": (lambda ls: ls[:-1] + ["4,1.0"], "row 5: cell_index 4 outside 0..3"),
    "negative index": (lambda ls: ls[:-1] + ["-1,1.0"], "row 5: cell_index -1 outside 0..3"),
    "huge index": (lambda ls: ls[:-1] + ["1" * 30 + ",1.0"], f"row 5: cell_index {'1' * 30} outside 0..3"),
    "inf": (lambda ls: ls[:-1] + ["3,inf"], "row 5: value must be finite"),
    "nan": (lambda ls: ls[:-1] + ["3,nan"], "row 5: value must be finite"),
    "ragged": (lambda ls: ls[:-1] + ["3"], "row 5: expected 'cell_index,value'"),
    "three fields": (lambda ls: ls[:-1] + ["3,1.0,2"], "row 5: expected 'cell_index,value'"),
    "trailing comma": (lambda ls: ls[:-1] + ["3,1.0,"], "row 5: expected 'cell_index,value'"),
    "bad int": (lambda ls: ls[:-1] + ["x3,1.0"], "row 5: invalid literal for int() with base 10: 'x3'"),
    "float index": (lambda ls: ls[:-1] + ["3.0,1.0"], "row 5: invalid literal for int() with base 10: '3.0'"),
    "empty index": (lambda ls: ls[:-1] + [",1.0"], "row 5: invalid literal for int() with base 10: ''"),
    "bad float": (lambda ls: ls[:-1] + ["3,1.0e"], "row 5: could not convert string to float: '1.0e'"),
    "blank line": (lambda ls: ls[:2] + [""] + ls[2:], None),
    "spaces": (lambda ls: ls[:-1] + [" 3, 1.0"], None),
    "mass": (
        lambda ls: ls[:-1] + ["3,1.5"],
        "mass 1.125 deviates from 1 by more than 1e-06; refusing to renormalise",
    ),
    "first of two faults": (lambda ls: [ls[0], "0,-2.0"] + ls[2:] + [ls[1]], "row 2: negative value -2.0"),
    "bad float before outside": (
        lambda ls: [ls[0], "0,zz", "7,1.0"] + ls[3:],
        "row 2: could not convert string to float: 'zz'",
    ),
    "outside before bad float": (
        lambda ls: [ls[0], "7,1.0", "0,zz"] + ls[3:],
        "row 2: cell_index 7 outside 0..3",
    ),
    "ragged after duplicate": (lambda ls: ls + [ls[2], "5"], "row 6: duplicate cell_index 1"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_read_density_names_the_first_bad_row(tmp_path, name):
    edit, message = MALFORMED[name]
    part = line_partition(4, 0.0, 1.0)
    path = tmp_path / "theta.csv"
    write_density(DensityVector.uniform(part), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    if message is None:
        assert read_density(path).values.tolist() == [1.0] * 4
        return
    with pytest.raises(ConfigurationError) as info:
        read_density(path)
    assert str(info.value) == "density: " + message.format(path=path)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _field_edit(edit_index=None, edit_value=None):
    def edit(row, k):
        i, v = row.split(",")
        return f"{edit_index(i) if edit_index else i},{edit_value(v) if edit_value else v}"
    return edit


def _insert(char):
    return lambda row, k: row[: k % (len(row) + 1)] + char + row[k % (len(row) + 1):]


# Edits of one data row ``i,v``; ``k`` picks a position inside the row.
ROW_EDITS = {
    "spaces and tabs": _field_edit(lambda i: f" \t{i} ", lambda v: f"\t {v}\t"),
    "underscore index": _field_edit(lambda i: f"0_{i}"),
    "underscore value": _field_edit(edit_value=lambda v: f"0_{v}"),
    "arabic-indic index": _field_edit(lambda i: i.translate(ARABIC_INDIC)),
    "arabic-indic value": _field_edit(edit_value=lambda v: v.translate(ARABIC_INDIC)),
    "plus index": _field_edit(lambda i: f"+{i}"),
    "float index": _field_edit(lambda i: f"{i}.0"),
    "30-digit index": _field_edit(lambda i: i.zfill(30)),
    "huge index": _field_edit(lambda i: "1" * 30),
    "empty index": _field_edit(lambda i: ""),
    "empty value": _field_edit(edit_value=lambda v: ""),
    "nan": _field_edit(edit_value=lambda v: "nan"),
    "inf": _field_edit(edit_value=lambda v: "inf"),
    "negative zero": _field_edit(edit_value=lambda v: "-0.0"),
    "1e400": _field_edit(edit_value=lambda v: "1e400"),
    "hash": _insert("#"),
    "quote": _insert('"'),
    "vertical tab": _insert("\x0b"),
    "form feed": _insert("\x0c"),
    "file separator": _insert("\x1c"),
    "line separator": _insert("\u2028"),
    "unit separator": _insert("\x1f"),
    "latin letter": _insert("Ǿ"),
}
# Edits of the list of rows; ``k`` picks a row.
LINE_EDITS = {
    "blank line": lambda rows, k: rows[: k % (len(rows) + 1)] + [""] + rows[k % (len(rows) + 1):],
    "whitespace line": lambda rows, k: rows[: k % (len(rows) + 1)] + [" \t "] + rows[k % (len(rows) + 1):],
    "duplicate row": lambda rows, k: rows + [rows[k % len(rows)]],
    "dropped row": lambda rows, k: rows[: k % len(rows)] + rows[k % len(rows) + 1:],
}
EDITS = sorted(ROW_EDITS) + sorted(LINE_EDITS)


def apply_edits(rows, edits):
    for name, k in edits:
        if name in LINE_EDITS:
            rows = LINE_EDITS[name](rows, k) if rows else rows
        else:
            at = [n for n, row in enumerate(rows) if row.count(",") == 1]
            if at:
                n = at[k % len(at)]
                rows = rows[:n] + [ROW_EDITS[name](rows[n], k // len(at))] + rows[n + 1:]
    return rows


def outcome(reader, path):
    try:
        return "read", reader(path).values.view(np.uint64).tolist()
    except ConfigurationError as exc:
        return "refused", str(exc)


def edited_density(directory, case, edits, line_end):
    (dim, n0, n1), raw, rnd, _ = case
    partition = Partition(np.full(dim, -0.5), np.array([1.5, 0.25][:dim]), np.array([n0, n1][:dim]))
    values = np.array(raw)
    if not values.sum() * partition.cell_volume > 1e-200:
        values[0] += 1.0
    values = values / (values.sum() * partition.cell_volume)
    path = directory / "theta.csv"
    write_density(DensityVector(partition, values), path)
    header, *rows = path.read_text().splitlines()
    rnd.shuffle(rows)
    lines = [header] + apply_edits(rows, edits)
    path.write_bytes((line_end.join(lines) + line_end).encode("utf-8"))
    return path


@settings(max_examples=200, deadline=None)
@given(
    densities,
    st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 2**16)), max_size=4),
    st.sampled_from(["\n", "\r\n"]),
)
def test_read_density_agrees_with_the_row_loop(tmp_path_factory, case, edits, line_end):
    path = edited_density(tmp_path_factory.mktemp("density"), case, edits, line_end)
    assert outcome(read_density, path) == outcome(reference_read_density, path)


@pytest.mark.parametrize("name", EDITS)
def test_read_density_agrees_with_the_row_loop_on_each_edit(tmp_path, name):
    case = ((1, 4, 1), [1.0, 2.0, 3.0, 4.0], random.Random(0), False)
    for k in range(3):
        path = edited_density(tmp_path, case, [(name, k)], "\n")
        assert outcome(read_density, path) == outcome(reference_read_density, path)


def test_a_written_density_skips_the_row_loop(tmp_path, monkeypatch):
    # The row loop only names the bad row of a file the column parse refused.
    part = Partition(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), np.array([6, 5]))
    path = tmp_path / "theta.csv"
    theta = DensityVector(part, np.arange(30.0) / (435.0 * part.cell_volume))
    write_density(theta, path)
    monkeypatch.setattr(artifacts_mod, "_density_rows", None)
    assert read_density(path).values.tolist() == theta.values.tolist()


@pytest.mark.parametrize("kind", ["csv", "sidecar"])
def test_read_density_refuses_undecodable_bytes(tmp_path, kind):
    path = tmp_path / "theta.csv"
    write_density(DensityVector.uniform(line_partition(4, 0.0, 1.0)), path)
    bad = path if kind == "csv" else sidecar_path(path)
    size = bad.stat().st_size
    bad.write_bytes(bad.read_bytes() + b"\xff")
    with pytest.raises(ConfigurationError) as info:
        read_density(path)
    what = bad if kind == "csv" else f"sidecar {bad}"
    assert str(info.value) == (
        f"density: cannot read {what}: 'utf-8' codec can't decode byte 0xff "
        f"in position {size}: invalid start byte"
    )


def csv_writer_text(row, terminator):
    buf = io.StringIO()
    csv.writer(buf, lineterminator=terminator).writerow(row)
    return buf.getvalue()[: -len(terminator)]


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.sampled_from(list('ab ,"\r\n\té;\'')) | st.characters(codec="utf-8"), max_size=12))
@example("deviation:j=1,k=1")
@example('say "hi"')
@example("line\nbreak")
@example("carriage\rreturn")
@example("")
def test_string_cells_are_quoted_as_csv_writer_does(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, ["s", "n"], [(text, 1)])
    line = path.read_bytes().decode("utf-8")[len("s,n\n"):-1]
    # A "\n" terminator leaves a bare CR unquoted on some Python versions;
    # with "\r\n" csv.writer quotes exactly the RFC 4180 set.
    for terminator in ("\n", "\r\n") if "\r" not in text else ("\r\n",):
        assert line == csv_writer_text([text, 1], terminator)
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["s", "n"], [text, "1"]]
