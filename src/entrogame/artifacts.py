"""Deterministic CSV/JSON artifact writers and density file round trips.

Reals are written with 17 significant digits, which round-trips float64
exactly.  JSON is emitted with sorted keys and fixed separators and no
timestamps, so identical inputs produce byte-identical files: the layout is
byte-equal to ``json.dumps(x, sort_keys=True, indent=2)``, written without
that call's pure-Python encoder.  A CSV cell whose text contains a comma,
a double quote, CR or LF is quoted as RFC 4180 does (inner quotes doubled).
Every CSV artifact is paired with a JSON sidecar carrying the provenance
(config hash, tool version) and payload metadata.

The Ulam writer formats each distinct index or value once and joins table
entries.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .transfer import DensityVector, Partition

__all__ = [
    "fmt_float",
    "write_csv",
    "write_json",
    "write_density",
    "read_density",
    "write_ulam",
    "sidecar_path",
]

DENSITY_MASS_TOL = 1e-6
_CSV_SPECIAL = re.compile(r'[,"\r\n]')
_JSON_SCALARS = {int, float, bool, str, type(None)}


def fmt_float(x):
    """17-significant-digit decimal form; exact float64 round trip."""
    return format(float(x), ".17g")


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    text = str(value)
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_lines(path, header, body):
    """Write the CSV ``header`` line, then ``body`` (newline-terminated rows).

    :func:`write_density` formats whole rows with one ``%d``/``%.17g``
    template over ``tolist()`` output: for Python ints and floats that is
    the text :func:`_cell` gives, ``inf``/``nan`` included.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(",".join(header) + "\n" + body, encoding="utf-8", newline="\n")
    return path


def write_csv(path, header, rows):
    """Generic writer for mixed-type rows; cells are formatted by type."""
    body = "".join(",".join(_cell(v) for v in row) + "\n" for row in rows)
    return _write_lines(path, header, body)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # Integer, bool and all-finite float arrays need no per-element
        # pass: ``tolist`` already gives the Python values written below.
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _json_text(obj, indent=""):
    """``json.dumps(obj, sort_keys=True, indent=2)`` for :func:`_jsonable` output.

    The indent-2 layout is emitted here; flat lists of scalars and every
    scalar go through the C encoder, with the line break and indent as the
    item separator.
    """
    if type(obj) is dict:
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [f"{json.dumps(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if type(obj) is list:
        if not obj:
            return "[]"
        inner = indent + "  "
        if set(map(type, obj)) <= _JSON_SCALARS:
            body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        else:
            body = (",\n" + inner).join([_json_text(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(obj)


def write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = _json_text(_jsonable(payload))
    path.write_text(text + "\n", encoding="utf-8", newline="\n")
    return path


def sidecar_path(csv_path):
    csv_path = Path(csv_path)
    return csv_path.with_suffix(".json")


def _partition_payload(partition):
    return {
        "lower": partition.lower,
        "upper": partition.upper,
        "cells_per_axis": partition.cells_per_axis,
    }


def _numeric_rows(int_columns, reals):
    """Body of the rows ``i,j,...,x``: integer columns, then one real column.

    Each distinct integer and each distinct real, keyed by its bit pattern
    so that ``-0.0`` and ``0.0`` keep their own text, is formatted once;
    the rows are one join over table entries.  ``str`` of a Python int and
    ``{:.17g}`` of a Python float are the text :func:`_cell` gives, ``inf``
    and ``nan`` included.
    """
    n = len(reals)
    pieces = np.empty((len(int_columns) + 1, n), dtype=object)
    keys, inverse = np.unique(np.concatenate(int_columns, dtype=np.int64), return_inverse=True)
    table = np.array([f"{v}," for v in keys.tolist()], dtype=object)
    pieces[:-1] = table[inverse].reshape(len(int_columns), n)
    bits = np.ascontiguousarray(reals, dtype=np.float64).view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    table = np.array([f"{v:.17g}\n" for v in keys.view(np.float64).tolist()], dtype=object)
    pieces[-1] = table[inverse]
    return "".join(pieces.T.ravel().tolist())


def write_density(theta, csv_path, provenance=None):
    """Write ``cell_index,value`` rows plus a partition sidecar."""
    rows = enumerate(theta.values.tolist())
    _write_lines(csv_path, ["cell_index", "value"], "".join(["%d,%.17g\n" % r for r in rows]))
    payload = {"partition": _partition_payload(theta.partition), "kind": "density"}
    if provenance:
        payload["provenance"] = provenance
    write_json(sidecar_path(csv_path), payload)
    return Path(csv_path)


# numpy's C parser sees a density body only when it holds nothing but these
# bytes.  Elsewhere it and int()/float() part ways (numpy 2.4.6): its int64
# parser reads some non-ASCII letters as digits, it takes "\x1f" for a space,
# and it refuses "1_0" and non-ASCII digits, which int()/float() accept.
# Within these bytes a field the parser accepts is one int()/float() accepts,
# with the same value.
_NUMBER_BYTES = b"0123456789+-.eE,\t \n"
_DENSITY_DTYPE = np.dtype([("cell_index", np.int64), ("value", np.float64)])


def _density_columns(body_text, body, cell_count):
    """``(values, seen)`` from numpy's C parser, or ``None`` when the row
    loop must decide: the body holds other bytes, the parser raises or
    warns, or any row fails a check.  ``body`` is ``body_text`` split into
    lines."""
    import warnings

    if not body_text.isascii() or body_text.encode().translate(None, _NUMBER_BYTES):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(body, dtype=_DENSITY_DTYPE, delimiter=",", comments=None, ndmin=1)
        except (ValueError, OverflowError, Warning):  # an empty body warns
            return None
    idx, vals = table["cell_index"], table["value"]
    if idx.min() < 0 or idx.max() >= cell_count:
        return None
    hits = np.bincount(idx, minlength=cell_count)
    if hits.max() > 1 or not np.isfinite(vals).all() or (vals < 0).any():
        return None
    values = np.zeros(cell_count)
    values[idx] = vals
    return values, hits.astype(bool)


def _density_rows(body, cell_count):
    """Parse density rows one at a time, raising at the first bad row."""
    values = np.zeros(cell_count)
    seen = np.zeros(cell_count, dtype=bool)
    for n, line in enumerate(body, start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigurationError(f"density: row {n}: expected 'cell_index,value'")
        try:
            idx = int(parts[0])
            val = float(parts[1])
        except ValueError as exc:
            raise ConfigurationError(f"density: row {n}: {exc}") from exc
        if not 0 <= idx < cell_count:
            raise ConfigurationError(
                f"density: row {n}: cell_index {idx} outside 0..{cell_count - 1}"
            )
        if seen[idx]:
            raise ConfigurationError(f"density: row {n}: duplicate cell_index {idx}")
        if not math.isfinite(val):
            raise ConfigurationError(f"density: row {n}: value must be finite")
        if val < 0:
            raise ConfigurationError(f"density: row {n}: negative value {val!r}")
        seen[idx] = True
        values[idx] = val
    return values, seen


def read_density(csv_path):
    """Read a density written by :func:`write_density`.

    Rejects negative values (naming the row) and total mass deviating from
    one by more than 1e-6; no silent fixups are applied.  The body is parsed
    by numpy's C parser and checked column by column; any file that parse
    does not take whole goes through the row loop, which names the first
    bad row.
    """
    csv_path = Path(csv_path)
    side = sidecar_path(csv_path)
    try:
        meta = json.loads(side.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"density: cannot read sidecar {side}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"density: invalid sidecar JSON {side}: {exc}") from exc
    try:
        part = meta["partition"]
        partition = Partition(part["lower"], part["upper"], part["cells_per_axis"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"density: sidecar {side} lacks a partition block") from exc
    except ConfigurationError as exc:
        raise ConfigurationError(f"density: sidecar {side}: {exc}") from exc

    header = "cell_index,value"
    try:
        text = csv_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"density: cannot read {csv_path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ConfigurationError(
            f"density: {csv_path} must start with the header '{header}'"
        )
    cell_count = partition.cell_count
    body = lines[1:]
    parsed = _density_columns(text[len(header):], body, cell_count)
    values, seen = _density_rows(body, cell_count) if parsed is None else parsed
    if not seen.all():
        missing = int(np.argmin(seen))
        raise ConfigurationError(f"density: cell_index {missing} missing from {csv_path}")
    mass = float(values.sum() * partition.cell_volume)
    if abs(mass - 1.0) > DENSITY_MASS_TOL:
        raise ConfigurationError(
            f"density: mass {mass!r} deviates from 1 by more than {DENSITY_MASS_TOL}; "
            f"refusing to renormalise"
        )
    return DensityVector(partition, values)


def write_ulam(matrix, csv_path, provenance=None):
    """Sparse triplet export ``row,col,value`` with a metadata sidecar."""
    body = _numeric_rows([matrix.rows, matrix.cols], matrix.values)
    _write_lines(csv_path, ["row", "col", "value"], body)
    payload = {
        "kind": "ulam",
        "partition": _partition_payload(matrix.partition),
        "leakage": matrix.leakage,
        "samples_per_cell": matrix.samples_per_cell,
        "leak_tol": matrix.leak_tol,
        "t0": matrix.t0,
        "t1": matrix.t1,
        "flow_id": matrix.flow_id,
    }
    if provenance:
        payload["provenance"] = provenance
    write_json(sidecar_path(csv_path), payload)
    return Path(csv_path)
