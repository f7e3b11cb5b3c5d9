"""Deterministic CSV/JSON artifact writers and density file round trips.

Reals are written with 17 significant digits, which round-trips float64
exactly.  JSON is emitted with sorted keys and fixed separators and no
timestamps, so identical inputs produce byte-identical files.  Every CSV
artifact is paired with a JSON sidecar carrying the provenance (config
hash, tool version) and payload metadata.
"""

from __future__ import annotations

import json
import math
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
    return str(value)


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
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


def write_density(theta, csv_path, provenance=None):
    """Write ``cell_index,value`` rows plus a partition sidecar."""
    rows = [(i, v) for i, v in enumerate(theta.values)]
    write_csv(csv_path, ["cell_index", "value"], rows)
    payload = {"partition": _partition_payload(theta.partition), "kind": "density"}
    if provenance:
        payload["provenance"] = provenance
    write_json(sidecar_path(csv_path), payload)
    return Path(csv_path)


def read_density(csv_path):
    """Read a density written by :func:`write_density`.

    Rejects negative values (naming the row) and total mass deviating from
    one by more than 1e-6; no silent fixups are applied.
    """
    csv_path = Path(csv_path)
    side = sidecar_path(csv_path)
    try:
        meta = json.loads(side.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"density: cannot read sidecar {side}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"density: invalid sidecar JSON {side}: {exc}") from exc
    try:
        part = meta["partition"]
        partition = Partition(
            np.asarray(part["lower"], dtype=float),
            np.asarray(part["upper"], dtype=float),
            np.asarray(part["cells_per_axis"], dtype=np.int64),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"density: sidecar {side} lacks a partition block") from exc

    try:
        lines = csv_path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigurationError(f"density: cannot read {csv_path}: {exc}") from exc
    if not lines or lines[0] != "cell_index,value":
        raise ConfigurationError(
            f"density: {csv_path} must start with the header 'cell_index,value'"
        )
    values = np.zeros(partition.cell_count)
    seen = np.zeros(partition.cell_count, dtype=bool)
    for n, line in enumerate(lines[1:], start=2):
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
        if not 0 <= idx < partition.cell_count:
            raise ConfigurationError(
                f"density: row {n}: cell_index {idx} outside 0..{partition.cell_count - 1}"
            )
        if seen[idx]:
            raise ConfigurationError(f"density: row {n}: duplicate cell_index {idx}")
        if not math.isfinite(val):
            raise ConfigurationError(f"density: row {n}: value must be finite")
        if val < 0:
            raise ConfigurationError(f"density: row {n}: negative value {val!r}")
        seen[idx] = True
        values[idx] = val
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
    rows = zip(matrix.rows.tolist(), matrix.cols.tolist(), matrix.values.tolist())
    write_csv(csv_path, ["row", "col", "value"], rows)
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
