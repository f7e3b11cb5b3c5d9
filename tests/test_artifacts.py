import json

import numpy as np
import pytest

from entrogame import ConfigurationError, DensityVector, build_ulam
from entrogame.artifacts import (
    fmt_float,
    read_density,
    sidecar_path,
    write_csv,
    write_density,
    write_json,
    write_ulam,
)
from conftest import counts_of, entries_of, line_partition, tilted_density


def test_float_format_round_trips_exactly():
    values = [
        0.1, 1.0 / 3.0, np.pi, 1e-300, 1.7976931348623157e308, -0.0,
        2.2250738585072014e-308, 123456789.123456789,
    ]
    for x in values:
        assert float(fmt_float(x)) == x


def test_csv_cells_by_type(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [(1, True, 0.1), (np.int64(2), False, np.float64(0.5))])
    assert path.read_text() == (
        "a,b,c\n1,true,0.10000000000000001\n2,false,0.5\n"
    )


def test_json_is_canonical(tmp_path):
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    payload = {"z": np.array([1.5, 2.5]), "a": {"k": np.float64(1.0)}, "n": float("nan")}
    write_json(p1, payload)
    write_json(p2, {"n": float("nan"), "a": {"k": 1.0}, "z": [1.5, 2.5]})
    assert p1.read_bytes() == p2.read_bytes()
    loaded = json.loads(p1.read_text())
    assert loaded["n"] is None  # non-finite reals become null
    assert list(loaded) == ["a", "n", "z"]


def test_density_round_trip_is_bitwise(tmp_path):
    part = line_partition(32)
    theta = tilted_density(part, 0.37)
    path = tmp_path / "theta.csv"
    write_density(theta, path, provenance={"seed": 1})
    back = read_density(path)
    assert np.array_equal(back.values, theta.values)
    assert back.partition.matches(part)
    meta = json.loads(sidecar_path(path).read_text())
    assert meta["kind"] == "density"
    assert meta["provenance"] == {"seed": 1}
    assert meta["partition"]["cells_per_axis"] == [32]


def corrupt(tmp_path, name, transform):
    part = line_partition(4, 0.0, 1.0)
    path = tmp_path / f"{name}.csv"
    write_density(DensityVector.uniform(part), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(transform(lines)) + "\n")
    return path


def test_density_reader_rejects_corruption(tmp_path):
    bad_header = corrupt(tmp_path, "h", lambda ls: ["idx,val"] + ls[1:])
    with pytest.raises(ConfigurationError, match="header"):
        read_density(bad_header)

    dup = corrupt(tmp_path, "d", lambda ls: ls + [ls[1]])
    with pytest.raises(ConfigurationError, match="duplicate"):
        read_density(dup)

    missing = corrupt(tmp_path, "m", lambda ls: ls[:-1])
    with pytest.raises(ConfigurationError, match="missing"):
        read_density(missing)

    negative = corrupt(tmp_path, "n", lambda ls: ls[:-1] + ["3,-1.0"])
    with pytest.raises(ConfigurationError, match="negative"):
        read_density(negative)

    huge = corrupt(tmp_path, "g", lambda ls: ls[:-1] + ["9,1.0"])
    with pytest.raises(ConfigurationError, match="outside"):
        read_density(huge)

    inf = corrupt(tmp_path, "i", lambda ls: ls[:-1] + ["3,inf"])
    with pytest.raises(ConfigurationError, match="finite"):
        read_density(inf)

    ragged = corrupt(tmp_path, "r", lambda ls: ls[:-1] + ["3"])
    with pytest.raises(ConfigurationError, match="row 5"):
        read_density(ragged)


def test_density_reader_refuses_to_renormalise(tmp_path):
    part = line_partition(4, 0.0, 1.0)
    path = tmp_path / "off.csv"
    write_density(DensityVector.uniform(part), path)
    lines = path.read_text().splitlines()
    lines[1] = "0,1.2"  # push total mass 5% high
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match="refusing to renormalise"):
        read_density(path)
    # A one-in-a-million wobble stays acceptable.
    lines[1] = "0,1.0000001"
    path.write_text("\n".join(lines) + "\n")
    read_density(path)


def test_density_reader_requires_sidecar(tmp_path):
    part = line_partition(4, 0.0, 1.0)
    path = tmp_path / "lone.csv"
    write_density(DensityVector.uniform(part), path)
    sidecar_path(path).unlink()
    with pytest.raises(ConfigurationError, match="sidecar"):
        read_density(path)
    sidecar_path(path).write_text("{broken")
    with pytest.raises(ConfigurationError, match="invalid sidecar"):
        read_density(path)
    sidecar_path(path).write_text('{"kind": "density"}')
    with pytest.raises(ConfigurationError, match="partition block"):
        read_density(path)
    write_density(DensityVector.uniform(part), path)
    meta = json.loads(sidecar_path(path).read_text())
    for field, value, message in [
        ("lower", "x", "partition block"),
        ("lower", ["x"], "partition block"),
        ("cells_per_axis", [2.5], "cells_per_axis entries must be integers"),
        ("cells_per_axis", [4.0], "cells_per_axis entries must be integers"),
    ]:
        bad = json.loads(json.dumps(meta))
        bad["partition"][field] = value
        sidecar_path(path).write_text(json.dumps(bad))
        with pytest.raises(ConfigurationError, match=message):
            read_density(path)


def test_a_refused_sidecar_partition_names_the_sidecar(tmp_path):
    path = tmp_path / "theta.csv"
    write_density(DensityVector.uniform(line_partition(4, 0.0, 1.0)), path)
    meta = json.loads(sidecar_path(path).read_text())
    meta["partition"]["cells_per_axis"] = [4.0]
    sidecar_path(path).write_text(json.dumps(meta))
    with pytest.raises(ConfigurationError) as info:
        read_density(path)
    assert str(info.value) == (
        f"density: sidecar {sidecar_path(path)}: "
        "partition: cells_per_axis entries must be integers, got float64"
    )


def test_ulam_export_is_sparse_and_annotated(tmp_path):
    part = line_partition(8, 0.0, 1.0)
    P = build_ulam(part, lambda pts: 0.5 * pts, 4)
    path = tmp_path / "op.csv"
    write_ulam(P, path, provenance={"command": "test"})
    lines = path.read_text().splitlines()
    assert lines[0] == "row,col,value"
    triplets = [line.split(",") for line in lines[1:]]
    assert len(triplets) == np.count_nonzero(counts_of(P))
    for r, c, v in triplets:
        assert float(v) == entries_of(P)[int(r), int(c)]
    meta = json.loads(sidecar_path(path).read_text())
    assert meta["kind"] == "ulam"
    assert meta["samples_per_cell"] == 4
    assert meta["t0"] == 0.0
    assert meta["leakage"] == [0.0] * 8
    assert meta["provenance"] == {"command": "test"}


def test_sidecar_path_swaps_the_suffix(tmp_path):
    assert sidecar_path(tmp_path / "x.csv").name == "x.json"
