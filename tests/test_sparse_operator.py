"""The sparse Ulam operator against its dense reference construction."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrogame import (
    ConfigurationError,
    DensityVector,
    ObservableVector,
    Partition,
    UlamMatrix,
    apply_fp,
    apply_koopman,
    build_ulam,
)
from entrogame.artifacts import write_csv, write_ulam
from entrogame.transfer import SparseCounts
from conftest import line_partition


def dense_counts(partition, images, samples):
    """Row-by-row ``bincount`` of the sample destinations into an M x M array."""
    M = partition.cell_count
    dest = partition.locate(images).reshape(M, samples)
    counts = np.zeros((M, M), dtype=np.int64)
    for i in range(M):
        row = dest[i]
        counts[i] = np.bincount(row[row >= 0], minlength=M)
    return counts


def write_dense_ulam_csv(counts, samples, path):
    entries = counts / samples
    rows = [(int(r), int(c), entries[r, c]) for r, c in zip(*np.nonzero(counts))]
    write_csv(path, ["row", "col", "value"], rows)


def scattered_images(partition, samples, rng):
    """Sample images mixing interior points, upper faces, repeated cell
    centres and escapes, with some cells losing every sample."""
    M, d = partition.cell_count, partition.dim
    n = M * samples
    lower, upper = partition.lower, partition.upper
    images = lower + rng.random((n, d)) * (upper - lower)
    kind = rng.integers(0, 4, size=n)
    axis = rng.integers(0, d, size=n)
    face = kind == 1
    images[face, axis[face]] = upper[axis[face]]
    centre = kind == 2
    images[centre] = partition.centers()[rng.integers(0, min(M, 3), size=centre.sum())]
    out = kind == 3
    images[out, axis[out]] = np.where(
        rng.random(out.sum()) < 0.5, lower[axis[out]] - 0.1, upper[axis[out]] + 0.1
    )
    images.reshape(M, samples, d)[rng.random(M) < 0.2] = upper + 1.0
    return images


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_sparse_operator_matches_the_dense_reference(seed, dim):
    rng = np.random.default_rng(seed)
    cells = rng.integers(1, 13 if dim == 1 else 6, size=dim)
    part = Partition(np.full(dim, -1.0), np.linspace(0.5, 2.0, dim), cells)
    samples = int(rng.integers(2, 5)) ** dim
    images = scattered_images(part, samples, rng)
    P = build_ulam(part, lambda pts: images, samples, leak_tol=1.0)

    counts = dense_counts(part, images, samples)
    assert np.array_equal(P.counts, counts)
    assert np.array_equal(P.escaped, samples - counts.sum(axis=1))
    entries = counts / samples
    assert np.array_equal(P.entries, entries)

    vol = part.cell_volume
    theta = DensityVector(part, rng.random(part.cell_count))
    pushed = apply_fp(P, theta).values * vol
    m = theta.values * vol
    assert np.all(np.abs(pushed - entries.T @ m) <= 1e-14 * (entries.T @ m))
    z = rng.standard_normal(part.cell_count)
    composed = apply_koopman(P, ObservableVector(z)).values
    assert np.all(np.abs(composed - entries @ z) <= 1e-14 * (entries @ np.abs(z)))

    with tempfile.TemporaryDirectory() as tmp:
        sparse_csv, dense_csv = Path(tmp, "sparse.csv"), Path(tmp, "dense.csv")
        write_ulam(P, sparse_csv)
        write_dense_ulam_csv(counts, samples, dense_csv)
        assert sparse_csv.read_bytes() == dense_csv.read_bytes()


def test_build_and_push_on_65536_cells_allocate_no_dense_matrix():
    # A dense int64 counts array alone would take 32 GiB here.
    part = Partition(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), np.array([256, 256]))
    tracemalloc.start()
    try:
        P = build_ulam(part, lambda p: 0.5 * p, 16)
        pushed = apply_fp(P, DensityVector.uniform(part))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20
    assert pushed.mass == pytest.approx(1.0)
    assert P.hits.sum() == 16 * part.cell_count


def test_sparse_and_dense_constructors_agree():
    part = line_partition(3)
    dense = np.array([[2, 0, 1], [0, 0, 0], [1, 1, 0]], dtype=np.int64)
    a = UlamMatrix(part, dense, samples_per_cell=4)
    b = UlamMatrix(
        part, SparseCounts([0, 0, 2, 2], [0, 2, 0, 1], [2, 1, 1, 1]), samples_per_cell=4
    )
    for name in ("rows", "cols", "hits", "values", "escaped", "leakage"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(b.counts, dense)
    assert np.array_equal(b.escaped, [1, 4, 2])


@pytest.mark.parametrize(
    "sparse, message",
    [
        (SparseCounts([0, 0], [2, 0], [1, 1]), "row-major"),
        (SparseCounts([1, 1], [0, 0], [1, 1]), "row-major"),
        (SparseCounts([0], [3], [1]), "outside"),
        (SparseCounts([0], [1], [0]), "zeros"),
        (SparseCounts([0], [1], [-1]), "nonnegative"),
        (SparseCounts([0, 1], [1], [1]), "equal-length"),
        (SparseCounts([0, 0], [0, 1], [3, 2]), "exceeds"),
    ],
)
def test_sparse_counts_are_validated(sparse, message):
    with pytest.raises(ConfigurationError, match=message):
        UlamMatrix(line_partition(3), sparse, samples_per_cell=4)


def test_point_map_errors_other_than_batch_rejection_propagate():
    calls = []

    def broken(x):
        calls.append(np.shape(x))
        raise RuntimeError("flow bug")

    with pytest.raises(RuntimeError, match="flow bug"):
        build_ulam(line_partition(4, 0.0, 1.0), broken, 4)
    assert calls == [(16, 1)]
