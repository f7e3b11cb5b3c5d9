"""The sparse Ulam operator against its dense reference construction, and
the one constructor that turns a destination table into an operator."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrogame import (
    ConfigurationError,
    DensityVector,
    DomainEscapeError,
    NoiseSpec,
    ObservableVector,
    Partition,
    SdePathConfig,
    UlamMatrix,
    apply_fp,
    apply_koopman,
    build_stochastic_ulam,
    build_ulam,
)
from entrogame.artifacts import write_csv, write_ulam
from conftest import (
    counts_of,
    entries_of,
    line_partition,
    reference_ulam_counts,
    scalar_profile,
    scalar_system,
)


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
    assert np.array_equal(counts_of(P), counts)
    assert np.array_equal(P.escaped, samples - counts.sum(axis=1))
    entries = counts / samples
    assert np.array_equal(entries_of(P), entries)

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


def test_destination_table_counts_every_sample():
    part = line_partition(3)
    # Rows in any sample order; row 1 loses every sample, so leak_tol=1.
    table = np.array([[2, 0, -1, 0], [-1, -1, -1, -1], [1, -1, 0, -1]])
    P = UlamMatrix(part, table, leak_tol=1.0)
    assert np.array_equal(P.rows, [0, 0, 2, 2])
    assert np.array_equal(P.cols, [0, 2, 0, 1])
    assert np.array_equal(P.hits, [2, 1, 1, 1])
    assert np.array_equal(P.values, [0.5, 0.25, 0.25, 0.25])
    assert np.array_equal(P.escaped, [1, 4, 2])
    assert np.array_equal(P.leakage, [0.25, 1.0, 0.5])
    assert P.samples_per_cell == 4
    assert np.array_equal(counts_of(P), [[2, 0, 1], [0, 0, 0], [1, 1, 0]])
    for dtype in (np.int32, np.int8):
        Q = UlamMatrix(part, table.astype(dtype), leak_tol=1.0)
        for name in ("rows", "cols", "hits", "values", "escaped", "leakage"):
            assert np.array_equal(getattr(Q, name), getattr(P, name)), name
            assert getattr(Q, name).dtype == getattr(P, name).dtype, name
    Q = UlamMatrix(part, np.where(table < 0, 0, table).astype(np.uint16))
    assert np.array_equal(Q.escaped, [0, 0, 0])


@st.composite
def destination_tables(draw):
    """Random ``(M, S)`` tables with escapes, repeats and whole rows lost."""
    M = draw(st.integers(1, 12))
    S = draw(st.integers(1, 9))
    entries = draw(st.lists(st.integers(-1, M - 1), min_size=M * S, max_size=M * S))
    table = np.array(entries, dtype=np.int64).reshape(M, S)
    for i in draw(st.lists(st.integers(0, M - 1), max_size=2)):
        table[i] = -1
    return table


@settings(max_examples=200, deadline=None)
@given(table=destination_tables())
@example(table=np.full((3, 2), -1))
@example(table=np.array([[0]]))
@example(table=np.array([[-1]]))
@example(table=np.array([[0, -1, 0, 0]]))
@example(table=np.array([[2], [-1], [0]]))
def test_sorted_counts_equal_the_unique_reference(table):
    # leak_tol=1 admits every table, the all-escaped one (no nonzeros) too.
    P = UlamMatrix(line_partition(table.shape[0]), table, leak_tol=1.0)
    expected = reference_ulam_counts(table, table.shape[0])
    for name, want in zip(("rows", "cols", "hits", "escaped"), expected):
        got = getattr(P, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    if (table < 0).all():
        assert P.rows.size == 0


@pytest.mark.parametrize(
    "table, leak_tol, message",
    [
        (np.zeros((3, 4)), 0.05, "integers, got float64"),
        (np.zeros((3, 4), dtype=bool), 0.05, "integers, got bool"),
        (np.zeros(12, dtype=np.int64), 0.05, r"shape \(12,\) is not \(3, S >= 1\)"),
        (np.zeros((2, 4), dtype=np.int64), 0.05, r"shape \(2, 4\) is not \(3, S >= 1\)"),
        (np.zeros((3, 0), dtype=np.int64), 0.05, r"shape \(3, 0\) is not \(3, S >= 1\)"),
        (np.full((3, 4), -2), 0.05, r"outside -1\.\.2"),
        (np.full((3, 4), 3), 0.05, r"outside -1\.\.2"),
        (np.zeros((3, 4), dtype=np.int64), 1.5, r"leak_tol: expected a fraction"),
        (np.zeros((3, 4), dtype=np.int64), -0.1, r"leak_tol: expected a fraction"),
        (np.zeros((3, 4), dtype=np.int64), float("nan"), r"leak_tol: expected a fraction"),
    ],
    ids=[
        "float table", "bool table", "one-dimensional", "too few rows", "no samples",
        "entry below -1", "entry past the last cell", "tolerance above 1",
        "negative tolerance", "nan tolerance",
    ],
)
def test_destination_tables_are_validated(table, leak_tol, message):
    with pytest.raises(ConfigurationError, match=message):
        UlamMatrix(line_partition(3), table, leak_tol=leak_tol)


def test_leak_gate_names_the_worst_cell_in_each_builders_text():
    part = line_partition(4, 0.0, 1.0)
    table = np.array([[0, 1, 2, 3], [0, -1, 1, 1], [-1, -1, 2, -1], [-1, 3, -1, 3]])
    with pytest.raises(DomainEscapeError) as err:
        UlamMatrix(part, table, leak_tol=0.25)
    # Rows 1, 2 and 3 leak 1/4, 3/4 and 1/2; the worst row is named.
    assert (err.value.cell, err.value.leakage) == (2, 0.75)
    assert str(err.value) == (
        "cell 2 leaks 0.7500 of its mass out of the domain (tolerance 0.25)"
    )
    # Exactly at the tolerance is accepted.
    assert UlamMatrix(part, table, leak_tol=0.75).leakage.max() == 0.75

    with pytest.raises(DomainEscapeError) as err:
        build_ulam(part, lambda pts: pts + 0.6, 4)
    assert str(err.value) == (
        "cell 2 leaks 1.0000 of its mass out of the domain (tolerance 0.05)"
    )

    system, profile = scalar_system(), scalar_profile(-1.0)
    noise = NoiseSpec(np.array([[1.0]]), (5.0,))
    cfg = SdePathConfig(h=0.1, n_steps=1, n_paths=100, seed=3)
    part = line_partition(16)
    loose = build_stochastic_ulam(part, system, profile, noise, 5.0, 1.0, cfg, leak_tol=1.0)
    worst = int(np.argmax(loose.escaped))
    with pytest.raises(DomainEscapeError) as err:
        build_stochastic_ulam(part, system, profile, noise, 5.0, 1.0, cfg)
    assert (err.value.cell, err.value.leakage) == (worst, loose.leakage[worst])
    assert str(err.value) == (
        f"cell {worst} lost {loose.leakage[worst]:.4f} of its paths past the domain "
        "(tolerance 0.05)"
    )
    with pytest.raises(ConfigurationError, match="leak_tol"):
        build_stochastic_ulam(part, system, profile, noise, 5.0, 1.0, cfg, leak_tol=1.5)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_mass_weighted_leakage_of_an_accepted_table_stays_within_tolerance(seed):
    rng = np.random.default_rng(seed)
    M, S = (int(n) for n in rng.integers(1, 9, size=2))
    table = rng.integers(-1, M, size=(M, S))
    table[rng.random((M, S)) < rng.random()] = -1
    worst = float(np.max((table < 0).sum(axis=1)) / S)
    leak_tol = worst + (1.0 - worst) * rng.random() * rng.integers(0, 2)
    part = line_partition(M)
    P = UlamMatrix(part, table, leak_tol=leak_tol)
    theta = DensityVector(part, rng.random(M) * (rng.random(M) < 0.7))
    m = theta.values * part.cell_volume
    # A convex mix of row leakages, each at most leak_tol; the sum of M
    # products may round up by a few ulps.
    assert P.leakage @ m <= leak_tol * m.sum() * (1 + 2 * M * np.finfo(float).eps)
    if m.sum() > 0 and P.push(m).sum() > 0:
        pushed = apply_fp(P, theta, renormalize=True)
        assert pushed.mass == pytest.approx(1.0, abs=1e-12)


def test_point_map_errors_other_than_batch_rejection_propagate():
    calls = []

    def broken(x):
        calls.append(np.shape(x))
        raise RuntimeError("flow bug")

    with pytest.raises(RuntimeError, match="flow bug"):
        build_ulam(line_partition(4, 0.0, 1.0), broken, 4)
    assert calls == [(16, 1)]
