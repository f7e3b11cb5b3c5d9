"""The one-axis-at-a-time ``Partition`` kernels against their first form.

``reference_locate`` and ``reference_sample_points`` (conftest) broadcast
``(d,)`` vectors over ``(n, d)`` arrays; the kernels run the same IEEE
operations one contiguous column at a time, so indices must be equal and
points bit-identical.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrogame import Partition, build_ulam
from conftest import counts_of, reference_locate, reference_sample_points

PARTITIONS = {
    "d1": Partition(np.array([-2.5]), np.array([1.75]), np.array([7])),
    "d2": Partition(np.array([-1.0, -3.0]), np.array([2.0, 0.5]), np.array([5, 3])),
    "d3": Partition(np.array([-1.0, -2.0, -0.5]), np.array([1.0, 1.0, 0.3]), np.array([3, 4, 2])),
}


def axis_coordinates(partition, k):
    """Every face of axis ``k`` (box faces included), one ulp either side of
    each, a few interior values, and the non-finite values."""
    lo, hi, w = partition.lower[k], partition.upper[k], partition.widths[k]
    faces = [lo + j * w for j in range(int(partition.cells_per_axis[k]) + 1)] + [hi]
    near = [np.nextafter(f, s) for f in faces for s in (-np.inf, np.inf)]
    interior = [lo + (j + 0.5) * w for j in range(int(partition.cells_per_axis[k]))]
    return np.array(faces + near + interior + [np.nan, np.inf, -np.inf])


def face_points(partition):
    axes = [axis_coordinates(partition, k) for k in range(partition.dim)]
    return np.array(list(itertools.product(*axes)))


def assert_same_locate(partition, points):
    with np.errstate(invalid="ignore"):
        expected = reference_locate(partition, points)
        got = partition.locate(points)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    return got


@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_locate_matches_reference_on_faces_ulps_and_non_finite(name):
    partition = PARTITIONS[name]
    points = face_points(partition)
    got = assert_same_locate(partition, points)
    # The grid really reaches both sides of every face and the outside.
    assert (got == -1).any()
    assert set(got[got >= 0]) == set(range(partition.cell_count))


@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_locate_matches_reference_on_column_sliced_and_single_points(name):
    partition = PARTITIONS[name]
    points = face_points(partition)
    wide = np.zeros((len(points), 2 * partition.dim + 1))
    wide[:, 1::2] = points
    sliced = wide[:, 1::2]
    assert not sliced.flags.c_contiguous
    with np.errstate(invalid="ignore"):
        whole = partition.locate(points)
    assert np.array_equal(assert_same_locate(partition, sliced), whole)
    for point in points[:: max(1, len(points) // 50)]:
        with np.errstate(invalid="ignore"):
            expected = reference_locate(partition, point)
            got = partition.locate(point)
        assert np.ndim(got) == 0 and got == expected


def test_locate_leaves_its_input_unchanged():
    partition = PARTITIONS["d2"]
    points = face_points(partition)
    before = points.copy()
    with np.errstate(invalid="ignore"):
        partition.locate(points)
    assert np.array_equal(points, before, equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(1, 3),
)
def test_locate_matches_reference_on_random_grids(data, dim):
    lower = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    span = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim)))
    cells = np.array(data.draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim)))
    partition = Partition(lower, lower + span, cells)
    faces = [axis_coordinates(partition, k) for k in range(dim)]
    n = data.draw(st.integers(0, 40))
    picks = data.draw(
        st.lists(st.lists(st.integers(0, 10**6), min_size=dim, max_size=dim), min_size=n, max_size=n)
    )
    points = np.array(
        [[faces[k][p[k] % len(faces[k])] for k in range(dim)] for p in picks]
    ).reshape(n, dim)
    free = np.array(
        data.draw(st.lists(st.floats(-2e3, 2e3), min_size=dim, max_size=dim))
    ).reshape(1, dim)
    assert_same_locate(partition, np.vstack([points, free]))


@pytest.mark.parametrize("name", sorted(PARTITIONS))
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_sample_points_are_bit_identical_and_cached(name, q):
    partition = Partition(
        PARTITIONS[name].lower, PARTITIONS[name].upper, PARTITIONS[name].cells_per_axis
    )
    points = partition.sample_points(q)
    expected = reference_sample_points(partition, q)
    assert points.shape == expected.shape == (partition.cell_count, q**partition.dim, partition.dim)
    assert np.array_equal(points.view(np.uint64), expected.view(np.uint64))
    assert points.flags.c_contiguous
    assert not points.flags.writeable
    assert partition.sample_points(q) is points
    assert partition.sample_points(q + 1) is not points


def test_build_ulam_destinations_match_reference_locate():
    partition = Partition(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), np.array([12, 9]))
    A = np.array([[0.9, 0.3], [-0.2, 1.1]])

    def flow(x):
        return x @ A

    matrix = build_ulam(partition, flow, 9, leak_tol=1.0)
    images = flow(reference_sample_points(partition, 3).reshape(-1, 2))
    dest = reference_locate(partition, images).reshape(partition.cell_count, 9)
    counts = np.zeros((partition.cell_count, partition.cell_count), dtype=np.int64)
    rows = np.repeat(np.arange(partition.cell_count), 9)
    keep = dest.ravel() >= 0
    np.add.at(counts, (rows[keep], dest.ravel()[keep]), 1)
    assert np.array_equal(counts_of(matrix), counts)
    assert np.array_equal(matrix.escaped, (dest < 0).sum(axis=1))
