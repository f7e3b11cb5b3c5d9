import json
import math
from pathlib import Path

import numpy as np
import pytest

from entrogame import (
    DensityVector,
    FeedbackGain,
    FeedbackProfile,
    GameConfig,
    MultiChannelSystem,
    Partition,
    StrategySpace,
)
from entrogame.artifacts import DENSITY_MASS_TOL
from entrogame.errors import ConfigurationError
from entrogame.system import closed_loop_matrix


def scalar_system(a=0.0, b=1.0):
    return MultiChannelSystem(A=np.array([[a]]), B=(np.array([[b]]),))


def scalar_profile(gain):
    return FeedbackProfile((FeedbackGain(1, np.array([[gain]])),))


def destinations_from_counts(counts, samples):
    """Destination table whose row ``i`` sends ``counts[i, j]`` samples to
    cell ``j`` and the rest out of the box (-1)."""
    table = np.full((len(counts), samples), -1, dtype=np.int64)
    for i, row in enumerate(np.asarray(counts)):
        hits = np.repeat(np.arange(len(row)), row)
        table[i, : len(hits)] = hits
    return table


def counts_of(P):
    """Dense ``(M, M)`` hit counts of a ``UlamMatrix``, from its nonzeros."""
    dense = np.zeros(P.shape, dtype=np.int64)
    dense[P.rows, P.cols] = P.hits
    return dense


def reference_ulam_counts(destinations, M):
    """``UlamMatrix``'s counts as first written: one ``np.unique`` over the
    keys ``i * M + destination`` of the samples left in the box.  Returns
    ``(rows, cols, hits, escaped)``."""
    dest = np.asarray(destinations).astype(np.int64)
    inside = dest >= 0
    keys = (np.arange(M, dtype=np.int64)[:, None] * M + dest)[inside]
    keys, hits = np.unique(keys, return_counts=True)
    return keys // M, keys % M, hits, dest.shape[1] - inside.sum(axis=1)


def entries_of(P):
    """Dense ``(M, M)`` transition fractions of a ``UlamMatrix``."""
    return counts_of(P) / P.samples_per_cell


def two_channel_system(a=0.0):
    return MultiChannelSystem(
        A=np.array([[a]]), B=(np.array([[1.0]]), np.array([[1.0]]))
    )


def two_channel_profile(g1, g2):
    return FeedbackProfile(
        (FeedbackGain(1, np.array([[g1]])), FeedbackGain(2, np.array([[g2]])))
    )


def line_partition(cells, lo=-1.0, hi=1.0):
    return Partition(np.array([lo]), np.array([hi]), np.array([cells]))


def tilted_density(partition, alpha=0.3):
    """Linear tilt along the first axis, unit mass by construction."""
    centers = partition.centers()[:, 0]
    lo, hi = partition.lower[0], partition.upper[0]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    base = 1.0 / partition.domain_volume
    vals = base * (1.0 + alpha * (centers - mid) / half)
    return DensityVector(partition, vals)


def sum_zero_space():
    """Two channels on a scalar state, gains add up in the closed loop.

    Channel 1 reaching for -0.5 against channel 2's 0.5 is the only pairing
    whose closed-loop sum is not positive-expanding or strictly worse, so
    best-response dynamics land on indices (0, 0) from any start.
    """
    ch1 = (np.array([[-0.5]]), np.array([[0.25]]), np.array([[0.5]]))
    ch2 = (np.array([[0.5]]), np.array([[-0.2]]), np.array([[0.1]]))
    return StrategySpace((ch1, ch2))


def sum_zero_config(cells=64, time_grid=(0.5, 1.0), **kwargs):
    part = line_partition(cells)
    return GameConfig(
        time_grid=time_grid,
        theta_ref=DensityVector.uniform(part),
        samples_per_cell=8,
        **kwargs,
    )


def step_drifts(system, profile, h, n_steps):
    """Transposed closed-loop drift of each Euler-Maruyama step, found one
    step at a time: step ``k`` starts at ``k * h`` and takes the segment of
    the last breakpoint at or before it; a new segment's drift is evaluated
    at its first step's start time."""
    breaks = system.breakpoints()
    drifts = []
    last_seg = -1
    for k in range(n_steps):
        t = k * h
        seg = 0
        for i, b in enumerate(breaks):
            if b <= t:
                seg = i
        if seg != last_seg:
            mat_t = np.ascontiguousarray(closed_loop_matrix(system, profile, t).T)
            last_seg = seg
        drifts.append(mat_t)
    return drifts


def start_offsets(partition, n_paths):
    """The stochastic build's in-cell start offsets, shape (n_paths, d):
    the first ``n_paths`` of the smallest ``q**d >= n_paths`` pattern."""
    q = int(np.ceil(n_paths ** (1.0 / partition.dim)))
    while q ** partition.dim < n_paths:
        q += 1
    return partition.sample_offsets(q)[:n_paths]


def reference_sample_points(partition, q):
    """``Partition.sample_points`` as first written: corners plus offsets,
    broadcast over the ``(M, q**d, d)`` array."""
    corners = partition.lower + partition.multi_indices() * partition.widths
    return corners[:, None, :] + partition.sample_offsets(q)[None, :, :]


def reference_locate(partition, points):
    """``Partition.locate`` as first written: whole-array tests and floor,
    then ``ravel_multi_index`` of the clipped multi-indices."""
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    inside = np.all((pts >= partition.lower) & (pts <= partition.upper), axis=1)
    idx = np.floor((pts - partition.lower) / partition.widths).astype(np.int64)
    np.clip(idx, 0, partition.cells_per_axis - 1, out=idx)
    flat = np.ravel_multi_index(idx.T, tuple(partition.cells_per_axis))
    out = np.where(inside, flat, -1)
    return out[0] if squeeze else out


def reference_read_density(csv_path):
    """``read_density`` as written before the column parse: one row at a
    time through ``int()``/``float()``, raising at the first bad row."""
    csv_path = Path(csv_path)
    part = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))["partition"]
    partition = Partition(part["lower"], part["upper"], part["cells_per_axis"])
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "cell_index,value":
        raise ConfigurationError(
            f"density: {csv_path} must start with the header 'cell_index,value'"
        )
    cell_count = partition.cell_count
    values = np.zeros(cell_count)
    seen = np.zeros(cell_count, dtype=bool)
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


@pytest.fixture
def part64():
    return line_partition(64)


@pytest.fixture
def part16():
    return line_partition(16)
