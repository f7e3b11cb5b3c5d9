"""``integrate_transition`` (RK4 step matrix raised to a power) against the
step-by-step RK4 loop, and the numeric CSV writers against ``write_csv``."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from entrogame import (
    DivergenceError,
    FeedbackGain,
    FeedbackProfile,
    MultiChannelSystem,
    ScheduleSegment,
    closed_loop_matrix,
    integrate_transition,
)
from entrogame.artifacts import write_csv, write_density, write_ulam
from entrogame.system import _segments
from conftest import line_partition, scalar_profile


def reference_transition(system, profile, t0, t1, steps):
    """Classical RK4 on ``Phi' = M Phi``, one Python step at a time."""
    Phi = np.eye(system.dim)
    if t1 == t0:
        return Phi
    total = t1 - t0
    done = 0
    for a, b in _segments(system, t0, t1):
        n = max(1, int(math.ceil(steps * (b - a) / total)))
        M = closed_loop_matrix(system, profile, a)
        h = (b - a) / n
        for _ in range(n):
            k1 = M @ Phi
            k2 = M @ (Phi + 0.5 * h * k1)
            k3 = M @ (Phi + 0.5 * h * k2)
            k4 = M @ (Phi + h * k3)
            Phi = Phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            done += 1
            if not np.all(np.isfinite(Phi)):
                raise DivergenceError(f"reference diverged at step {done}", step=done)
    return Phi


def random_case(rng):
    d = int(rng.integers(1, 5))
    widths = [int(w) for w in rng.integers(1, 3, size=int(rng.integers(1, 4)))]

    def coefficients():
        A = rng.normal(0.0, 1.0, (d, d)) - rng.uniform(0.0, 2.0) * np.eye(d)
        return A, tuple(rng.normal(0.0, 0.7, (d, r)) for r in widths)

    A, B = coefficients()
    schedule = ()
    if rng.random() < 0.5:
        starts = np.sort(rng.uniform(0.05, 1.9, size=int(rng.integers(1, 4))))
        schedule = (ScheduleSegment(0.0, A, B),) + tuple(
            ScheduleSegment(float(s), *coefficients()) for s in starts
        )
    system = MultiChannelSystem(A=A, B=B, schedule=schedule)
    profile = FeedbackProfile(
        tuple(FeedbackGain(j + 1, rng.normal(0.0, 0.5, (r, d))) for j, r in enumerate(widths))
    )
    t0 = float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
    t1 = t0 + float(rng.uniform(0.1, 2.0))
    steps = int(rng.choice([1, 2, 3, 7, 50, 199, 200, 400, int(rng.integers(1, 401))]))
    return system, profile, t0, t1, steps


@pytest.mark.parametrize("seed", range(40))
def test_power_matches_the_step_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        system, profile, t0, t1, steps = random_case(rng)
        expected = reference_transition(system, profile, t0, t1, steps)
        got = integrate_transition(system, profile, t0, t1, steps).Phi
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale


def test_uneven_breakpoints_keep_the_step_split():
    # Breakpoints at 0.3 and 1.1 split 7 steps over [0, 2] as 2 + 3 + 4.
    A = np.array([[-0.5, 1.0], [-1.0, -0.5]])
    B = (np.eye(2),)
    schedule = (
        ScheduleSegment(0.0, A, B),
        ScheduleSegment(0.3, 2.0 * A, B),
        ScheduleSegment(1.1, -A.T, B),
    )
    system = MultiChannelSystem(A=A, B=B, schedule=schedule)
    profile = FeedbackProfile((FeedbackGain(1, 0.1 * np.eye(2)),))
    for steps in (1, 3, 7, 13, 400):
        expected = reference_transition(system, profile, 0.0, 2.0, steps)
        got = integrate_transition(system, profile, 0.0, 2.0, steps).Phi
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _divergence_steps(system, profile, t0, t1, steps):
    with pytest.raises(DivergenceError) as expected:
        reference_transition(system, profile, t0, t1, steps)
    with pytest.raises(DivergenceError) as got:
        integrate_transition(system, profile, t0, t1, steps)
    return got.value.step, expected.value.step


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_step_matches_the_step_loop():
    system = MultiChannelSystem(A=np.array([[50.0]]), B=(np.array([[1.0]]),))
    got, expected = _divergence_steps(system, scalar_profile(0.0), 0.0, 100.0, 50)
    assert got == expected
    assert 1 <= got <= 50


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_step_counts_across_segments():
    # One stable step on [0, 1], then a = 50 from t = 1: the overflow is in
    # the second segment, so the reported step includes the first one.
    B = (np.array([[1.0]]),)
    system = MultiChannelSystem(
        A=np.array([[-1.0]]),
        B=B,
        schedule=(
            ScheduleSegment(0.0, np.array([[-1.0]]), B),
            ScheduleSegment(1.0, np.array([[50.0]]), B),
        ),
    )
    profile = scalar_profile(0.0)
    got, expected = _divergence_steps(system, profile, 0.0, 100.0, 50)
    assert got == expected
    assert got > 1
    # The same window without the first segment diverges one step earlier.
    tail = MultiChannelSystem(A=np.array([[50.0]]), B=B)
    with pytest.raises(DivergenceError) as err:
        integrate_transition(tail, profile, 0.0, 99.0, 50)
    assert err.value.step == got - 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_power_with_a_finite_walk_keeps_the_walk():
    # Segment 1 shrinks Phi to about 1e-205; segment 2 has a step matrix
    # whose 400th power (about 1e338) overflows, yet walking it from the
    # small Phi stays finite, so no divergence is reported.
    B = (np.array([[1.0]]),)
    system = MultiChannelSystem(
        A=np.array([[-500.0]]),
        B=B,
        schedule=(
            ScheduleSegment(0.0, np.array([[-500.0]]), B),
            ScheduleSegment(1.0, np.array([[800.0]]), B),
        ),
    )
    hM = 800.0 / 400
    T = 1 + hM * (1 + hM / 2 * (1 + hM / 3 * (1 + hM / 4)))
    with np.errstate(over="ignore"):
        assert np.isinf(np.float64(T) ** 400)
    profile = scalar_profile(0.0)
    expected = reference_transition(system, profile, 0.0, 2.0, 800)
    got = integrate_transition(system, profile, 0.0, 2.0, 800).Phi
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_numeric_writers_match_write_csv(tmp_path):
    values = np.array([0.0, 5e-324, 1.0 / 3.0, 1e308, np.inf, -0.0, np.nan, 0.1])
    rows = np.array([0, 1, 7, 2**31 - 1, 2**31, 3, 2**31, 5], dtype=np.int64)
    cols = np.array([2**31, 0, 2**31 - 1, 4, 9, 2**31, 1, 6], dtype=np.int64)
    partition = line_partition(len(values))
    matrix = SimpleNamespace(
        partition=partition, rows=rows, cols=cols, values=values,
        leakage=np.zeros(len(values)), samples_per_cell=8, leak_tol=1e-3,
        t0=0.0, t1=1.0, flow_id="test",
    )
    write_ulam(matrix, tmp_path / "ulam.csv")
    write_csv(tmp_path / "ulam_ref.csv", ["row", "col", "value"], zip(rows, cols, values))
    assert (tmp_path / "ulam.csv").read_bytes() == (tmp_path / "ulam_ref.csv").read_bytes()

    write_density(SimpleNamespace(partition=partition, values=values), tmp_path / "d.csv")
    write_csv(tmp_path / "d_ref.csv", ["cell_index", "value"], list(enumerate(values)))
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "d_ref.csv").read_bytes()
    assert b"inf" in (tmp_path / "d.csv").read_bytes()
    assert b"2147483648" in (tmp_path / "ulam.csv").read_bytes()
