import hashlib

import numpy as np
import pytest
from scipy.linalg import expm

from entrogame import (
    ConditioningError,
    ConfigurationError,
    DivergenceError,
    FeedbackGain,
    FeedbackProfile,
    MultiChannelSystem,
    ScheduleSegment,
    StrategySpace,
    closed_loop_matrix,
    decompose_transition,
    flow_map,
    integrate_transition,
)
from conftest import scalar_profile, scalar_system


def random_stable_system(seed, d=3):
    rng = np.random.default_rng(seed)
    A = rng.normal(0, 0.4, (d, d)) - 1.5 * np.eye(d)
    B1 = rng.normal(0, 0.5, (d, 2))
    B2 = rng.normal(0, 0.5, (d, 1))
    L1 = rng.normal(0, 0.3, (2, d))
    L2 = rng.normal(0, 0.3, (1, d))
    system = MultiChannelSystem(A=A, B=(B1, B2))
    profile = FeedbackProfile((FeedbackGain(1, L1), FeedbackGain(2, L2)))
    return system, profile


def test_closed_loop_matrix_sums_channel_terms():
    system, profile = random_stable_system(0)
    M = closed_loop_matrix(system, profile)
    expected = system.A + system.B[0] @ profile.gains[0].L + system.B[1] @ profile.gains[1].L
    assert np.array_equal(M, expected)


def test_scalar_transition_matches_exponential():
    system = scalar_system()
    profile = scalar_profile(-1.0)
    tm = integrate_transition(system, profile, 0.0, 1.0, 100)
    assert abs(tm.Phi[0, 0] - np.exp(-1.0)) <= 1e-8


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("t1", [0.5, 1.0, 2.0])
def test_transition_matches_scipy_expm(seed, t1):
    system, profile = random_stable_system(seed)
    M = closed_loop_matrix(system, profile)
    tm = integrate_transition(system, profile, 0.0, t1, 256)
    assert np.allclose(tm.Phi, expm(M * t1), atol=1e-9, rtol=1e-9)


def test_transition_from_nonzero_start_time():
    system, profile = random_stable_system(4)
    M = closed_loop_matrix(system, profile)
    tm = integrate_transition(system, profile, 0.5, 1.25, 256)
    assert np.allclose(tm.Phi, expm(M * 0.75), atol=1e-9)
    assert tm.t0 == 0.5 and tm.t1 == 1.25


def test_zero_span_transition_is_identity():
    system, profile = random_stable_system(5)
    tm = integrate_transition(system, profile, 0.7, 0.7, 10)
    assert np.array_equal(tm.Phi, np.eye(system.dim))


def test_determinant_tracks_trace_integral():
    # Volume change of a linear flow is exp of the integrated trace.
    system, profile = random_stable_system(6)
    M = closed_loop_matrix(system, profile)
    tm = integrate_transition(system, profile, 0.0, 1.5, 400)
    assert abs(np.linalg.det(tm.Phi) - np.exp(np.trace(M) * 1.5)) <= 1e-9


def test_schedule_switches_coefficients_at_breakpoints():
    A1 = np.array([[-0.5]])
    A2 = np.array([[0.25]])
    B = (np.array([[1.0]]),)
    system = MultiChannelSystem(
        A=A1,
        B=B,
        schedule=(ScheduleSegment(0.0, A1, B), ScheduleSegment(1.0, A2, B)),
    )
    profile = scalar_profile(0.0)
    # Inside the first segment.
    tm = integrate_transition(system, profile, 0.0, 0.5, 64)
    assert abs(tm.Phi[0, 0] - np.exp(-0.25)) <= 1e-10
    # Straddling the breakpoint with a step count that does not divide evenly.
    tm = integrate_transition(system, profile, 0.0, 2.0, 77)
    assert abs(tm.Phi[0, 0] - np.exp(0.25) * np.exp(-0.5)) <= 1e-9
    assert system.coefficients_at(0.999)[0][0, 0] == -0.5
    assert system.coefficients_at(1.0)[0][0, 0] == 0.25


def test_schedule_must_start_at_zero():
    A = np.array([[0.0]])
    B = (np.array([[1.0]]),)
    with pytest.raises(ConfigurationError, match="schedule\\[0\\].start"):
        MultiChannelSystem(A=A, B=B, schedule=(ScheduleSegment(0.5, A, B),))


def test_schedule_breakpoints_strictly_increasing():
    A = np.array([[0.0]])
    B = (np.array([[1.0]]),)
    with pytest.raises(ConfigurationError, match="increasing"):
        MultiChannelSystem(
            A=A,
            B=B,
            schedule=(ScheduleSegment(0.0, A, B), ScheduleSegment(0.0, A, B)),
        )


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_is_reported_with_step():
    # Growth factor ~4e6 per step at a*h = 100, so the entries overflow
    # float64 somewhere around step 47.
    system = scalar_system(a=50.0)
    profile = scalar_profile(0.0)
    with pytest.raises(DivergenceError) as err:
        integrate_transition(system, profile, 0.0, 100.0, 50)
    assert 1 <= err.value.step <= 50


def test_profile_channel_coverage_enforced():
    with pytest.raises(ConfigurationError, match="channels must cover"):
        FeedbackProfile(
            (FeedbackGain(1, np.array([[0.0]])), FeedbackGain(3, np.array([[0.0]])))
        )


def test_gain_shape_checked_against_channel():
    system, profile = random_stable_system(7)
    bad = profile.replaced(2, np.zeros((2, 3)))  # channel 2 expects a 1x3 gain
    with pytest.raises(ConfigurationError, match="channel 2"):
        closed_loop_matrix(system, bad)


def test_profile_replaced_and_key():
    system, profile = random_stable_system(8)
    other = profile.replaced(1, np.zeros((2, 3)))
    assert np.array_equal(other.gain(2).L, profile.gain(2).L)
    assert profile.key() != other.key()
    assert profile.hash_hex() != other.hash_hex()
    # Same content gives the same key.
    again = profile.replaced(1, profile.gain(1).L)
    assert again.key() == profile.key()


def test_profile_key_is_the_bytes_of_its_gains_however_it_was_made():
    space = StrategySpace(
        (
            [np.array([[0.5, -1.0], [2.0, 0.25]]), np.eye(2)],
            [np.array([[-0.3, 0.1]]), np.array([[1e-300, -0.0]])],
        )
    )
    made = space.profile([1, 0])
    profiles = [
        made,
        made.replaced(2, np.array([[7.0, -8.0]])),
        made.replaced(1, np.asfortranarray([[1.0, 2.0], [3.0, 4.0]])),
        made.replaced(2, space.gain(2, 1)),
        made.replaced(1, FeedbackGain(1, np.array([[0.0, 1.0], [1.0, 0.0]]).T)),
    ]
    for profile in profiles:
        rebuilt = b"".join(
            np.int64(g.channel).tobytes() + np.ascontiguousarray(g.L).tobytes()
            for g in profile.gains
        )
        assert profile.key() == rebuilt
        assert profile.hash_hex() == hashlib.sha1(rebuilt).hexdigest()[:12]
        # The key is formed once, so the gains it was formed from cannot change.
        for g in profile.gains:
            with pytest.raises(ValueError, match="read-only"):
                g.L[0, 0] = 1.0
    assert made.replaced(2, space.gain(2, 1)).gain(2) is space.gain(2, 1)


def test_decomposition_on_commuting_diagonal_system():
    # Diagonal closed loop: both factors are explicit exponentials.
    system = MultiChannelSystem(
        A=np.diag([-0.3, -0.7]),
        B=(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])),
    )
    profile = FeedbackProfile(
        (
            FeedbackGain(1, np.array([[-0.4, 0.0]])),
            FeedbackGain(2, np.array([[0.0, -0.2]])),
        )
    )
    t = 1.25
    R, Q = decompose_transition(system, profile, 1, 0.0, t, 400)
    assert np.allclose(R.Phi, np.diag([np.exp(-0.3 * t), np.exp(-0.9 * t)]), atol=1e-9)
    assert np.allclose(Q.Phi, np.diag([np.exp(-0.4 * t), 1.0]), atol=1e-9)
    full = integrate_transition(system, profile, 0.0, t, 400)
    assert np.allclose(R.Phi @ Q.Phi, full.Phi, atol=1e-9)


@pytest.mark.parametrize("channel", [1, 2])
def test_decomposition_product_recovers_transition(channel):
    system, profile = random_stable_system(9)
    full = integrate_transition(system, profile, 0.0, 1.0, 400)
    R, Q = decompose_transition(system, profile, channel, 0.0, 1.0, 400)
    assert np.allclose(R.Phi @ Q.Phi, full.Phi, atol=1e-6)


def test_decomposition_conditioning_guard():
    # Rest-of-network factor spreads eigenvalues until cond(R) > 1e12.
    system = MultiChannelSystem(
        A=np.diag([-35.0, 0.0]),
        B=(np.array([[0.0], [0.0]]),),
    )
    profile = FeedbackProfile((FeedbackGain(1, np.zeros((1, 2))),))
    with pytest.raises(ConditioningError, match="ill conditioned"):
        decompose_transition(system, profile, 1, 0.0, 1.0, 200)


def test_flow_map_batches_match_single_points():
    system, profile = random_stable_system(10)
    fm = flow_map(system, profile, 0.0, 0.8, 128)
    rng = np.random.default_rng(11)
    pts = rng.normal(0, 1, (40, system.dim))
    batch = fm(pts)
    singles = np.array([fm(p) for p in pts])
    # gemm and gemv kernels may round the last bit differently
    assert np.allclose(batch, singles, rtol=0, atol=1e-13)
    assert fm.transition.t1 == 0.8
    assert fm.flow_id.startswith("linear:")
    assert profile.hash_hex() in fm.flow_id


def test_time_window_validation():
    system = scalar_system()
    profile = scalar_profile(0.0)
    with pytest.raises(ConfigurationError, match="t1"):
        integrate_transition(system, profile, 1.0, 0.5, 10)
    with pytest.raises(ConfigurationError, match="steps"):
        integrate_transition(system, profile, 0.0, 1.0, 0)


def test_system_validation_messages():
    with pytest.raises(ConfigurationError, match="A: must be square"):
        MultiChannelSystem(A=np.zeros((2, 3)), B=(np.zeros((2, 1)),))
    with pytest.raises(ConfigurationError, match="B\\[0\\]"):
        MultiChannelSystem(A=np.zeros((2, 2)), B=(np.zeros((3, 1)),))
    with pytest.raises(ConfigurationError, match="at least one input channel"):
        MultiChannelSystem(A=np.zeros((2, 2)), B=())
