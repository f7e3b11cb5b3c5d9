import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrogame import (
    ConfigurationError,
    DensityVector,
    DomainEscapeError,
    NonConvergenceError,
    ObservableVector,
    Partition,
    TrajectoryEscapeError,
    UlamMatrix,
    adjoint_residual,
    apply_fp,
    apply_koopman,
    birkhoff_average,
    build_ulam,
    flow_map,
    invariance_check,
    l1_distance,
    stationary_density,
)
from conftest import (
    counts_of,
    destinations_from_counts,
    entries_of,
    line_partition,
    scalar_profile,
    scalar_system,
    tilted_density,
)


# ---------------------------------------------------------------- partition

def test_partition_geometry():
    part = Partition(np.array([0.0, -1.0]), np.array([2.0, 1.0]), np.array([4, 8]))
    assert part.dim == 2
    assert part.cell_count == 32
    assert np.allclose(part.widths, [0.5, 0.25])
    assert part.cell_volume == pytest.approx(0.125)
    assert part.domain_volume == pytest.approx(4.0)


def test_locate_closed_box_semantics():
    part = line_partition(4, 0.0, 1.0)
    assert part.locate(np.array([0.0])) == 0
    assert part.locate(np.array([0.25])) == 1  # left-closed interior edges
    assert part.locate(np.array([1.0])) == 3  # exact upper face stays inside
    assert part.locate(np.array([1.0 + 1e-12])) == -1
    assert part.locate(np.array([-0.1])) == -1


def test_locate_batch_matches_scalars():
    part = Partition(np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([3, 3]))
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.2, 1.2, (200, 2))
    batch = part.locate(pts)
    singles = np.array([part.locate(p) for p in pts])
    assert np.array_equal(batch, singles)


def test_sample_points_are_interior_midpoint_grid():
    part = line_partition(2, 0.0, 1.0)
    pts = part.sample_points(4)
    assert pts.shape == (2, 4, 1)
    assert np.allclose(pts[0, :, 0], [0.0625, 0.1875, 0.3125, 0.4375])
    assert np.allclose(pts[1, :, 0], [0.5625, 0.6875, 0.8125, 0.9375])


def test_density_validation_and_mass():
    part = line_partition(4, 0.0, 1.0)
    theta = DensityVector(part, np.array([1.0, 2.0, 0.5, 0.5]))
    assert theta.mass == pytest.approx(1.0)
    theta.require_unit_mass()
    with pytest.raises(ConfigurationError, match="negative value at cell 2"):
        DensityVector(part, np.array([1.0, 2.0, -0.5, 0.5]))
    with pytest.raises(ConfigurationError, match="deviates from 1"):
        DensityVector(part, np.array([2.0, 2.0, 2.0, 2.0])).require_unit_mass()
    assert DensityVector.uniform(part).mass == pytest.approx(1.0)


# -------------------------------------------------------------- ulam build

def test_ulam_rows_for_halving_map_by_hand():
    # x -> x/2 on [0,1] with 4 cells, 4 samples per cell: every cell-0/1
    # sample lands in cell 0, every cell-2/3 sample in cell 1.
    part = line_partition(4, 0.0, 1.0)
    P = build_ulam(part, lambda pts: 0.5 * pts, 4)
    expected = np.array(
        [[4, 0, 0, 0], [4, 0, 0, 0], [0, 4, 0, 0], [0, 4, 0, 0]], dtype=np.int64
    )
    assert np.array_equal(counts_of(P), expected)
    assert np.array_equal(P.escaped, np.zeros(4, dtype=np.int64))
    assert np.allclose(entries_of(P).sum(axis=1), 1.0)


def test_ulam_rows_for_straddling_contraction_by_hand():
    # x -> 0.75 x on [0,1], 2 cells, 4 samples: 0.5625*0.75 < 0.5 puts one
    # cell-1 sample into cell 0.
    part = line_partition(2, 0.0, 1.0)
    P = build_ulam(part, lambda pts: 0.75 * pts, 4)
    assert np.array_equal(counts_of(P), np.array([[4, 0], [1, 3]], dtype=np.int64))


def test_identity_flow_gives_identity_matrix():
    part = line_partition(16)
    P = build_ulam(part, lambda pts: pts, 8)
    assert np.array_equal(counts_of(P), 8 * np.eye(16, dtype=np.int64))


def test_translation_leak_rejected_and_tolerated():
    part = line_partition(2, 0.0, 1.0)
    shift = lambda pts: pts + 0.6
    with pytest.raises(DomainEscapeError) as err:
        build_ulam(part, shift, 4)
    assert err.value.cell == 1
    assert err.value.leakage == 1.0
    # By hand: cell-0 samples 0.0625/0.1875/0.3125 land in cell 1 and
    # 0.4375 + 0.6 = 1.0375 escapes; every cell-1 sample escapes.
    P = build_ulam(part, shift, 4, leak_tol=1.0)
    assert np.array_equal(counts_of(P), np.array([[0, 3], [0, 0]], dtype=np.int64))
    assert np.array_equal(P.escaped, np.array([1, 4], dtype=np.int64))
    assert np.allclose(P.leakage, [0.25, 1.0])


def test_counts_plus_escaped_is_exact_for_any_scale():
    part = line_partition(32)
    for c in (0.3, 0.77, 1.0, 1.3):
        try:
            P = build_ulam(part, lambda pts, c=c: c * pts, 8, leak_tol=1.0)
        except DomainEscapeError:
            continue
        assert np.array_equal(
            counts_of(P).sum(axis=1) + P.escaped,
            np.full(32, 8, dtype=np.int64),
        )


def test_build_metadata_from_flow_attributes():
    system = scalar_system()
    profile = scalar_profile(-0.5)
    fm = flow_map(system, profile, 0.0, 0.75, 60)
    P = build_ulam(line_partition(8), fm, 4)
    assert P.t0 == 0.0 and P.t1 == 0.75
    assert P.flow_id == fm.flow_id


def test_samples_per_cell_must_be_a_subgrid_power():
    part = Partition(np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([2, 2]))
    with pytest.raises(ConfigurationError, match="samples_per_cell"):
        build_ulam(part, lambda p: p, 8)  # 8 is not q**2
    build_ulam(part, lambda p: p, 9)


def test_point_map_fallback_for_scalar_only_flows():
    part = line_partition(4, 0.0, 1.0)

    def one_at_a_time(x):
        if np.ndim(x) != 1:
            raise TypeError("single points only")
        return 0.5 * x

    P = build_ulam(part, one_at_a_time, 4)
    assert np.array_equal(counts_of(P), counts_of(build_ulam(part, lambda p: 0.5 * p, 4)))


# ------------------------------------------------------------- dual action

def reversal_matrix(part, samples=8):
    M = part.cell_count
    return UlamMatrix(part, np.repeat(np.arange(M)[::-1, None], samples, axis=1))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_adjointness_of_the_two_actions(seed):
    rng = np.random.default_rng(seed)
    part = line_partition(16)
    counts = rng.multinomial(8, np.full(16, 1 / 16), size=16).astype(np.int64)
    P = UlamMatrix(part, destinations_from_counts(counts, 8))
    theta = DensityVector(part, rng.uniform(0.1, 2.0, 16))
    zeta = ObservableVector(rng.normal(0, 1, 16))
    assert adjoint_residual(P, theta, zeta) <= 1e-12


def test_push_forward_mass_bookkeeping():
    part = line_partition(2, 0.0, 1.0)
    P = build_ulam(part, lambda pts: pts + 0.6, 4, leak_tol=1.0)
    theta = DensityVector.uniform(part)
    pushed = apply_fp(P, theta)
    # Row 0 transmits 3/4 of its half of the mass, row 1 loses everything.
    assert pushed.mass == pytest.approx(0.375, abs=1e-12)
    # A leaky row is refused when the operator is built, so no push-forward
    # of an operator can leak more than its tolerance.
    with pytest.raises(DomainEscapeError, match="cell 1 leaks 0.5000") as err:
        UlamMatrix(part, np.array([[0, 0, 0, 0], [1, 1, -1, -1]]), leak_tol=0.05)
    assert (err.value.cell, err.value.leakage) == (1, 0.5)


def test_push_forward_renormalized_within_tolerance():
    system = scalar_system()
    profile = scalar_profile(-0.5)
    part = line_partition(32)
    P = build_ulam(part, flow_map(system, profile, 0.0, 1.0, 100), 8)
    pushed = apply_fp(P, DensityVector.uniform(part), renormalize=True)
    assert pushed.mass == pytest.approx(1.0, abs=1e-12)


def test_koopman_constant_functions_are_preserved_without_leak():
    part = line_partition(8)
    P = build_ulam(part, lambda p: 0.5 * p, 4)
    ones = ObservableVector(np.ones(8))
    assert np.array_equal(apply_koopman(P, ones).values, np.ones(8))


def test_apply_fp_positivity_and_linearity():
    rng = np.random.default_rng(3)
    part = line_partition(16)
    counts = rng.multinomial(16, np.full(16, 1 / 16), size=16).astype(np.int64)
    P = UlamMatrix(part, destinations_from_counts(counts, 16))
    a = DensityVector(part, rng.uniform(0, 1, 16))
    b = DensityVector(part, rng.uniform(0, 1, 16))
    mixed = DensityVector(part, 0.3 * a.values + 0.7 * b.values)
    lhs = apply_fp(P, mixed).values
    rhs = 0.3 * apply_fp(P, a).values + 0.7 * apply_fp(P, b).values
    assert np.all(lhs >= 0.0)
    assert np.allclose(lhs, rhs, atol=1e-13, rtol=0)


# --------------------------------------------------------------- stationary

def test_stationary_of_identity_is_immediate():
    part = line_partition(16)
    P = build_ulam(part, lambda p: p, 4)
    theta0 = tilted_density(part, 0.4)
    result = stationary_density(P, theta0)
    assert result.iterations == 1
    assert result.residual == 0.0
    assert l1_distance(result.density, theta0) == 0.0


def test_contracting_flow_concentrates_on_central_cells(part64):
    system = scalar_system()
    profile = scalar_profile(-0.8)
    P = build_ulam(part64, flow_map(system, profile, 0.0, 5.0, 200), 8)
    result = stationary_density(P, DensityVector.uniform(part64))
    vals = result.density.values
    central = vals[31] + vals[32]
    assert central * part64.cell_volume == pytest.approx(1.0, abs=1e-12)
    assert result.residual <= 1e-9
    assert invariance_check(P, result.density) <= 1e-12


def test_reversal_two_cycle_needs_averaging():
    part = line_partition(16)
    P = reversal_matrix(part)
    theta0 = tilted_density(part, 0.5)
    with pytest.raises(NonConvergenceError):
        stationary_density(P, theta0, tol=1e-10, max_iter=50)
    result = stationary_density(P, theta0, tol=1e-3, max_iter=5000, cesaro=True)
    symmetrized = 0.5 * (theta0.values + theta0.values[::-1])
    assert l1_distance(result.density, DensityVector(part, symmetrized)) <= 2e-3


def test_cesaro_average_of_irrational_rotation_flattens(part64):
    # Measure-preserving ergodic circle shift: the plain iterates keep
    # cycling, the running average settles near uniform.
    alpha = (np.sqrt(5.0) - 1.0) / 2.0

    def shift(pts):
        return -1.0 + np.mod(pts + 1.0 + 2.0 * alpha, 2.0)

    P = build_ulam(part64, shift, 8)
    theta0 = tilted_density(part64, 0.8)
    vol = part64.cell_volume

    # Oracle: run the average directly for 2000 applications.
    p = theta0.values * vol
    avg = np.zeros_like(p)
    for n in range(1, 2001):
        p = entries_of(P).T @ p
        p = p / p.sum()
        avg += (p - avg) / n
    uniform = DensityVector.uniform(part64)
    manual = DensityVector(part64, avg / vol)
    assert l1_distance(manual, uniform) < 0.02

    result = stationary_density(P, theta0, tol=1e-4, max_iter=8000, cesaro=True)
    assert l1_distance(result.density, uniform) < 0.02


def test_stationary_validation():
    part = line_partition(8)
    P = build_ulam(part, lambda p: p, 4)
    theta0 = DensityVector.uniform(part)
    with pytest.raises(ConfigurationError, match="tol"):
        stationary_density(P, theta0, tol=0.0)
    with pytest.raises(ConfigurationError, match="max_iter"):
        stationary_density(P, theta0, max_iter=0)


def test_composition_defect_is_small_but_reported():
    # One-shot operators at t and 2t versus the composed square; grids do
    # not compose exactly, the defect just has to stay moderate.
    system = scalar_system()
    profile = scalar_profile(-0.5)
    part = line_partition(64)
    P1 = build_ulam(part, flow_map(system, profile, 0.0, 0.5, 100), 8)
    P2 = build_ulam(part, flow_map(system, profile, 0.0, 1.0, 100), 8)
    theta = DensityVector.uniform(part)
    once = apply_fp(P2, theta)
    twice = apply_fp(P1, apply_fp(P1, theta))
    defect = l1_distance(once, twice)
    assert defect < 0.2


# ----------------------------------------------------------------- birkhoff

def test_birkhoff_average_of_odd_observable_under_negation():
    avg = birkhoff_average(lambda x: -x, np.array([0.7]), lambda x: float(x[0] ** 3), 10)
    assert avg == 0.0


def test_birkhoff_escape_raises_with_step():
    with pytest.raises(TrajectoryEscapeError) as err:
        birkhoff_average(
            lambda x: x + 1.0,
            np.array([0.5]),
            lambda x: float(x[0]),
            5,
            domain=(np.array([-1.0]), np.array([1.0])),
        )
    assert err.value.step == 1


def test_l1_distance_matches_direct_sum():
    part = line_partition(8)
    rng = np.random.default_rng(12)
    a = DensityVector(part, rng.uniform(0, 1, 8))
    b = DensityVector(part, rng.uniform(0, 1, 8))
    direct = float(np.abs(a.values - b.values).sum() * part.cell_volume)
    assert l1_distance(a, b) == direct


def test_sample_points_are_computed_once_per_order_and_read_only():
    part = Partition(np.array([0.0, -1.0]), np.array([2.0, 1.0]), np.array([4, 8]))
    pts = part.sample_points(3)
    assert part.sample_points(3) is pts
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0, 0] = 5.0
    corners = part.lower + part.multi_indices() * part.widths
    assert np.array_equal(pts, corners[:, None, :] + part.sample_offsets(3)[None, :, :])
    assert part.sample_points(2).shape == (32, 4, 2)
    assert part.sample_points(3) is pts
