import numpy as np
import pytest

import entrogame.perturb as perturb_mod
from entrogame import (
    ConfigurationError,
    DensityVector,
    DomainEscapeError,
    GameConfig,
    NoiseSpec,
    SdePathConfig,
    StrategySpace,
    build_stochastic_ulam,
    ensemble_endpoints,
    perturbed_stationary,
    resilience_report,
    simulate_sde,
)
from conftest import counts_of, line_partition, scalar_profile, scalar_system, tilted_density


def unit_noise(*eps):
    return NoiseSpec(sigma=np.array([[1.0]]), epsilon_list=eps)


# ------------------------------------------------------------------ scheme

def test_zero_noise_reduces_to_explicit_euler():
    system = scalar_system()
    profile = scalar_profile(-1.0)
    cfg = SdePathConfig(h=1e-3, n_steps=1000, n_paths=1, seed=0)
    traj = simulate_sde(system, profile, unit_noise(0.1), 0.0, np.array([0.8]), cfg)
    assert traj.shape == (1001, 1)
    x = 0.8
    for _ in range(1000):
        x = x + (x * -1.0) * 1e-3
    assert traj[-1, 0] == pytest.approx(x, rel=1e-12)
    # First-order scheme versus the exact flow at this step size.
    assert abs(traj[-1, 0] - 0.8 * np.exp(-1.0)) < 5e-4


def test_paths_are_reproducible_and_keyed_by_seed_cell_path():
    system = scalar_system()
    profile = scalar_profile(-1.0)
    noise = unit_noise(0.2)
    cfg = SdePathConfig(h=0.01, n_steps=50, n_paths=1, seed=9)
    base = simulate_sde(system, profile, noise, 0.2, np.array([0.3]), cfg)
    again = simulate_sde(system, profile, noise, 0.2, np.array([0.3]), cfg)
    assert np.array_equal(base, again)
    other_path = simulate_sde(
        system, profile, noise, 0.2, np.array([0.3]), cfg, path=1
    )
    other_cell = simulate_sde(
        system, profile, noise, 0.2, np.array([0.3]), cfg, cell=1
    )
    other_seed = simulate_sde(
        system, profile, noise, 0.2, np.array([0.3]),
        SdePathConfig(h=0.01, n_steps=50, n_paths=1, seed=10),
    )
    for other in (other_path, other_cell, other_seed):
        assert not np.array_equal(base, other)
    with pytest.raises(ConfigurationError, match="stream indices"):
        simulate_sde(system, profile, noise, 0.2, np.array([0.3]), cfg, path=-1)


def test_ensemble_rows_match_single_path_runs():
    system = scalar_system()
    profile = scalar_profile(-0.7)
    noise = unit_noise(0.15)
    cfg = SdePathConfig(h=0.02, n_steps=25, n_paths=6, seed=4)
    ends = ensemble_endpoints(system, profile, noise, 0.15, np.array([0.4]), cfg)
    assert ends.shape == (6, 1)
    for p in range(6):
        single = simulate_sde(
            system, profile, noise, 0.15, np.array([0.4]), cfg, path=p
        )
        assert ends[p, 0] == single[-1, 0]


def test_chunked_integration_is_invariant_to_chunk_size(monkeypatch):
    system = scalar_system()
    profile = scalar_profile(-0.7)
    noise = unit_noise(0.15)
    cfg = SdePathConfig(h=0.02, n_steps=25, n_paths=37, seed=4)
    whole = ensemble_endpoints(system, profile, noise, 0.15, np.array([0.4]), cfg)
    monkeypatch.setattr(perturb_mod, "_CHUNK_ENTRIES", 100)
    sliced = ensemble_endpoints(system, profile, noise, 0.15, np.array([0.4]), cfg)
    assert np.array_equal(whole, sliced)


def test_ou_endpoint_moments():
    # Closed loop -1 with diffusion scale sqrt(eps): endpoint variance
    # approaches eps/2 (the discrete chain equilibrates at eps/(2 - h)).
    system = scalar_system()
    profile = scalar_profile(-1.0)
    eps = 0.1
    cfg = SdePathConfig(h=0.005, n_steps=1000, n_paths=20000, seed=123)
    ends = ensemble_endpoints(
        system, profile, unit_noise(eps), eps, np.array([0.0]), cfg
    )
    var = float(np.var(ends[:, 0]))
    assert abs(var - eps / 2.0) <= 0.1 * (eps / 2.0)
    assert abs(float(np.mean(ends[:, 0]))) <= 0.01


# ----------------------------------------------------------- matrix building

def test_zero_noise_matrix_ignores_the_seed():
    system = scalar_system()
    profile = scalar_profile(-2.0)
    noise = unit_noise(0.1)
    part = line_partition(16)
    a = build_stochastic_ulam(
        part, system, profile, noise, 0.0, 1.0,
        SdePathConfig(h=0.01, n_steps=1, n_paths=100, seed=1),
    )
    b = build_stochastic_ulam(
        part, system, profile, noise, 0.0, 1.0,
        SdePathConfig(h=0.01, n_steps=1, n_paths=100, seed=2),
    )
    assert np.array_equal(counts_of(a), counts_of(b))
    assert np.array_equal(counts_of(a).sum(axis=1), np.full(16, 100))


def test_stochastic_matrix_metadata_and_validation():
    system = scalar_system()
    profile = scalar_profile(-2.0)
    noise = unit_noise(0.1)
    part = line_partition(16)
    cfg = SdePathConfig(h=0.01, n_steps=1, n_paths=100, seed=7)
    P = build_stochastic_ulam(part, system, profile, noise, 0.1, 0.5, cfg)
    assert P.t1 == 0.5
    assert P.flow_id.startswith("sde:eps=0.1:seed=7:")
    with pytest.raises(ConfigurationError, match="n_paths"):
        build_stochastic_ulam(
            part, system, profile, noise, 0.1, 0.5,
            SdePathConfig(h=0.01, n_steps=1, n_paths=99, seed=7),
        )
    with pytest.raises(ConfigurationError, match="t:"):
        build_stochastic_ulam(part, system, profile, noise, 0.1, 0.0, cfg)


def test_violent_noise_is_rejected_with_the_worst_cell():
    system = scalar_system()
    profile = scalar_profile(-1.0)
    part = line_partition(16)
    cfg = SdePathConfig(h=0.1, n_steps=1, n_paths=100, seed=3)
    with pytest.raises(DomainEscapeError, match="lost"):
        build_stochastic_ulam(part, system, profile, unit_noise(5.0), 5.0, 1.0, cfg)


def test_perturbed_stationary_concentrates_for_a_strong_contraction():
    system = scalar_system()
    profile = scalar_profile(-2.0)
    part = line_partition(16)
    cfg = SdePathConfig(h=0.01, n_steps=1, n_paths=100, seed=7)
    P = build_stochastic_ulam(part, system, profile, unit_noise(0.1), 0.0, 2.0, cfg)
    result = perturbed_stationary(P)
    support = np.flatnonzero(result.density.values)
    assert set(support) <= {7, 8}
    assert result.residual <= 1e-12


# ------------------------------------------------------------------- spec

def test_noise_spec_validation():
    with pytest.raises(ConfigurationError, match="square"):
        NoiseSpec(sigma=np.array([1.0, 2.0]), epsilon_list=(0.1,))
    with pytest.raises(ConfigurationError, match="epsilon_list"):
        NoiseSpec(sigma=np.eye(1), epsilon_list=())
    with pytest.raises(ConfigurationError, match="must be >= 0"):
        NoiseSpec(sigma=np.eye(1), epsilon_list=(0.1, -0.2))
    with pytest.raises(ConfigurationError, match="strictly decreasing"):
        NoiseSpec(sigma=np.eye(1), epsilon_list=(0.1, 0.1))
    spec = unit_noise(0.2, 0.1, 0.0)
    assert spec.epsilon_list == (0.2, 0.1, 0.0)


def test_path_config_validation():
    with pytest.raises(ConfigurationError, match="h:"):
        SdePathConfig(h=0.0, n_steps=10, n_paths=1, seed=0)
    with pytest.raises(ConfigurationError, match="n_steps"):
        SdePathConfig(h=0.1, n_steps=0, n_paths=1, seed=0)
    with pytest.raises(ConfigurationError, match="n_paths"):
        SdePathConfig(h=0.1, n_steps=10, n_paths=0, seed=0)
    with pytest.raises(ConfigurationError, match="seed"):
        SdePathConfig(h=0.1, n_steps=10, n_paths=1, seed=-1)


# -------------------------------------------------------------- resilience

def resilience_setup():
    system = scalar_system()
    profile = scalar_profile(-2.0)
    part = line_partition(16)
    cfg = GameConfig(
        time_grid=(0.5, 1.0),
        theta_ref=DensityVector.uniform(part),
        samples_per_cell=4,
    )
    path_cfg = SdePathConfig(h=0.01, n_steps=1, n_paths=200, seed=42)
    thetas = [DensityVector.uniform(part), tilted_density(part)]
    return system, profile, cfg, path_cfg, thetas


def test_resilience_sweep_shape_and_zero_epsilon_rows():
    system, profile, cfg, path_cfg, thetas = resilience_setup()
    noise = unit_noise(0.1, 0.05, 0.0)
    report = resilience_report(
        system, profile, noise, cfg, path_cfg, thetas, kl_floor=1e-12
    )
    assert len(report.entries) == 12
    zero_rows = [e for e in report.entries if e.epsilon == 0.0]
    assert len(zero_rows) == 4
    for e in zero_rows:
        assert (e.l1_distance, e.rel_entropy, e.support_violation_mass) == (
            0.0, 0.0, 0.0,
        )
    assert report.theta_eps[-1] == (0.0, 0.0)
    assert all(np.isfinite(v) for _, v in report.theta_eps)
    # Heavier diffusion pushes more mass outside the deterministic
    # support, which dominates the floored divergence.
    assert report.monotone_flag
    assert report.kl_floor == 1e-12


def test_resilience_without_floor_reports_nan_and_violation_mass():
    system, profile, cfg, path_cfg, thetas = resilience_setup()
    report = resilience_report(
        system, profile, unit_noise(0.1), cfg, path_cfg, thetas
    )
    assert report.kl_floor is None
    assert all(np.isnan(e.rel_entropy) for e in report.entries)
    assert all(e.support_violation_mass > 0 for e in report.entries)
    assert all(e.l1_distance > 0 for e in report.entries)
    assert np.isnan(report.theta_eps[0][1])
    assert not report.monotone_flag


@pytest.mark.parametrize("floor", [-1.0, 0.0, float("nan"), float("inf")])
def test_resilience_refuses_a_floor_that_is_not_finite_and_positive(floor):
    system, profile, cfg, path_cfg, thetas = resilience_setup()
    with pytest.raises(ConfigurationError, match="kl_floor"):
        resilience_report(
            system, profile, unit_noise(0.1), cfg, path_cfg, thetas, kl_floor=floor
        )


def test_resilience_deviation_sweep_is_separated():
    system, profile, cfg, path_cfg, thetas = resilience_setup()
    noise = unit_noise(0.1, 0.0)
    space = StrategySpace(((np.array([[-2.0]]), np.array([[-1.0]])),))
    plain = resilience_report(
        system, profile, noise, cfg, path_cfg, thetas, kl_floor=1e-12
    )
    swept = resilience_report(
        system, profile, noise, cfg, path_cfg, thetas,
        kl_floor=1e-12, with_deviations=True, space=space,
    )
    assert plain.deviation_entries == ()
    # One deviation, two times, two densities, one nonzero epsilon.
    assert len(swept.deviation_entries) == 4
    assert {e.profile_id for e in swept.deviation_entries} == {"deviation:j=1,k=1"}
    assert {e.profile_id for e in swept.entries} == {"equilibrium"}
    # The deviation sweep must not change the headline statistic.
    assert swept.theta_eps == plain.theta_eps
    assert swept.entries == plain.entries


def test_resilience_validation():
    system, profile, cfg, path_cfg, thetas = resilience_setup()
    noise = unit_noise(0.1)
    with pytest.raises(ConfigurationError, match="strategy space"):
        resilience_report(
            system, profile, noise, cfg, path_cfg, thetas, with_deviations=True
        )
    with pytest.raises(ConfigurationError, match="at least one density"):
        resilience_report(system, profile, noise, cfg, path_cfg, [])
    alien = DensityVector.uniform(line_partition(8))
    with pytest.raises(ConfigurationError, match="reference partition"):
        resilience_report(system, profile, noise, cfg, path_cfg, [alien])


@pytest.mark.parametrize(
    "seed, cell, path",
    [(0, 0, 0), (9, 3, 41), (2**63 + 5, 2**32 - 1, 2**32 - 1), (1, 0, 2**32 - 1), (7, 2**32 - 1, 0)],
)
def test_stream_reset_matches_a_fresh_philox(seed, cell, path):
    key = np.array(
        [np.uint64(seed), (np.uint64(cell) << np.uint64(32)) | np.uint64(path)],
        dtype=np.uint64,
    )
    fresh = np.random.Generator(np.random.Philox(key=key)).standard_normal((37, 3))
    # Row ``path`` of a block that starts at cell ``cell`` with ``path + 1``
    # paths per cell reads the stream of ``(cell, path)``.
    (row,) = perturb_mod._draw_normals(seed, cell, path + 1, path, path + 1, 37, 3)
    assert np.array_equal(row, fresh)


def test_stream_indices_past_32_bits_are_refused():
    # A stream's key word is ``cell << 32 | path``: path 2**32 of cell 0 and
    # cell 2**32 would read the streams of (1, 0) and of cell 0.
    system, profile, noise = scalar_system(), scalar_profile(-1.0), unit_noise(0.1)
    cfg = SdePathConfig(h=0.01, n_steps=20, n_paths=3, seed=5)
    x0 = np.array([0.3])
    with pytest.raises(ConfigurationError, match="path 4294967296: stream indices"):
        simulate_sde(system, profile, noise, 0.1, x0, cfg, path=2**32, cell=0)
    with pytest.raises(ConfigurationError, match="cell 4294967296: stream indices"):
        ensemble_endpoints(system, profile, noise, 0.1, x0, cfg, cell=2**32)
    top = ensemble_endpoints(system, profile, noise, 0.1, x0, cfg, cell=2**32 - 1)
    assert not np.array_equal(top, ensemble_endpoints(system, profile, noise, 0.1, x0, cfg))
    traj = simulate_sde(system, profile, noise, 0.1, x0, cfg, path=2, cell=2**32 - 1)
    assert np.array_equal(traj[-1], top[2])
