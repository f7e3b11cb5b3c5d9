"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the toolkit on a scenario
small enough to run in seconds but sharp enough to fail loudly, and prints
a single ``ACCEPTANCE n PASS``/``FAIL`` line so the suite output doubles
as a checklist.
"""

import copy
import json

import numpy as np
import pytest
from scipy.integrate import quad

from entrogame import (
    DensityVector,
    FeedbackGain,
    FeedbackProfile,
    GameConfig,
    MultiChannelSystem,
    NoiseSpec,
    ObservableVector,
    Partition,
    SdePathConfig,
    StrategySpace,
    adjoint_residual,
    apply_fp,
    build_stochastic_ulam,
    build_ulam,
    contraction_estimate,
    decompose_transition,
    ensemble_endpoints,
    entropy,
    entropy_decay_trace,
    find_equilibrium,
    flow_map,
    integrate_transition,
    invariance_check,
    l1_distance,
    perturbed_stationary,
    relative_entropy,
    sample_ball_pairs,
    simulate_sde,
    stationary_density,
)
from entrogame.cli import main as cli_main
from conftest import (
    counts_of,
    entries_of,
    line_partition,
    scalar_profile,
    scalar_system,
    sum_zero_config,
    sum_zero_space,
    tilted_density,
    two_channel_profile,
    two_channel_system,
)


def verdict(capsys, n, ok):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} failed"


def half_turn_operator():
    """Exact 180-degree rotation of an 8x8 box grid.

    The rotation by pi maps every cell onto its opposite; midpoint samples
    sit far from all cell faces, so integration error cannot flip a count
    and the matrix is a bona fide permutation.
    """
    system = MultiChannelSystem(
        A=np.array([[0.0, np.pi], [-np.pi, 0.0]]),
        B=(np.zeros((2, 1)),),
    )
    profile = FeedbackProfile((FeedbackGain(1, np.zeros((1, 2))),))
    part = Partition(
        np.array([-1.0, -1.0]), np.array([1.0, 1.0]), np.array([8, 8])
    )
    fm = flow_map(system, profile, 0.0, 1.0, 300)
    return part, build_ulam(part, fm, 9), system, profile


def random_density(part, rng):
    vals = rng.uniform(0.05, 2.0, part.cell_count)
    vals /= vals.sum() * part.cell_volume
    return DensityVector(part, vals)


def test_acceptance_01_duality_of_the_two_actions(capsys):
    part, P, _, _ = half_turn_operator()
    ok = bool(np.array_equal(P.escaped, np.zeros(64, dtype=np.int64)))
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        theta = random_density(part, rng)
        zeta = ObservableVector(rng.normal(0.0, 1.0, 64))
        worst = max(worst, adjoint_residual(P, theta, zeta))
    ok = ok and worst <= 1e-12
    verdict(capsys, 1, ok)


def test_acceptance_02_push_forward_is_exactly_linear_and_positive(capsys):
    part, P, _, _ = half_turn_operator()
    ok = bool(
        np.array_equal(
            counts_of(P).sum(axis=1) + P.escaped, np.full(64, 9, dtype=np.int64)
        )
    )
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = random_density(part, rng)
        b = random_density(part, rng)
        lam = float(rng.uniform(0.0, 1.0))
        mixed = DensityVector(part, lam * a.values + (1.0 - lam) * b.values)
        lhs = apply_fp(P, mixed).values
        rhs = lam * apply_fp(P, a).values + (1.0 - lam) * apply_fp(P, b).values
        # Permutation rows and a power-of-two cell volume leave no room
        # for rounding: the two routes must agree bit for bit.
        ok = ok and bool(np.array_equal(lhs, rhs))
        ok = ok and float(lhs.min()) >= 0.0

    # Same law within accumulation error on a genuinely mixing matrix.
    line = line_partition(64)
    Pc = build_ulam(line, flow_map(scalar_system(), scalar_profile(-0.8), 0.0, 1.0, 200), 8)
    ok = ok and bool(
        np.array_equal(
            counts_of(Pc).sum(axis=1) + Pc.escaped, np.full(64, 8, dtype=np.int64)
        )
    )
    for _ in range(100):
        a = random_density(line, rng)
        b = random_density(line, rng)
        lam = float(rng.uniform(0.0, 1.0))
        mixed = DensityVector(line, lam * a.values + (1.0 - lam) * b.values)
        lhs = apply_fp(Pc, mixed).values
        rhs = lam * apply_fp(Pc, a).values + (1.0 - lam) * apply_fp(Pc, b).values
        ok = ok and bool(np.max(np.abs(lhs - rhs)) <= 1e-12)
        ok = ok and float(lhs.min()) >= 0.0
    verdict(capsys, 2, ok)


def test_acceptance_03_uniform_density_maximises_entropy(capsys):
    part = line_partition(16, -3.0, 5.0)
    bound = np.log(part.domain_volume)
    uniform_gap = abs(entropy(DensityVector.uniform(part)).value - bound)
    ok = uniform_gap <= 1e-12
    rng = np.random.default_rng(11)
    for _ in range(1000):
        theta = random_density(part, rng)
        ok = ok and entropy(theta).value <= bound + 1e-9
    verdict(capsys, 3, ok)


def test_acceptance_04_entropy_matches_quadrature_on_a_smooth_density(capsys):
    part = line_partition(256, 0.0, 1.0)
    edges = np.linspace(0.0, 1.0, 257)
    theta = DensityVector(part, edges[:-1] + edges[1:])  # cell averages of 2x
    h_oracle, _ = quad(lambda x: -2 * x * np.log(2 * x), 1e-12, 1.0)
    r_oracle, _ = quad(lambda x: 2 * x * np.log(2 * x), 1e-12, 1.0)
    h_err = abs(entropy(theta).value - h_oracle)
    r_err = abs(relative_entropy(theta, DensityVector.uniform(part)) - r_oracle)
    ok = h_err <= 2e-3 and r_err <= 2e-3
    verdict(capsys, 4, ok)


def test_acceptance_05_transition_matrices_integrate_and_factor(capsys):
    scalar_err = abs(
        integrate_transition(scalar_system(), scalar_profile(-1.0), 0.0, 1.0, 100).Phi[0, 0]
        - np.exp(-1.0)
    )
    ok = scalar_err <= 1e-8

    rng = np.random.default_rng(5)
    A = rng.normal(0.0, 0.4, (3, 3)) - 1.5 * np.eye(3)
    system = MultiChannelSystem(
        A=A, B=(rng.normal(0.0, 0.5, (3, 2)), rng.normal(0.0, 0.5, (3, 1)))
    )
    profile = FeedbackProfile(
        (
            FeedbackGain(1, rng.normal(0.0, 0.3, (2, 3))),
            FeedbackGain(2, rng.normal(0.0, 0.3, (1, 3))),
        )
    )
    full = integrate_transition(system, profile, 0.0, 0.7, 400)
    for channel in (1, 2):
        R, Q = decompose_transition(system, profile, channel, 0.0, 0.7, 400)
        ok = ok and bool(np.max(np.abs(R.Phi @ Q.Phi - full.Phi)) <= 1e-6)
    verdict(capsys, 5, ok)


def test_acceptance_06_contracting_loop_pins_its_stationary_density(capsys):
    system = scalar_system()
    profile = scalar_profile(-0.8)
    part = line_partition(64)
    P5 = build_ulam(part, flow_map(system, profile, 0.0, 5.0, 200), 8)
    result = stationary_density(P5, DensityVector.uniform(part))
    central_mass = (
        (result.density.values[31] + result.density.values[32]) * part.cell_volume
    )
    ok = central_mass >= 0.99
    ok = ok and result.residual <= 1e-9
    for t in (1.0, 2.0, 3.0, 4.0):
        P_t = build_ulam(part, flow_map(system, profile, 0.0, t, 200), 8)
        ok = ok and invariance_check(P_t, result.density) <= 1e-8
    verdict(capsys, 6, ok)


def test_acceptance_07_entropy_decay_toward_the_stationary_density(capsys):
    system = two_channel_system()
    profile = two_channel_profile(-0.5, 0.5)
    part = line_partition(64)
    grid = tuple(np.arange(1, 11) * 0.5)
    cfg = GameConfig(
        time_grid=grid, theta_ref=DensityVector.uniform(part), samples_per_cell=8
    )
    thetas = [tilted_density(part, 0.3), DensityVector.uniform(part)]
    trace = entropy_decay_trace(system, profile, thetas, grid, cfg)
    ok = trace.skipped == ()
    for idx in range(len(thetas)):
        rel = [r.rel_entropy_to_stationary for r in trace.rows if r.density_index == idx]
        ok = ok and len(rel) == len(grid)
        ok = ok and all(np.isfinite(v) for v in rel)
        ok = ok and all(rel[k + 1] <= rel[k] + 1e-6 for k in range(len(rel) - 1))
        ok = ok and rel[-1] < 0.05
    verdict(capsys, 7, ok)


def test_acceptance_08_best_response_equilibrium_is_the_exhaustive_one(capsys):
    system = two_channel_system()
    space = sum_zero_space()
    cfg = sum_zero_config()

    # Exhaustive dominance audit over every full profile, recomputed with
    # plain matrix algebra instead of the search path.
    part = cfg.theta_ref.partition
    vol = part.cell_volume
    scores = {}
    for i in range(3):
        for j in range(3):
            worst = -np.inf
            try:
                for t in cfg.time_grid:
                    fm = flow_map(system, space.profile([i, j]), 0.0, t, 200)
                    P = build_ulam(part, fm, 8, leak_tol=cfg.leak_tol)
                    m = entries_of(P).T @ (cfg.theta_ref.values * vol)
                    m /= m.sum()
                    dens = m / vol
                    mask = dens > 0
                    kl = float(
                        np.sum(dens[mask] * np.log(dens[mask] / cfg.theta_ref.values[mask]))
                        * vol
                    )
                    worst = max(worst, kl)
            except Exception:
                continue
            scores[(i, j)] = worst
    nash = [
        (i, j)
        for (i, j), s in scores.items()
        if not any(scores[(i2, j)] < s - cfg.tol for i2 in range(3) if (i2, j) in scores)
        and not any(scores[(i, j2)] < s - cfg.tol for j2 in range(3) if (i, j2) in scores)
    ]
    ok = nash == [(0, 0)]

    final_profiles = []
    for i in range(3):
        for j in range(3):
            result = find_equilibrium(system, space, cfg, space.profile([i, j]))
            ok = ok and result.converged and result.history[-1] == (0, 0)
            final_profiles.append(result.profile)
    first = final_profiles[0]
    for prof in final_profiles[1:]:
        ok = ok and all(
            np.array_equal(prof.gain(c).L, first.gain(c).L) for c in (1, 2)
        )
    verdict(capsys, 8, ok)


def test_acceptance_09_contraction_factor_estimates(capsys):
    # A measure-preserving rotation cannot contract: the sampled factor
    # must say exactly one.
    part, P, system, profile = half_turn_operator()
    space = StrategySpace(((np.zeros((1, 2)),),))
    cfg = GameConfig(
        time_grid=(1.0,),
        theta_ref=DensityVector.uniform(part),
        samples_per_cell=9,
        integration_steps=300,
    )
    est_rot = contraction_estimate(
        system, space, cfg, DensityVector.uniform(part), 0.5, 40, seed=17
    )
    ok = abs(est_rot.kappa - 1.0) <= 1e-9 and not est_rot.ball_ok

    # A contracting loop started at its own stationary density: compare
    # against a dense recomputation sharing only the seeded pairs.
    line = line_partition(64)
    c_system = scalar_system()
    c_space = StrategySpace(((np.array([[-0.4]]),),))
    c_cfg = GameConfig(
        time_grid=(0.5, 1.0, 2.0),
        theta_ref=DensityVector.uniform(line),
        samples_per_cell=8,
    )
    c_profile = c_space.profile([0])
    theta0 = stationary_density(
        build_ulam(line, flow_map(c_system, c_profile, 0.0, 2.0, 200), 8),
        c_cfg.theta_ref,
    ).density
    est = contraction_estimate(c_system, c_space, c_cfg, theta0, 0.5, 30, seed=7)

    pairs, _ = sample_ball_pairs(theta0, 0.5, 30, seed=7)
    vol = line.cell_volume
    kappa = -np.inf
    for t in c_cfg.time_grid:
        P_t = entries_of(build_ulam(line, flow_map(c_system, c_profile, 0.0, t, 200), 8))
        for a, b in pairs:
            num = float(
                np.abs(P_t.T @ (a.values * vol) - P_t.T @ (b.values * vol)).sum()
            )
            kappa = max(kappa, num / l1_distance(a, b))
    ok = ok and abs(est.kappa - kappa) <= 1e-9
    ok = ok and est.kappa < 1.0
    ok = ok and est.drift == 0.0
    ok = ok and est.ball_ok
    verdict(capsys, 9, ok)


def test_acceptance_10_perturbed_paths_reproduce_ou_statistics(capsys):
    system = scalar_system()
    profile = scalar_profile(-1.0)
    eps = 0.1
    noise = NoiseSpec(sigma=np.array([[1.0]]), epsilon_list=(eps,))
    cfg = SdePathConfig(h=0.005, n_steps=1000, n_paths=100000, seed=777)
    ends = ensemble_endpoints(system, profile, noise, eps, np.array([0.0]), cfg)
    target = eps / 2.0  # stationary variance of the linear diffusion
    var = float(np.var(ends[:, 0]))
    ok = abs(var - target) <= 0.1 * target

    solo = SdePathConfig(h=0.005, n_steps=1000, n_paths=1, seed=777)
    traj = simulate_sde(system, profile, noise, 0.0, np.array([0.8]), solo)
    ok = ok and abs(traj[-1, 0] - 0.8 * np.exp(-5.0)) <= 2e-3
    verdict(capsys, 10, ok)


def test_acceptance_11_noise_sweep_converges_to_the_deterministic_limit(capsys):
    system = scalar_system()
    profile = scalar_profile(-2.0)
    part = line_partition(64)
    cfg = GameConfig(
        time_grid=(0.5, 1.0),
        theta_ref=DensityVector.uniform(part),
        samples_per_cell=8,
    )
    noise = NoiseSpec(sigma=np.array([[1.0]]), epsilon_list=(0.2, 0.1, 0.05, 0.0))
    path_cfg = SdePathConfig(h=0.01, n_steps=100, n_paths=400, seed=2026)

    from entrogame import resilience_report

    report = resilience_report(
        system, profile, noise, cfg, path_cfg,
        [DensityVector.uniform(part)], kl_floor=1e-12,
    )
    values = [v for _, v in report.theta_eps]
    ok = report.monotone_flag
    ok = ok and all(np.isfinite(v) for v in values)
    ok = ok and values[-1] == 0.0
    zero_rows = [e for e in report.entries if e.epsilon == 0.0]
    ok = ok and all(
        (e.l1_distance, e.rel_entropy, e.support_violation_mass) == (0.0, 0.0, 0.0)
        for e in zero_rows
    )

    # Stationary densities of the perturbed operators walk back to the
    # deterministic one as the noise is dialed down.
    det_stationary = stationary_density(
        build_ulam(part, flow_map(system, profile, 0.0, 1.0, 200), 8),
        cfg.theta_ref,
    ).density
    dists = []
    for eps in noise.epsilon_list:
        P_eps = build_stochastic_ulam(
            part, system, profile, noise, eps, 1.0, path_cfg
        )
        theta_eps = perturbed_stationary(P_eps).density
        dists.append(l1_distance(theta_eps, det_stationary))
    ok = ok and all(dists[k] > dists[k + 1] for k in range(len(dists) - 1))
    # The noiseless matrix is built from stratified starts rather than the
    # midpoint rule, so the two stationary constructions agree only up to
    # float accumulation, not bitwise.
    ok = ok and dists[-1] <= 1e-12
    verdict(capsys, 11, ok)


def test_acceptance_12_cli_artifacts_are_reproducible_across_threads(capsys, tmp_path):
    scenario = {
        "system": {
            "d": 1,
            "A": [[0.0]],
            "channels": [{"B": [[1.0]], "gains": [[-2.0]]}],
        },
        "domain": {"lower": [-1.0], "upper": [1.0], "cells_per_axis": [16]},
        "ulam": {"samples_per_cell": 4},
        "game": {"time_grid": [0.5, 1.0]},
        "perturb": {
            "sigma": [[1.0]],
            "epsilon_list": [0.1, 0.05, 0.0],
            "h": 0.01,
            "n_paths": 200,
            "seed": 31,
            "t": 1.0,
        },
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(scenario))

    artifacts = {}
    for threads in (1, 2, 8):
        out = tmp_path / f"threads{threads}"
        rc = cli_main(
            [
                "resilience",
                "--config", str(cfg_path),
                "--out", str(out),
                "--threads", str(threads),
                "--kl-floor",
            ]
        )
        assert rc == 0
        artifacts[threads] = (
            (out / "resilience.csv").read_bytes(),
            (out / "resilience.json").read_bytes(),
        )
    ok = artifacts[1] == artifacts[2] == artifacts[8]
    verdict(capsys, 12, ok)
