import inspect

import numpy as np
import pytest

import entrogame.game as game_mod
from entrogame import (
    ConfigurationError,
    DensityVector,
    DomainEscapeError,
    EmptyStrategyError,
    GameConfig,
    MultiChannelSystem,
    OperatorCache,
    StrategySpace,
    best_response,
    build_ulam,
    contraction_estimate,
    criterion,
    entropy_decay_trace,
    find_equilibrium,
    flow_map,
    l1_distance,
    sample_ball_pairs,
    stationary_density,
    verify_equilibrium,
)
from conftest import (
    line_partition,
    scalar_profile,
    scalar_system,
    sum_zero_config,
    sum_zero_space,
    tilted_density,
    two_channel_profile,
    two_channel_system,
)


def manual_worst_score(system, profile, cfg):
    """Straight-numpy recomputation of the worst grid-time score.

    Deliberately avoids the library's push/divergence helpers: build the
    matrix, push masses by hand, renormalise, take the divergence sum.
    """
    part = cfg.theta_ref.partition
    vol = part.cell_volume
    worst = -np.inf
    for t in cfg.time_grid:
        fm = flow_map(system, profile, 0.0, float(t), cfg.integration_steps)
        P = build_ulam(part, fm, cfg.samples_per_cell, leak_tol=cfg.leak_tol)
        m = P.entries.T @ (cfg.theta_ref.values * vol)
        m = m / m.sum()
        dens = m / vol
        mask = dens > 0
        kl = float(
            np.sum(dens[mask] * np.log(dens[mask] / cfg.theta_ref.values[mask])) * vol
        )
        worst = max(worst, kl)
    return worst


# ---------------------------------------------------------------- criterion

def test_criterion_of_the_identity_flow_is_exactly_zero():
    system = scalar_system()
    cfg = sum_zero_config()
    vec = criterion(system, scalar_profile(0.0), cfg)
    assert vec.shape == (2,)
    assert np.array_equal(vec, np.zeros(2))


def test_criterion_of_halving_flow_hits_log_two():
    # Closed loop -1 run for ln 2 halves the box; on a dyadic grid the
    # push-forward of the uniform density is exactly flat on the inner
    # half, so the score is ln 2 to rounding.
    system = scalar_system()
    part = line_partition(256)
    cfg = GameConfig(
        time_grid=(np.log(2.0),),
        theta_ref=DensityVector.uniform(part),
        samples_per_cell=8,
    )
    vec = criterion(system, scalar_profile(-1.0), cfg)
    assert vec[0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_criterion_is_channel_blind():
    # One score per profile: no channel argument, and a second read of the
    # same profile returns the memoised vector itself.
    assert "channel" not in inspect.signature(criterion).parameters
    system = two_channel_system()
    cfg = sum_zero_config()
    profile = two_channel_profile(-0.3, -0.1)
    cache = OperatorCache(system, cfg)
    vec = criterion(system, profile, cfg, cache)
    assert criterion(system, profile, cfg, cache) is vec
    assert np.array_equal(vec, criterion(system, profile, cfg))


def test_criterion_matches_manual_recomputation():
    system = scalar_system()
    cfg = sum_zero_config()
    for gain in (-0.3, -0.8):
        vec = criterion(system, scalar_profile(gain), cfg)
        assert float(np.max(vec)) == pytest.approx(
            manual_worst_score(system, scalar_profile(gain), cfg), abs=1e-12
        )


# ------------------------------------------------------------ best response

def test_best_response_single_channel_matches_exhaustive_argmin():
    system = scalar_system()
    cfg = sum_zero_config()
    gains = (-0.5, -1.0, 0.2)
    space = StrategySpace(((np.array([[g]]) for g in gains),))
    # Oracle: 0.2 expands and loses mass at the faces, the survivors score
    # by how hard they squeeze, so the mildest contraction wins.
    survivors = {}
    for k, g in enumerate(gains):
        try:
            survivors[k] = manual_worst_score(system, scalar_profile(g), cfg)
        except DomainEscapeError:
            continue
    assert set(survivors) == {0, 1}
    want = min(survivors, key=survivors.get)
    assert want == 0
    got = best_response(system, scalar_profile(-1.0), 1, space, cfg)
    assert np.array_equal(got.L, np.array([[gains[want]]]))


def test_best_response_breaks_ties_toward_the_lowest_index():
    # Zero actuation: every candidate produces the same closed loop.
    system = MultiChannelSystem(A=np.array([[-0.5]]), B=(np.array([[0.0]]),))
    space = StrategySpace(((np.array([[0.3]]), np.array([[-0.7]])),))
    cfg = sum_zero_config()
    got = best_response(system, scalar_profile(0.3), 1, space, cfg)
    assert np.array_equal(got.L, np.array([[0.3]]))


def test_best_response_is_symmetric_across_twin_channels():
    system = two_channel_system()
    cands = (np.array([[-0.1]]), np.array([[-0.4]]))
    space = StrategySpace((cands, cands))
    cfg = sum_zero_config()
    r1 = best_response(system, two_channel_profile(-0.1, -0.4), 1, space, cfg)
    r2 = best_response(system, two_channel_profile(-0.4, -0.1), 2, space, cfg)
    assert np.array_equal(r1.L, r2.L)
    assert np.array_equal(r1.L, np.array([[-0.1]]))


def test_every_candidate_rejected_raises_with_reasons():
    system = scalar_system()
    space = StrategySpace(((np.array([[0.5]]), np.array([[1.0]])),))
    cfg = sum_zero_config()
    with pytest.raises(EmptyStrategyError, match="candidate 0.*candidate 1"):
        best_response(system, scalar_profile(0.5), 1, space, cfg)


def test_stability_filter_rejects_non_hurwitz_candidates():
    system = scalar_system()
    space = StrategySpace(
        ((np.array([[0.3]]), np.array([[-0.5]])),), stability_filter=True
    )
    cfg = sum_zero_config()
    got = best_response(system, scalar_profile(-0.5), 1, space, cfg)
    assert np.array_equal(got.L, np.array([[-0.5]]))
    only_bad = StrategySpace(((np.array([[0.3]]),),), stability_filter=True)
    with pytest.raises(EmptyStrategyError, match="stability filter"):
        best_response(system, scalar_profile(0.3), 1, only_bad, cfg)


# -------------------------------------------------------------- equilibrium

def test_equilibrium_matches_exhaustive_search_from_every_start():
    system = two_channel_system()
    space = sum_zero_space()
    cfg = sum_zero_config()

    # Independent oracle: enumerate all nine profiles; a profile is an
    # equilibrium when it is buildable and no unilateral switch to another
    # buildable profile strictly lowers the worst score.
    scores = {}
    for i in range(3):
        for j in range(3):
            try:
                scores[(i, j)] = manual_worst_score(
                    system, space.profile([i, j]), cfg
                )
            except DomainEscapeError:
                continue
    equilibria = []
    for (i, j), s in scores.items():
        improved = any(
            scores[(i2, j)] < s - cfg.tol for i2 in range(3) if (i2, j) in scores
        ) or any(
            scores[(i, j2)] < s - cfg.tol for j2 in range(3) if (i, j2) in scores
        )
        if not improved:
            equilibria.append((i, j))
    assert equilibria == [(0, 0)]

    for i in range(3):
        for j in range(3):
            result = find_equilibrium(system, space, cfg, space.profile([i, j]))
            assert result.converged
            assert result.history[0] == (i, j)
            assert result.history[-1] == (0, 0)
            assert np.array_equal(result.profile.gain(1).L, np.array([[-0.5]]))
            assert np.array_equal(result.profile.gain(2).L, np.array([[0.5]]))


def test_equilibrium_result_reports_stationary_conditions():
    system = two_channel_system()
    space = sum_zero_space()
    cfg = sum_zero_config()
    result = find_equilibrium(system, space, cfg, space.profile([0, 0]))
    # The winning profile closes the loop at zero: identity flow, so the
    # reference density is already stationary and every report is exact.
    assert result.rounds == 1
    assert result.stationary_entropy == pytest.approx(np.log(2.0), abs=1e-12)
    assert result.l1_to_stationary == (0.0, 0.0)
    assert result.fixed_point_residuals == (0.0, 0.0)
    assert result.entropy_condition_ok
    assert result.criterion.shape == (2,)
    assert np.array_equal(result.criterion, np.zeros(2))


def test_round_budget_exhaustion_reports_non_convergence():
    system = two_channel_system()
    space = sum_zero_space()
    cfg = sum_zero_config(max_rounds=1)
    result = find_equilibrium(system, space, cfg, space.profile([1, 1]))
    assert not result.converged
    assert result.rounds == 1
    assert result.history == ((1, 1), (0, 0))


def test_initial_profile_must_come_from_the_space():
    system = two_channel_system()
    space = sum_zero_space()
    cfg = sum_zero_config()
    foreign = two_channel_profile(-0.5, 0.4)
    with pytest.raises(ConfigurationError, match="not in the candidate list"):
        find_equilibrium(system, space, cfg, foreign)


def test_channel_count_mismatch_rejected():
    system = scalar_system()
    space = sum_zero_space()
    cfg = sum_zero_config()
    with pytest.raises(ConfigurationError, match="channels"):
        find_equilibrium(system, space, cfg, space.profile([0, 0]))


# ------------------------------------------------------------- verification

def test_verification_passes_at_the_equilibrium():
    system = two_channel_system()
    space = sum_zero_space()
    cfg = sum_zero_config()
    part = cfg.theta_ref.partition
    report = verify_equilibrium(
        system,
        space.profile([0, 0]),
        space,
        cfg,
        extra_densities=(tilted_density(part),),
    )
    assert report.condition1_ok and report.condition2_ok and report.condition3_ok
    assert report.condition1_margin <= 0.0
    assert report.condition2_margin == 0.0
    assert report.condition3_margin == 0.0
    assert report.stationary_entropy == pytest.approx(np.log(2.0), abs=1e-12)
    # Channel-1 switches to 0.25 or 0.5 turn the loop expanding and get
    # thrown out by leakage; they must be on the rejection list once each.
    assert {(j, k) for j, k, _ in report.rejected} == {(1, 1), (1, 2)}
    assert all("leak" in why for _, _, why in report.rejected)
    assert len(report.per_density) == 2


def test_verification_flags_a_non_equilibrium_profile():
    system = two_channel_system()
    space = sum_zero_space()
    cfg = sum_zero_config()
    report = verify_equilibrium(system, space.profile([0, 1]), space, cfg)
    # Switching channel 2 back to 0.5 reaches the score-zero identity loop,
    # so dominance fails; the deviation also raises the entropy far above
    # the near-point stationary density of the contracting loop.
    assert not report.condition1_ok
    assert report.condition1_margin > 0.1
    assert not report.condition3_ok
    assert report.condition3_margin > 1.0
    assert report.condition2_ok


def test_verification_with_a_single_candidate_is_vacuous():
    system = scalar_system()
    space = StrategySpace(((np.array([[-0.5]]),),))
    cfg = sum_zero_config()
    report = verify_equilibrium(system, space.profile([0]), space, cfg)
    assert report.condition1_ok
    assert report.condition1_margin == 0.0
    assert report.rejected == ()


# -------------------------------------------------- contraction and sampling

def test_ball_pairs_are_seeded_inside_the_ball_and_distinct():
    part = line_partition(32)
    theta0 = DensityVector.uniform(part)
    pairs, resamples = sample_ball_pairs(theta0, 0.5, 25, seed=11)
    again, _ = sample_ball_pairs(theta0, 0.5, 25, seed=11)
    assert len(pairs) == 25
    assert resamples >= 0
    for (a, b), (a2, b2) in zip(pairs, again):
        assert np.array_equal(a.values, a2.values)
        assert np.array_equal(b.values, b2.values)
        assert l1_distance(a, theta0) <= 0.5
        assert l1_distance(b, theta0) <= 0.5
        assert l1_distance(a, b) >= 1e-12
    with pytest.raises(ConfigurationError, match="beta"):
        sample_ball_pairs(theta0, 0.0, 5, seed=1)
    with pytest.raises(ConfigurationError, match="n_pairs"):
        sample_ball_pairs(theta0, 0.5, 0, seed=1)


def test_contraction_estimate_of_identity_is_exactly_one():
    system = scalar_system()
    space = StrategySpace(((np.array([[0.0]]),),))
    cfg = sum_zero_config()
    theta0 = DensityVector.uniform(cfg.theta_ref.partition)
    est = contraction_estimate(system, space, cfg, theta0, 0.5, 20, seed=3)
    assert est.kappa == 1.0
    assert est.drift == 0.0
    assert not est.ball_ok
    assert est.skipped_profiles == ()


def test_contraction_estimate_matches_dense_recomputation():
    system = scalar_system()
    space = StrategySpace(((np.array([[-0.4]]),),))
    part = line_partition(64)
    cfg = GameConfig(
        time_grid=(0.5, 1.0, 2.0),
        theta_ref=DensityVector.uniform(part),
        samples_per_cell=8,
    )
    profile = space.profile([0])
    P_max = build_ulam(
        part, flow_map(system, profile, 0.0, 2.0, cfg.integration_steps), 8
    )
    theta0 = stationary_density(P_max, cfg.theta_ref).density

    est = contraction_estimate(system, space, cfg, theta0, 0.5, 30, seed=7)

    # Dense recomputation with the same seeded pairs, raw matrix algebra.
    pairs, _ = sample_ball_pairs(theta0, 0.5, 30, seed=7)
    vol = part.cell_volume
    kappa = -np.inf
    drift = -np.inf
    for t in cfg.time_grid:
        fm = flow_map(system, profile, 0.0, float(t), cfg.integration_steps)
        P = build_ulam(part, fm, 8)
        push = lambda dv: P.entries.T @ (dv.values * vol)
        drift = max(drift, float(np.abs(push(theta0) - theta0.values * vol).sum()))
        for a, b in pairs:
            num = float(np.abs(push(a) - push(b)).sum())
            den = l1_distance(a, b)
            kappa = max(kappa, num / den)
    assert est.kappa == pytest.approx(kappa, abs=1e-9)
    assert est.kappa < 1.0
    # The two central cells absorb every contracting step, so the
    # stationary start does not drift at all.
    assert est.drift == 0.0
    assert drift == 0.0
    assert est.ball_ok


def test_contraction_estimate_skips_leaky_profiles():
    system = scalar_system()
    space = StrategySpace(((np.array([[-0.4]]), np.array([[0.6]])),))
    cfg = sum_zero_config()
    theta0 = DensityVector.uniform(cfg.theta_ref.partition)
    est = contraction_estimate(system, space, cfg, theta0, 0.5, 10, seed=5)
    skipped_combos = {combo for combo, _, _ in est.skipped_profiles}
    assert skipped_combos == {(1,)}
    all_leak = StrategySpace(((np.array([[0.6]]),),))
    with pytest.raises(EmptyStrategyError, match="rejected by leakage"):
        contraction_estimate(system, all_leak, cfg, theta0, 0.5, 10, seed=5)


# ---------------------------------------------------------------- decay trace

def test_decay_trace_on_the_stationary_density_is_flat_zero():
    system = scalar_system()
    profile = scalar_profile(-0.8)
    part = line_partition(64)
    cfg = GameConfig(
        time_grid=(0.5, 1.0),
        theta_ref=DensityVector.uniform(part),
        samples_per_cell=8,
    )
    P = build_ulam(part, flow_map(system, profile, 0.0, 1.0, 200), 8)
    theta_star = stationary_density(P, cfg.theta_ref).density
    trace = entropy_decay_trace(system, profile, [theta_star], (0.5, 1.0), cfg)
    assert trace.skipped == ()
    assert len(trace.rows) == 2
    for row in trace.rows:
        assert row.rel_entropy_to_stationary == 0.0
        assert row.entropy == pytest.approx(np.log(1.0 / 16.0), abs=1e-12)
    assert trace.stationary_entropy == pytest.approx(np.log(1.0 / 16.0), abs=1e-12)


def test_decay_trace_skips_densities_outside_the_stationary_support():
    system = scalar_system()
    profile = scalar_profile(-0.8)
    part = line_partition(64)
    cfg = GameConfig(
        time_grid=(0.5, 1.0),
        theta_ref=DensityVector.uniform(part),
        samples_per_cell=8,
    )
    with pytest.warns(RuntimeWarning, match="outside the stationary support"):
        trace = entropy_decay_trace(
            system, profile, [DensityVector.uniform(part)], (0.5, 1.0), cfg
        )
    assert trace.rows == ()
    assert len(trace.skipped) == 1
    idx, mass = trace.skipped[0]
    assert idx == 0
    # All but the two central cells of the uniform density sit outside.
    assert mass == pytest.approx(1.0 - 1.0 / 32.0, abs=1e-12)


def test_decay_trace_grid_validation():
    system = scalar_system()
    profile = scalar_profile(-0.8)
    cfg = sum_zero_config()
    theta = cfg.theta_ref
    with pytest.raises(ConfigurationError, match="t_grid"):
        entropy_decay_trace(system, profile, [theta], (), cfg)
    with pytest.raises(ConfigurationError, match="t_grid"):
        entropy_decay_trace(system, profile, [theta], (1.0, 0.5), cfg)
    with pytest.raises(ConfigurationError, match="t_grid"):
        entropy_decay_trace(system, profile, [theta], (0.0, 0.5), cfg)


# -------------------------------------------------------------------- cache

def test_operator_cache_builds_once_and_remembers_rejections(monkeypatch):
    calls = {"n": 0}
    real = game_mod.build_ulam

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(game_mod, "build_ulam", counting)
    system = scalar_system()
    cfg = sum_zero_config()
    cache = OperatorCache(system, cfg)

    good = scalar_profile(-0.5)
    P1 = cache.operator(good, 0.5)
    P2 = cache.operator(good, 0.5)
    assert P1 is P2
    assert calls["n"] == 1

    bad = scalar_profile(0.6)
    with pytest.raises(DomainEscapeError, match="leaks"):
        cache.operator(bad, 0.5)
    with pytest.raises(DomainEscapeError, match="leaks"):
        cache.operator(bad, 0.5)
    assert calls["n"] == 2


# ------------------------------------------------------------- config guard

def test_game_config_validation():
    part = line_partition(8)
    theta = DensityVector.uniform(part)
    with pytest.raises(ConfigurationError, match="time_grid"):
        GameConfig(time_grid=(), theta_ref=theta, samples_per_cell=4)
    with pytest.raises(ConfigurationError, match="time_grid"):
        GameConfig(time_grid=(0.0, 1.0), theta_ref=theta, samples_per_cell=4)
    with pytest.raises(ConfigurationError, match="time_grid"):
        GameConfig(time_grid=(1.0, 1.0), theta_ref=theta, samples_per_cell=4)
    with pytest.raises(ConfigurationError, match="tol"):
        GameConfig(time_grid=(1.0,), theta_ref=theta, samples_per_cell=4, tol=0.0)
    with pytest.raises(ConfigurationError, match="max_rounds"):
        GameConfig(
            time_grid=(1.0,), theta_ref=theta, samples_per_cell=4, max_rounds=0
        )


def test_strategy_space_validation():
    with pytest.raises(ConfigurationError, match="at least one channel"):
        StrategySpace(())
    with pytest.raises(ConfigurationError, match="has no candidates"):
        StrategySpace(((),))
    with pytest.raises(ConfigurationError, match="2-d gain"):
        StrategySpace(((np.array([0.5]),),))
    space = sum_zero_space()
    assert space.n_channels == 2
    assert space.index_of(1, np.array([[0.25]])) == 1
    assert space.index_of(2, np.array([[9.0]])) is None
    prof = space.profile([2, 1])
    assert np.array_equal(prof.gain(1).L, np.array([[0.5]]))
    assert np.array_equal(prof.gain(2).L, np.array([[-0.2]]))


def test_unilateral_deviations_skip_the_current_gain_in_channel_order():
    space = sum_zero_space()
    profile = space.profile((1, 0))
    deviations = game_mod._unilateral_deviations(profile, space)
    assert [(j, k) for j, k, _ in deviations] == [(1, 0), (1, 2), (2, 1), (2, 2)]
    for j, k, dev in deviations:
        assert np.array_equal(dev.gain(j).L, space.candidates[j - 1][k])
        other = 3 - j
        assert np.array_equal(dev.gain(other).L, profile.gain(other).L)
