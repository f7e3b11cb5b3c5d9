"""One operator cache per equilibrium run.

The search and the verification share an :class:`OperatorCache`, which
also memoises the stationary solve.  Sharing must change nothing but the
work done: every field of both results equals the one computed with a
fresh cache per call, leakage rejections included.
"""

import dataclasses
import json

import numpy as np
import pytest

import entrogame.cli as cli_mod
import entrogame.game as game_mod
import entrogame.transfer as transfer_mod
from entrogame import (
    ConfigurationError,
    NonConvergenceError,
    OperatorCache,
    best_response,
    criterion,
    find_equilibrium,
    verify_equilibrium,
)
from entrogame.config import load_scenario
from conftest import (
    scalar_profile,
    scalar_system,
    sum_zero_config,
    sum_zero_space,
    tilted_density,
    two_channel_system,
)


def bench_style_game(seed, leaky=False):
    """A 3-channel 2-D scenario shaped like the benchmark's ``game`` ops.

    Every gain is ``-c I`` with ``c`` spaced 0.1 apart per channel and the
    largest ``c`` listed first, so the search moves once and converges in
    two rounds.  ``leaky`` appends an expanding gain ``2 I`` to channel 3,
    which the leakage gate rejects at every grid time.
    """
    rng = np.random.default_rng([7, seed])
    A = rng.uniform(-0.02, 0.02, (2, 2))
    A[np.diag_indices(2)] = rng.uniform(-0.05, 0.0, 2)
    candidates = []
    for _ in range(3):
        c = rng.uniform(0.05, 0.08) + np.array([0.2, 0.1, 0.0]) + rng.uniform(-0.02, 0.02, 3)
        candidates.append([(-ck * np.eye(2)).tolist() for ck in c])
    if leaky:
        candidates[2].append((2.0 * np.eye(2)).tolist())
    times = sorted(rng.choice(np.arange(1, 7) * 0.25, 3, replace=False).tolist())
    eye = np.eye(2).tolist()
    return {
        "system": {
            "d": 2,
            "A": A.tolist(),
            "channels": [{"B": eye, "gains": c[0]} for c in candidates],
        },
        "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "cells_per_axis": [16, 16]},
        "ulam": {"samples_per_cell": 4},
        "game": {"time_grid": times, "candidates": candidates},
    }


def load(tmp_path, raw):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path, load_scenario(path)


def assert_same_search(a, b):
    assert [g.L.tolist() for g in a.profile.gains] == [g.L.tolist() for g in b.profile.gains]
    assert a.rounds == b.rounds
    assert a.converged == b.converged
    assert a.history == b.history
    assert np.array_equal(a.criterion, b.criterion)
    assert np.array_equal(a.stationary.values, b.stationary.values)
    assert a.stationary_entropy == b.stationary_entropy
    assert a.l1_to_stationary == b.l1_to_stationary
    assert a.fixed_point_residuals == b.fixed_point_residuals
    assert a.entropy_condition_ok == b.entropy_condition_ok


def assert_same_report(a, b):
    for n in (1, 2, 3):
        assert getattr(a, f"condition{n}_ok") == getattr(b, f"condition{n}_ok")
        assert getattr(a, f"condition{n}_margin") == getattr(b, f"condition{n}_margin")
    assert np.array_equal(a.stationary.values, b.stationary.values)
    assert a.stationary_entropy == b.stationary_entropy
    assert a.rejected == b.rejected
    assert [vars(p) for p in a.per_density] == [vars(p) for p in b.per_density]


def shared_and_independent(system, space, cfg, start, extra=()):
    cache = OperatorCache(system, cfg)
    found = find_equilibrium(system, space, cfg, start, cache=cache)
    report = verify_equilibrium(system, found.profile, space, cfg, extra, cache=cache)
    fresh = find_equilibrium(system, space, cfg, start)
    fresh_report = verify_equilibrium(system, fresh.profile, space, cfg, extra)
    assert_same_search(found, fresh)
    assert_same_report(report, fresh_report)
    return found, report


@pytest.mark.parametrize("start", [(0, 0), (1, 1), (2, 1)])
def test_shared_cache_equals_independent_caches_on_the_readme_game(start):
    system = two_channel_system()
    space = sum_zero_space()
    cfg = sum_zero_config()
    extra = (tilted_density(cfg.theta_ref.partition),)
    found, report = shared_and_independent(
        system, space, cfg, space.profile(list(start)), extra
    )
    assert found.converged
    assert [g.L[0, 0] for g in found.profile.gains] == [-0.5, 0.5]
    # Channel 1 moving to 0.25 or 0.5 expands the loop: both deviations
    # are leakage rejections, now read back from the shared cache.
    assert [(j, k) for j, k, _ in report.rejected] == [(1, 1), (1, 2)]
    assert all(why.startswith("leakage: profile ") for _, _, why in report.rejected)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("leaky", [False, True])
def test_shared_cache_equals_independent_caches_on_bench_style_games(tmp_path, seed, leaky):
    _, scenario = load(tmp_path, bench_style_game(seed, leaky))
    space = scenario.strategy_space()
    found, report = shared_and_independent(
        scenario.system, space, scenario.game_config(), scenario.profile
    )
    assert found.converged and found.rounds == 2
    assert [k for _, k, _ in report.rejected] == ([3] if leaky else [])


def test_cli_equilibrium_builds_each_operator_and_solves_once(tmp_path, monkeypatch):
    keys = set()
    built_keys = set()
    builds = []
    solves = []
    pushes = []
    scores = []
    operator = game_mod.OperatorCache.operator
    build = game_mod.build_ulam
    solve = game_mod.stationary_density
    push = game_mod.apply_fp
    score = game_mod.criterion

    def keyed_operator(self, profile, t):
        keys.add((profile.key(), float(t)))
        P = operator(self, profile, t)
        built_keys.add((profile.key(), float(t)))
        return P

    def counted_push(matrix, theta, renormalize=False):
        if renormalize:
            pushes.append(1)
        return push(matrix, theta, renormalize=renormalize)

    def kept_score(*args):
        scores.append(score(*args))
        return scores[-1]

    monkeypatch.setattr(game_mod.OperatorCache, "operator", keyed_operator)
    monkeypatch.setattr(game_mod, "build_ulam", lambda *a, **k: builds.append(1) or build(*a, **k))
    monkeypatch.setattr(
        game_mod, "stationary_density", lambda *a, **k: solves.append(1) or solve(*a, **k)
    )
    monkeypatch.setattr(game_mod, "apply_fp", counted_push)
    monkeypatch.setattr(game_mod, "criterion", kept_score)
    path, _ = load(tmp_path, bench_style_game(1, leaky=True))
    rc = cli_mod.main(["equilibrium", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "equilibrium.json").read_text())
    assert report["verification"]["rejected"]
    # Every distinct key is built once, the rejected ones included.
    assert len(builds) == len(keys)
    assert len(solves) == 1
    # The reference is pushed once through every operator that was built:
    # the score of a profile is memoised, not recomputed per channel or check.
    assert len(pushes) == len(built_keys) < len(keys)
    # A caller cannot write into the memo through criterion's result.
    assert scores and not any(vec.flags.writeable for vec in scores)


def test_search_and_verification_construct_each_operator_once(tmp_path, monkeypatch):
    requested = set()
    flows = []
    operator = game_mod.OperatorCache.operator
    construct = transfer_mod.UlamMatrix.__init__

    def keyed_operator(self, profile, t):
        requested.add((profile.key(), float(t)))
        return operator(self, profile, t)

    def counted_construct(self, partition, destinations, *args, **kwargs):
        flows.append(kwargs["flow_id"])
        construct(self, partition, destinations, *args, **kwargs)

    monkeypatch.setattr(game_mod.OperatorCache, "operator", keyed_operator)
    monkeypatch.setattr(transfer_mod.UlamMatrix, "__init__", counted_construct)
    _, scenario = load(tmp_path, bench_style_game(4))
    space = scenario.strategy_space()
    cfg = scenario.game_config()
    assert [len(c) for c in space.candidates] == [3, 3, 3] and len(cfg.time_grid) == 3
    cache = OperatorCache(scenario.system, cfg)
    found = find_equilibrium(scenario.system, space, cfg, scenario.profile, cache=cache)
    verify_equilibrium(scenario.system, found.profile, space, cfg, cache=cache)
    # Each distinct (profile, t) is constructed exactly once: the flow id
    # names the profile hash and the time.
    assert len(flows) == len(set(flows)) == len(requested)
    assert len(requested) == 3 * len({key for key, _ in requested})


def test_stationary_is_memoised_but_non_convergence_is_not(monkeypatch):
    solves = []
    solve = game_mod.stationary_density
    monkeypatch.setattr(
        game_mod, "stationary_density", lambda *a, **k: solves.append(1) or solve(*a, **k)
    )
    system = scalar_system()
    profile = scalar_profile(-0.5)
    cfg = sum_zero_config()
    settings = (cfg.theta_ref, cfg.stationary_tol)
    cache = OperatorCache(system, cfg)
    first = cache.stationary(profile, 1.0, *settings, cfg.stationary_max_iter)
    assert cache.stationary(profile, 1.0, *settings, cfg.stationary_max_iter) is first
    assert len(solves) == 1
    cache.stationary(profile, 0.5, *settings, cfg.stationary_max_iter)
    assert len(solves) == 2

    stubborn = OperatorCache(system, sum_zero_config(stationary_max_iter=1))
    for _ in range(2):
        with pytest.raises(NonConvergenceError):
            stubborn.stationary(profile, 1.0, *settings, 1)
    assert len(solves) == 4


def test_a_cache_bound_elsewhere_is_refused():
    system = two_channel_system()
    space = sum_zero_space()
    cfg = sum_zero_config()
    start = space.profile([0, 0])
    for cache in (
        OperatorCache(two_channel_system(), cfg),
        OperatorCache(system, sum_zero_config(cells=32)),
        OperatorCache(system, dataclasses.replace(cfg, samples_per_cell=4)),
        OperatorCache(system, sum_zero_config(leak_tol=0.2)),
        OperatorCache(system, sum_zero_config(integration_steps=100)),
    ):
        with pytest.raises(ConfigurationError, match="cache"):
            find_equilibrium(system, space, cfg, start, cache=cache)
        with pytest.raises(ConfigurationError, match="cache"):
            verify_equilibrium(system, start, space, cfg, cache=cache)
        with pytest.raises(ConfigurationError, match="cache"):
            criterion(system, start, cfg, cache)
        with pytest.raises(ConfigurationError, match="cache"):
            best_response(system, start, 1, space, cfg, cache)


def test_a_cache_bound_to_equal_build_values_is_shared():
    # The cache is bound by value: a config with the same build values and
    # reference but another time grid and solver settings shares it, and
    # every memo keys on what its result depends on, so results equal those
    # of a new cache.
    system = two_channel_system()
    space = sum_zero_space()
    start = space.profile([1, 1])
    cfg = sum_zero_config()
    other = dataclasses.replace(cfg, time_grid=(0.25, 1.0), stationary_tol=1e-12)
    cache = OperatorCache(system, other)
    find_equilibrium(system, space, other, start, cache=cache)
    found = find_equilibrium(system, space, cfg, start, cache=cache)
    report = verify_equilibrium(system, found.profile, space, cfg, cache=cache)
    assert_same_search(found, find_equilibrium(system, space, cfg, start))
    assert_same_report(report, verify_equilibrium(system, found.profile, space, cfg))
    assert np.array_equal(
        criterion(system, found.profile, cfg, cache), criterion(system, found.profile, cfg)
    )
    # One operator solved under three solver settings gives three solves.
    slow = space.profile([0, 2])
    settings = [(1e-6, False), (1e-10, False), (1e-6, True)]
    shared = [cache.stationary(slow, 1.0, cfg.theta_ref, tol, 5000, c) for tol, c in settings]
    fresh = [
        OperatorCache(system, cfg).stationary(slow, 1.0, cfg.theta_ref, tol, 5000, c)
        for tol, c in settings
    ]
    assert [s.iterations for s in shared] == [s.iterations for s in fresh]
    assert len({s.iterations for s in shared}) == 3
