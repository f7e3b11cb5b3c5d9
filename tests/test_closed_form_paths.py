"""The closed-form Euler-Maruyama engine (path scheme 2) against the per-step
loop it replaced: the segment plan's drift per step, endpoint agreement,
destinations that change cell, trajectories read from prefixes of the
segment arrays, chunk invariance at state dimensions 4 and 5, the walk kept
when the closed-form powers overflow, vectorised stream words and the
``path_scheme`` key."""

import json

import numpy as np
import pytest

import entrogame.perturb as perturb_mod
from entrogame import (
    ConfigurationError,
    FeedbackGain,
    FeedbackProfile,
    MultiChannelSystem,
    NoiseSpec,
    Partition,
    ScheduleSegment,
    SdePathConfig,
    ensemble_endpoints,
    simulate_sde,
)
from conftest import start_offsets, step_drifts
from test_cli import resilience_scenario, run


def step_loop(system, profile, noise, eps, starts, h, n_steps, seed, per_cell):
    """Endpoints of path scheme 1: every row stepped through the recursion
    ``Z <- Z + (Z M^T) h + xi S`` one step at a time, in one batch."""
    n, d = starts.shape
    drifts = step_drifts(system, profile, h, n_steps)
    noisy = eps > 0 and np.any(noise.sigma != 0.0)
    scale_t = np.ascontiguousarray((np.sqrt(eps * h) * noise.sigma).T)
    if noisy:
        xi = perturb_mod._draw_normals(seed, 0, per_cell, 0, n, n_steps, d)
    Z = starts.copy()
    for k in range(n_steps):
        Z = Z + (Z @ drifts[k]) * h
        if noisy:
            Z = Z + xi[:, k, :] @ scale_t
    return Z


def random_system(rng, d, breakpoints):
    """A stable closed loop of dimension ``d`` with 0-3 schedule breakpoints."""

    def coefficients():
        A = rng.normal(0.0, 0.5, (d, d)) - 1.5 * np.eye(d)
        return A, (rng.normal(0.0, 0.5, (d, 1)),)

    A, B = coefficients()
    schedule = ()
    if breakpoints:
        starts = np.sort(rng.uniform(0.01, 0.6, size=breakpoints))
        schedule = (ScheduleSegment(0.0, A, B),) + tuple(
            ScheduleSegment(float(s), *coefficients()) for s in starts
        )
    system = MultiChannelSystem(A=A, B=B, schedule=schedule)
    profile = FeedbackProfile((FeedbackGain(1, rng.normal(0.0, 0.3, (1, d))),))
    noise = NoiseSpec(sigma=rng.normal(0.0, 1.0, (d, d)), epsilon_list=(0.1,))
    return system, profile, noise


def random_run(rng, d=None):
    d = int(rng.integers(1, 5)) if d is None else d
    system, profile, noise = random_system(rng, d, int(rng.integers(0, 4)))
    eps = float(rng.choice([0.0, rng.uniform(0.001, 0.3)]))
    h = float(rng.uniform(0.005, 0.05))
    n_steps = int(rng.integers(1, 120))
    return system, profile, noise, eps, h, n_steps


def random_breakpoints(rng, h, n_steps):
    """Up to six breakpoints after 0: on an exact multiple of ``h``, one ulp
    to either side of one, anywhere in the horizon, or several inside one
    step."""
    points = set()
    for _ in range(int(rng.integers(0, 7))):
        k = int(rng.integers(1, n_steps + 2))
        kind = int(rng.integers(4))
        if kind == 0:
            points.add(k * h)
        elif kind == 1:
            points.add(float(np.nextafter(k * h, rng.choice([-np.inf, np.inf]))))
        elif kind == 2:
            points.add(float(rng.uniform(0.0, n_steps * h)))
        else:
            points.update((k - 1) * h + rng.uniform(0.0, h, int(rng.integers(2, 5))))
    return sorted(float(b) for b in points if b > 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_plan_matches_the_per_step_drift_loop(seed):
    rng = np.random.default_rng(900 + seed)
    for _ in range(250):
        d = int(rng.integers(1, 3))
        h = float(rng.choice([0.1, 0.01, 0.05, rng.uniform(0.001, 0.2)]))
        n_steps = int(rng.integers(1, 80))

        def segment(start):
            B = (rng.normal(0.0, 1.0, (d, 1)),)
            return ScheduleSegment(start, rng.normal(0.0, 1.0, (d, d)), B)

        breaks = random_breakpoints(rng, h, n_steps)
        first = segment(0.0)
        schedule = (first, *map(segment, breaks)) if breaks or rng.integers(2) else ()
        system = MultiChannelSystem(A=first.A, B=first.B, schedule=schedule)
        profile = FeedbackProfile((FeedbackGain(1, rng.normal(0.0, 1.0, (1, d))),))
        noise = NoiseSpec(sigma=np.eye(d), epsilon_list=(0.1,))

        _, _, runs = perturb_mod._plan(system, profile, noise, 0.1, d, h, n_steps)
        expected = step_drifts(system, profile, h, n_steps)
        assert [k0 for _, k0, _ in runs] == [
            k for k in range(n_steps) if k == 0 or expected[k] is not expected[k - 1]
        ]
        planned = [mat_t for mat_t, _, m in runs for _ in range(m)]
        assert len(planned) == n_steps
        assert all(np.array_equal(a, b) for a, b in zip(planned, expected))


@pytest.mark.parametrize("seed", range(8))
def test_closed_form_endpoints_match_the_step_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        system, profile, noise, eps, h, n_steps = random_run(rng)
        n = int(rng.integers(1, 60))
        starts = rng.uniform(-1.5, 1.5, (n, system.dim))
        path_seed = int(rng.integers(0, 2**40))
        expected = step_loop(system, profile, noise, eps, starts, h, n_steps, path_seed, 7)
        (got,) = perturb_mod._integrate_paths(
            system, noise, starts, [(profile, eps, h, n_steps)], path_seed, 7
        )
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_stochastic_build_destinations_that_change_cell(capsys):
    # Endpoints move by ulps, so a destination may change cell only if the
    # old endpoint lies within that distance of a cell face.
    rng = np.random.default_rng(2024)
    changed = total = 0
    for _ in range(40):
        d = int(rng.integers(1, 3))
        system, profile, noise = random_system(rng, d, int(rng.integers(0, 3)))
        part = Partition(np.full(d, -1.5), np.full(d, 1.5), rng.integers(4, 17, size=d))
        offsets = start_offsets(part, 100)
        corners = part.lower + part.multi_indices() * part.widths
        starts = (corners[:, None, :] + offsets[None, :, :]).reshape(-1, d)
        eps = float(rng.choice([0.0, rng.uniform(0.001, 0.3)]))
        h = float(rng.uniform(0.005, 0.05))
        n_steps = int(rng.integers(10, 100))
        path_seed = int(rng.integers(0, 2**40))
        old = step_loop(system, profile, noise, eps, starts, h, n_steps, path_seed, 100)
        (new,) = perturb_mod._integrate_paths(
            system, noise, starts, [(profile, eps, h, n_steps)], path_seed, 100
        )
        moved = part.locate(old) != part.locate(new)
        faces = part.lower + np.round((old - part.lower) / part.widths) * part.widths
        near_face = np.any(np.abs(old - faces) <= 1e-12, axis=1)
        assert np.all(near_face[moved])
        changed += int(moved.sum())
        total += len(moved)
    with capsys.disabled():
        print(f"\nclosed-form paths: {changed} of {total} build destinations changed cell")


@pytest.mark.parametrize("seed", range(4))
def test_trajectory_rows_are_the_endpoints_of_each_prefix(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(3):
        system, profile, noise, eps, h, n_steps = random_run(rng, d=int(rng.integers(1, 4)))
        if seed % 2:
            eps = 0.2
        n_steps = min(n_steps, 40)
        path, cell = int(rng.integers(0, 4)), int(rng.integers(0, 3))
        x0 = rng.uniform(-1.0, 1.0, system.dim)
        cfg = SdePathConfig(h=h, n_steps=n_steps, n_paths=1, seed=seed)
        traj = simulate_sde(system, profile, noise, eps, x0, cfg, path=path, cell=cell)
        assert np.array_equal(traj[0], x0)
        for k in range(1, n_steps + 1):
            prefix = SdePathConfig(h=h, n_steps=k, n_paths=4, seed=seed)
            ends = ensemble_endpoints(system, profile, noise, eps, x0, prefix, cell=cell)
            assert np.array_equal(ends[path], traj[k])


@pytest.mark.parametrize("d", [4, 5])
def test_one_row_chunks_equal_the_whole_batch(monkeypatch, d):
    rng = np.random.default_rng(d)
    cases = []
    for _ in range(100):
        system, profile, noise, eps, h, n_steps = random_run(rng, d=d)
        x0 = rng.uniform(-1.0, 1.0, d)
        cfg = SdePathConfig(h=h, n_steps=min(n_steps, 40), n_paths=5, seed=int(rng.integers(0, 99)))
        whole = ensemble_endpoints(system, profile, noise, eps, x0, cfg)
        cases.append((system, profile, noise, eps, x0, cfg, whole))
    for system, profile, noise, eps, x0, cfg, whole in cases:
        monkeypatch.setattr(perturb_mod, "_CHUNK_ENTRIES", cfg.n_steps * d)
        one_row = ensemble_endpoints(system, profile, noise, eps, x0, cfg)
        assert np.array_equal(one_row, whole)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_walk_is_kept_when_the_closed_form_powers_overflow(eps):
    # The first axis expands by 1e4 per step, so its powers overflow, but no
    # path ever leaves zero on it: starts are 0 there and noise enters only
    # the second, contracting axis.
    A = np.array([[1e5, 0.0], [0.0, -1.0]])
    system = MultiChannelSystem(A=A, B=(np.zeros((2, 1)),))
    profile = FeedbackProfile((FeedbackGain(1, np.zeros((1, 2))),))
    noise = NoiseSpec(sigma=np.diag([0.0, 1.0]), epsilon_list=(0.1,))
    cfg = SdePathConfig(h=0.1, n_steps=120, n_paths=6, seed=3)
    x0 = np.array([0.0, 0.5])
    powers, _ = perturb_mod._segment_operators(
        np.ascontiguousarray(A.T), np.eye(2), 0.1, 120, False
    )
    assert not np.all(np.isfinite(powers))

    ends = ensemble_endpoints(system, profile, noise, eps, x0, cfg)
    starts = np.broadcast_to(x0, (6, 2)).copy()
    expected = step_loop(system, profile, noise, eps, starts, 0.1, 120, 3, 6)
    assert np.array_equal(ends, expected)
    assert np.all(ends[:, 0] == 0.0) and np.all(np.isfinite(ends))

    traj = simulate_sde(system, profile, noise, eps, x0, cfg, path=2)
    assert np.array_equal(traj[-1], ends[2])
    assert np.all(np.isfinite(traj)) and np.all(traj[:, 0] == 0.0)


@pytest.mark.parametrize(
    "seed, first_cell, per_cell, lo, hi",
    [(0, 0, 100, 0, 7), (5, 3, 4, 2, 11), (2**63 + 1, 2**32 - 2, 3, 1, 8), (9, 0, 2**32 - 1, 2**32 - 3, 2**32 + 2)],
)
def test_vectorised_stream_words_read_the_same_streams(seed, first_cell, per_cell, lo, hi):
    last_cell = first_cell + (hi - 1) // per_cell
    if last_cell >= 2**32:
        # That cell's key word would wrap onto another cell's stream.
        with pytest.raises(ConfigurationError, match=f"cell {last_cell}: stream indices"):
            perturb_mod._draw_normals(seed, first_cell, per_cell, lo, hi, 6, 2)
        hi = (2**32 - first_cell) * per_cell
    xi = perturb_mod._draw_normals(seed, first_cell, per_cell, lo, hi, 6, 2)
    assert xi.shape == (hi - lo, 6, 2)
    for r in range(lo, hi):
        cell, path = first_cell + r // per_cell, r % per_cell
        key = np.array([seed, cell << 32 | path], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).standard_normal((6, 2))
        assert np.array_equal(xi[r - lo], expected)


def test_noisy_artifacts_record_the_path_scheme(tmp_path):
    rc, out, _ = run(tmp_path, "perturb")
    assert rc == 0
    meta = json.loads((out / "perturb_stats.json").read_text())
    assert meta["path_scheme"] == perturb_mod.PATH_SCHEME == 2
    assert "path_scheme" not in meta["provenance"]
    rc, out, _ = run(tmp_path, "resilience", resilience_scenario(), outdir="res")
    assert rc == 0
    report = json.loads((out / "resilience.json").read_text())
    assert report["path_scheme"] == 2
    assert "path_scheme" not in report["provenance"]

