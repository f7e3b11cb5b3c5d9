"""The batched stochastic build against the per-cell path loop it replaced,
one pass over the noise streams for every build of a resilience report, and
path divergence reports naming their step and cell."""

import numpy as np
import pytest

import entrogame.perturb as perturb_mod
from entrogame import (
    DensityVector,
    DivergenceError,
    DomainEscapeError,
    FeedbackGain,
    FeedbackProfile,
    GameConfig,
    MultiChannelSystem,
    NoiseSpec,
    Partition,
    ScheduleSegment,
    SdePathConfig,
    StrategySpace,
    apply_fp,
    build_stochastic_ulam,
    ensemble_endpoints,
    resilience_report,
)
from entrogame.game import OperatorCache, _unilateral_deviations
from entrogame.perturb import ResilienceEntry
from entrogame.transfer import ulam_from_destinations
from conftest import (
    line_partition,
    scalar_profile,
    scalar_system,
    start_offsets,
    step_drifts,
    tilted_density,
)
from test_closed_form_paths import random_system


def per_cell_paths(system, profile, noise, eps, starts, h, n_steps, seed, cell):
    """One cell's Euler-Maruyama endpoints, as the per-cell build ran them:
    chunks of at most ``_CHUNK_ENTRIES`` noise entries within the cell and a
    fresh Philox generator per path."""
    n, d = starts.shape
    drifts = step_drifts(system, profile, h, n_steps)
    noisy = eps > 0 and np.any(noise.sigma != 0.0)
    scale_t = np.ascontiguousarray((np.sqrt(eps * h) * noise.sigma).T)
    ends = np.empty((n, d))
    chunk = max(1, min(n, perturb_mod._CHUNK_ENTRIES // max(1, n_steps * d)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        Z = starts[lo:hi].copy()
        if noisy:
            xi = np.empty((hi - lo, n_steps, d))
            for p in range(lo, hi):
                key = np.array([seed, (cell << 32) | p], dtype=np.uint64)
                gen = np.random.Generator(np.random.Philox(key=key))
                xi[p - lo] = gen.standard_normal((n_steps, d))
        for k in range(n_steps):
            Z = Z + (Z @ drifts[k]) * h
            if noisy:
                Z = Z + xi[:, k, :] @ scale_t
            if not np.all(np.isfinite(Z)):
                raise DivergenceError(f"reference diverged at step {k + 1}", step=k + 1)
        ends[lo:hi] = Z
    return ends


def per_cell_matrix(partition, system, profile, noise, eps, t, path_cfg):
    """The stochastic build with one path loop per cell, in cell order."""
    n_steps = max(1, int(round(t / path_cfg.h)))
    h = t / n_steps
    n_paths = path_cfg.n_paths
    offsets = start_offsets(partition, n_paths)
    corners = partition.lower + partition.multi_indices() * partition.widths
    dest = np.empty((partition.cell_count, n_paths), dtype=np.int64)
    for i, corner in enumerate(corners):
        ends = per_cell_paths(
            system, profile, noise, eps, corner + offsets, h, n_steps, path_cfg.seed, i
        )
        dest[i] = partition.locate(ends)
    return ulam_from_destinations(
        partition, dest, leak_tol=1.0, escape_message="", t0=0.0, t1=float(t)
    )


def random_case(rng):
    d = int(rng.integers(1, 3))

    def coefficients():
        A = rng.normal(0.0, 1.0, (d, d)) - rng.uniform(0.0, 2.0) * np.eye(d)
        return A, (rng.normal(0.0, 0.7, (d, 1)),)

    A, B = coefficients()
    schedule = ()
    if rng.random() < 0.5:
        starts = np.sort(rng.uniform(0.01, 0.4, size=int(rng.integers(1, 4))))
        schedule = (ScheduleSegment(0.0, A, B),) + tuple(
            ScheduleSegment(float(s), *coefficients()) for s in starts
        )
    system = MultiChannelSystem(A=A, B=B, schedule=schedule)
    profile = FeedbackProfile((FeedbackGain(1, rng.normal(0.0, 0.5, (1, d))),))
    cells = rng.integers(2, 9 if d == 1 else 5, size=d)
    partition = Partition(np.full(d, -1.5), np.full(d, 1.5), cells)
    noise = NoiseSpec(sigma=rng.normal(0.0, 1.0, (d, d)), epsilon_list=(0.1,))
    eps = float(rng.choice([0.0, rng.uniform(0.001, 0.3)]))
    t = float(rng.uniform(0.05, 0.5))
    path_cfg = SdePathConfig(
        h=float(rng.uniform(0.01, 0.05)),
        n_steps=1,
        n_paths=int(rng.integers(100, 131)),
        seed=int(rng.integers(0, 2**40)),
    )
    return partition, system, profile, noise, eps, t, path_cfg


def assert_same_counts(got, expected):
    for name in ("rows", "cols", "hits", "escaped"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


@pytest.mark.parametrize("seed", range(12))
def test_batched_build_matches_the_per_cell_loop(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        partition, system, profile, noise, eps, t, path_cfg = random_case(rng)
        n_steps = max(1, int(round(t / path_cfg.h)))
        # Chunks of 1 to 150 rows: most of them split a cell's paths.
        rows = int(rng.integers(1, 151))
        monkeypatch.setattr(perturb_mod, "_CHUNK_ENTRIES", rows * n_steps * partition.dim)
        expected = per_cell_matrix(partition, system, profile, noise, eps, t, path_cfg)
        got = build_stochastic_ulam(
            partition, system, profile, noise, eps, t, path_cfg, leak_tol=1.0
        )
        assert_same_counts(got, expected)


def test_batched_build_matches_the_per_cell_loop_in_one_chunk():
    rng = np.random.default_rng(99)
    for _ in range(4):
        partition, system, profile, noise, eps, t, path_cfg = random_case(rng)
        expected = per_cell_matrix(partition, system, profile, noise, eps, t, path_cfg)
        got = build_stochastic_ulam(
            partition, system, profile, noise, eps, t, path_cfg, leak_tol=1.0
        )
        assert_same_counts(got, expected)


# -------------------------------------------------------- shared noise


def resilience_case(time_grid):
    system = scalar_system()
    profile = scalar_profile(-2.0)
    part = line_partition(16)
    cfg = GameConfig(
        time_grid=time_grid,
        theta_ref=DensityVector.uniform(part),
        samples_per_cell=4,
    )
    path_cfg = SdePathConfig(h=0.01, n_steps=1, n_paths=120, seed=5)
    thetas = [DensityVector.uniform(part), tilted_density(part)]
    space = StrategySpace(((np.array([[-2.0]]), np.array([[-1.0]]), np.array([[-1.5]])),))
    noise = NoiseSpec(sigma=np.array([[1.0]]), epsilon_list=(0.1, 0.05, 0.0))
    return system, profile, noise, cfg, path_cfg, thetas, space


def per_build_rows(system, profile, noise, cfg, path_cfg, thetas, space, kl_floor):
    """The report's equilibrium and deviation rows from one
    ``build_stochastic_ulam`` call per noisy (eps, t, profile)."""
    cache = OperatorCache(system, cfg)
    profiles = [("equilibrium", profile)] + [
        (f"deviation:j={j},k={k}", dev) for j, k, dev in _unilateral_deviations(profile, space)
    ]
    entries, deviation_entries = [], []
    for eps in noise.epsilon_list:
        for t in cfg.time_grid:
            if eps == 0.0:
                entries += [ResilienceEntry(eps, t, i, 0.0, 0.0, 0.0) for i in range(len(thetas))]
                continue
            det = cache.operator(profile, t)
            for label, swept in profiles:
                P = build_stochastic_ulam(
                    cfg.theta_ref.partition, system, swept, noise, eps, t, path_cfg,
                    leak_tol=cfg.leak_tol,
                )
                rows = entries if swept is profile else deviation_entries
                for i, theta in enumerate(thetas):
                    l1, rel, violation = perturb_mod._compare(
                        apply_fp(P, theta, renormalize=True),
                        apply_fp(det, theta, renormalize=True),
                        kl_floor,
                    )
                    rows.append(ResilienceEntry(eps, t, i, l1, rel, violation, profile_id=label))
    return entries, deviation_entries


@pytest.mark.parametrize(
    "time_grid, chunk_rows, shared_draws",
    [
        # One grid time, one chunk: every build reads the same normals.
        ((0.5,), None, 1),
        # Two grid times: the shorter horizon reads a prefix of each stream.
        ((0.5, 1.0), None, 1),
        # Three chunks: each is drawn once for all builds.
        ((0.5,), 700, 3),
    ],
)
def test_shared_noise_report_equals_independent_builds(
    monkeypatch, time_grid, chunk_rows, shared_draws
):
    system, profile, noise, cfg, path_cfg, thetas, space = resilience_case(time_grid)
    if chunk_rows is not None:
        monkeypatch.setattr(perturb_mod, "_CHUNK_ENTRIES", chunk_rows * 50)
    draws = []
    draw = perturb_mod._draw_normals
    monkeypatch.setattr(
        perturb_mod, "_draw_normals", lambda *a: draws.append(a) or draw(*a)
    )

    shared = resilience_report(
        system, profile, noise, cfg, path_cfg, thetas,
        kl_floor=1e-12, with_deviations=True, space=space,
    )
    n_shared = len(draws)
    draws.clear()
    entries, deviation_entries = per_build_rows(
        system, profile, noise, cfg, path_cfg, thetas, space, 1e-12
    )

    assert shared.entries == tuple(entries)
    assert shared.deviation_entries == tuple(deviation_entries)
    assert len(shared.deviation_entries) == 2 * len(time_grid) * 2 * 2
    assert n_shared == shared_draws
    # Independent builds draw every chunk of each of the 2 x 3 noisy builds
    # per grid time.
    chunks = 1 if chunk_rows is None else -(-16 * 120 // chunk_rows)
    assert len(draws) == 2 * len(time_grid) * 3 * chunks


def test_fewer_steps_read_a_prefix_of_the_streams():
    longer = perturb_mod._draw_normals(3, 0, 100, 0, 10, 6, 1)
    assert np.array_equal(longer[:, :5], perturb_mod._draw_normals(3, 0, 100, 0, 10, 5, 1))


@pytest.mark.parametrize("seed", range(6))
def test_one_pass_jobs_equal_one_job_calls(monkeypatch, seed):
    rng = np.random.default_rng(700 + seed)
    d = int(rng.integers(1, 4))
    system, _, noise = random_system(rng, d, int(rng.integers(1, 4)))
    jobs = [
        (
            FeedbackProfile((FeedbackGain(1, rng.normal(0.0, 0.3, (1, d))),)),
            eps,
            float(rng.uniform(0.005, 0.05)),
            int(rng.integers(1, 60)),
        )
        for eps in [0.0, float(rng.uniform(0.001, 0.3))]
        + [float(rng.choice([0.0, rng.uniform(0.001, 0.3)])) for _ in range(int(rng.integers(1, 4)))]
    ]
    per_cell, first_cell = int(rng.integers(1, 9)), int(rng.integers(0, 5))
    n = 3 * int(rng.integers(2, 12)) + 1
    starts = rng.uniform(-1.5, 1.5, (n, d))
    path_seed = int(rng.integers(0, 2**40))
    single = [
        next(perturb_mod._integrate_paths(
            system, noise, starts, [job], path_seed, per_cell, first_cell
        ))
        for job in jobs
    ]
    draws = []
    draw = perturb_mod._draw_normals
    monkeypatch.setattr(
        perturb_mod, "_draw_normals", lambda *a: draws.append(a) or draw(*a)
    )
    longest = max(n_steps for *_, n_steps in jobs)
    # Chunks of 1, 2 and 3 rows; n is odd and not a multiple of 3, so the
    # last chunk is short.
    for rows in (1, 2, 3):
        monkeypatch.setattr(perturb_mod, "_CHUNK_ENTRIES", rows * longest * d)
        draws.clear()
        results = list(perturb_mod._integrate_paths(
            system, noise, starts, jobs, path_seed, per_cell, first_cell
        ))
        assert len(draws) == -(-n // rows)
        assert {a[5] for a in draws} == {longest}
        assert len(results) == len(jobs)
        for ends, expected in zip(results, single):
            assert np.array_equal(ends, expected)


# ----------------------------------------------------------- divergence


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_stochastic_build_divergence_names_the_earliest_step_and_its_cell(
    monkeypatch, eps
):
    # The loop grows by 1.5 per step.  On [-1, 3] the rightmost cells start
    # farthest from 0 and overflow a few steps first, though they come last
    # in cell order and in the last chunk.
    system = scalar_system(a=5.0)
    profile = scalar_profile(0.0)
    part = line_partition(8, -1.0, 3.0)
    noise = NoiseSpec(sigma=np.array([[1.0]]), epsilon_list=(0.1,))
    path_cfg = SdePathConfig(h=0.1, n_steps=1, n_paths=100, seed=1)
    offsets = start_offsets(part, 100)
    corners = part.lower + part.multi_indices() * part.widths
    cell_steps = []
    for i, corner in enumerate(corners):
        with pytest.raises(DivergenceError) as err:
            per_cell_paths(system, profile, noise, eps, corner + offsets, 0.1, 2500, 1, i)
        cell_steps.append(err.value.step)
    step = min(cell_steps)
    cell = cell_steps.index(step)
    assert cell > 0 and cell_steps[0] > step
    for chunk_rows in (None, 100, 37):
        if chunk_rows is not None:
            monkeypatch.setattr(perturb_mod, "_CHUNK_ENTRIES", chunk_rows * 2500)
        with pytest.raises(DivergenceError) as err:
            build_stochastic_ulam(part, system, profile, noise, eps, 250.0, path_cfg)
        assert (err.value.step, err.value.cell) == (step, cell)
        assert f"at step {step} in cell {cell}" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_ensemble_divergence_names_step_and_cell():
    system = scalar_system(a=1000.0)
    profile = scalar_profile(0.0)
    noise = NoiseSpec(sigma=np.array([[1.0]]), epsilon_list=(0.1,))
    cfg = SdePathConfig(h=0.1, n_steps=200, n_paths=30, seed=4)
    x0 = np.array([0.5])
    starts = np.broadcast_to(x0, (30, 1)).copy()
    with pytest.raises(DivergenceError) as expected:
        per_cell_paths(system, profile, noise, 0.1, starts, 0.1, 200, 4, 5)
    with pytest.raises(DivergenceError) as err:
        ensemble_endpoints(system, profile, noise, 0.1, x0, cfg, cell=5)
    assert err.value.step == expected.value.step
    assert err.value.cell == 5
    assert "in cell 5" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_sweep_raises_the_first_failing_build():
    # The loop grows by 1.5 (gain 0) or 1.8 (gain 3) per step.  At t = 0.5
    # the paths leave the box without overflowing; at t = 250 they overflow,
    # the faster loop at an earlier step.
    system = scalar_system(a=5.0)
    slow, fast = scalar_profile(0.0), scalar_profile(3.0)
    part = line_partition(8, -1.0, 3.0)
    noise = NoiseSpec(sigma=np.array([[1.0]]), epsilon_list=(0.1,))
    path_cfg = SdePathConfig(h=0.1, n_steps=1, n_paths=100, seed=1)

    def failure(builds):
        with pytest.raises((DivergenceError, DomainEscapeError)) as err:
            list(perturb_mod._stochastic_ulams(part, system, noise, builds, path_cfg, 0.05))
        return err.value

    def alone(profile, t):
        return failure([(profile, 0.1, t)])

    leak = alone(slow, 0.5)
    assert isinstance(leak, DomainEscapeError)
    got = failure([(slow, 0.1, 0.5), (fast, 0.1, 250.0)])
    assert type(got) is DomainEscapeError and str(got) == str(leak)

    late, early = alone(slow, 250.0), alone(fast, 250.0)
    assert isinstance(late, DivergenceError) and early.step < late.step
    got = failure([(slow, 0.1, 250.0), (fast, 0.1, 250.0), (slow, 0.1, 0.5)])
    assert isinstance(got, DivergenceError)
    assert (got.step, got.cell, str(got)) == (late.step, late.cell, str(late))
