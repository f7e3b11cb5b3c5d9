"""Small-noise perturbation of the closed loop and resilience reporting.

The perturbed state follows ``dZ = M(t) Z dt + sqrt(eps) sigma dW`` with
the closed-loop drift ``M``.  Paths follow the explicit Euler-Maruyama
scheme.  Every path draws its normals from a counter-based Philox stream
keyed by ``(seed, cell, path)``, with cell and path each in
``0 .. 2**32 - 1``; the step index is the position in that stream.  All
draws go through one reader, :func:`_draw_normals`.  Draws therefore never
depend on scheduling or batching, so ensembles, grid-operator builds and
full resilience reports are bit-identical for any thread count.

Every path of a horizon follows one segment plan (:func:`_plan`): the runs
of steps with equal drift, found from the schedule breakpoints in one
search.  Within a run the drift is constant and the noise additive, so the
Euler-Maruyama recursion is affine in the normals: it is the discrete
Ornstein-Uhlenbeck (AR(1)) recursion, and a run's exit state is evaluated
in closed form from the powers of its step matrix instead of step by step
(path scheme 2).  Every row is reduced on its own, so a path's endpoint
does not depend on the batch or chunk it is computed in.  The per-step
loop remains as the diagnostic walk over the same runs that names the step
and cell of a divergence.

The perturbed grid operator is a Monte Carlo variant of the deterministic
cell-counting build: at least 100 paths per cell start on a stratified
in-cell pattern and row entries count endpoint destinations.  The paths of
all cells are integrated as one batch, in chunks bounded by
``_CHUNK_ENTRIES`` noise entries.  The draws depend on neither the noise
amplitude, the gain profile nor the horizon, so every build of a resilience
report, and every epsilon of an ensemble sweep, is integrated in one pass
over the chunks: each chunk's normals are drawn once, at the longest step
count, and shorter horizons read a prefix of the same streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import relative_entropy
from .errors import ConfigurationError, DivergenceError
from .game import OperatorCache, _unilateral_deviations
from .system import closed_loop_matrix
from .transfer import (
    DensityVector,
    UlamMatrix,
    apply_fp,
    l1_distance,
    stationary_density,
)

__all__ = [
    "NoiseSpec",
    "SdePathConfig",
    "ResilienceEntry",
    "ResilienceReport",
    "simulate_sde",
    "ensemble_endpoints",
    "ensemble_sweep",
    "build_stochastic_ulam",
    "perturbed_stationary",
    "resilience_report",
]

_MIN_PATHS_PER_CELL = 100
# Version of the path arithmetic; written into the noisy commands' artifacts.
PATH_SCHEME = 2
# Noise block memory cap per integration chunk, in float64 entries.
_CHUNK_ENTRIES = 8_000_000


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Constant diffusion matrix and the noise amplitudes to sweep.

    ``epsilon_list`` must be strictly decreasing and nonnegative; a final
    zero entry requests the exact deterministic reference rows in
    resilience reports.
    """

    sigma: np.ndarray
    epsilon_list: tuple

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ConfigurationError(
                f"sigma: expected a square matrix, got shape {sigma.shape}"
            )
        if not np.all(np.isfinite(sigma)):
            raise ConfigurationError("sigma: entries must be finite")
        sigma = sigma.copy()
        sigma.setflags(write=False)
        eps = tuple(float(e) for e in self.epsilon_list)
        if not eps:
            raise ConfigurationError("epsilon_list: must be non-empty")
        for k, e in enumerate(eps):
            if e < 0:
                raise ConfigurationError(f"epsilon_list[{k}]: must be >= 0, got {e!r}")
            if k > 0 and not e < eps[k - 1]:
                raise ConfigurationError(f"epsilon_list[{k}]: must be strictly decreasing")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "epsilon_list", eps)


@dataclass(frozen=True)
class SdePathConfig:
    """Step size, horizon, ensemble size and base seed for path sampling."""

    h: float
    n_steps: int
    n_paths: int
    seed: int

    def __post_init__(self):
        if not self.h > 0:
            raise ConfigurationError(f"h: step size must be positive, got {self.h!r}")
        if self.n_steps < 1:
            raise ConfigurationError(f"n_steps: must be >= 1, got {self.n_steps!r}")
        if self.n_paths < 1:
            raise ConfigurationError(f"n_paths: must be >= 1, got {self.n_paths!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed: must be >= 0, got {self.seed!r}")


def _step_count(t, h):
    """``round(t / h)`` steps, at least one; ``ConfigurationError`` if
    ``t / h`` overflows, as finite ``t`` and ``h`` can make it."""
    ratio = t / h
    if not np.isfinite(ratio):
        raise ConfigurationError(f"t / h: {t!r} / {h!r} is not a finite step count")
    return max(1, int(round(ratio)))


# Cell and path indices each fill one 32-bit half of a stream's key word.
_STREAM_INDICES = 1 << 32


def _draw_normals(seed, first_cell, per_cell, lo, hi, n_steps, d):
    """Standard normals of rows ``lo:hi``, shape ``(hi - lo, n_steps, d)``.

    Row ``r`` reads the stream of path ``r % per_cell`` of cell
    ``first_cell + r // per_cell``: the normals of a fresh
    ``Generator(Philox(key=[seed, cell << 32 | path]))``, read by rewinding
    one generator's state per row at a fraction of the cost of building
    one.  This is the only reader of noise streams.  A cell or path index
    outside ``0 .. 2**32 - 1`` would share another pair's key, so it raises
    ``ConfigurationError`` naming the index.
    """
    r = np.arange(lo, hi, dtype=np.uint64)
    paths = r % np.uint64(per_cell)
    for name, index in (
        ("cell", int(first_cell)),
        ("cell", int(first_cell) + (hi - 1) // int(per_cell)),
        ("path", int(paths.max())),
    ):
        if not 0 <= index < _STREAM_INDICES:
            raise ConfigurationError(
                f"{name} {index}: stream indices must lie in 0..{_STREAM_INDICES - 1}"
            )
    words = (((int(first_cell) + r // np.uint64(per_cell)) << 32) | paths).tolist()
    bit_generator = np.random.Philox(0)
    gen = np.random.Generator(bit_generator)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": [int(seed), 0]},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    key = state["state"]["key"]
    xi = np.empty((hi - lo, n_steps, d))
    for word, block in zip(words, xi):
        key[1] = word
        bit_generator.state = state
        gen.standard_normal(out=block)
    return xi


def _plan(system, profile, noise, eps, d, h, n_steps):
    """The segment plan of an ``n_steps`` horizon at step size ``h``.

    Returns ``noisy`` (whether any noise enters), ``scale_t``, the noise
    matrix ``S = (sqrt(eps h) sigma)^T`` of one step in row form, and the
    runs ``(M^T, first step, step count)`` of steps with equal drift.  Step
    ``k`` starts at ``k h`` and takes the drift of the last schedule
    breakpoint at or before that time.
    """
    if noise.sigma.shape != (d, d):
        raise ConfigurationError(
            f"sigma: shape {noise.sigma.shape} does not match state dimension {d}"
        )
    if eps < 0:
        raise ConfigurationError(f"eps: must be >= 0, got {eps!r}")
    # One path's noise block and step-matrix powers are n_steps * d entries
    # or more, so a horizon past one chunk's cap is refused before any of them.
    if n_steps * d > _CHUNK_ENTRIES:
        raise ConfigurationError(
            f"t / h: {n_steps * h:.6g} / {h:.6g} is {n_steps} steps; a path of "
            f"dimension {d} may take at most {_CHUNK_ENTRIES // d}"
        )
    segment = np.searchsorted(system.breakpoints(), np.arange(n_steps) * h, side="right")
    firsts = [0] + (np.flatnonzero(np.diff(segment)) + 1).tolist()
    runs = [
        (np.ascontiguousarray(closed_loop_matrix(system, profile, k0 * h).T), k0, k1 - k0)
        for k0, k1 in zip(firsts, firsts[1:] + [n_steps])
    ]
    noisy = eps > 0 and np.any(noise.sigma != 0.0)
    scale_t = np.ascontiguousarray((np.sqrt(eps * h) * noise.sigma).T)
    return noisy, scale_t, runs


def _segment_operators(mat_t, scale_t, h, m, noisy):
    """Powers of one segment's step matrix and its noise kernel.

    In row form a step is ``Z <- Z T + xi S`` with ``T = I + h M^T`` and
    ``S = scale_t``.  Returns ``powers`` of shape ``(m + 1, d, d)`` with
    ``powers[p] = T^p``, from one product loop, and (when ``noisy``) the
    kernel of shape ``(d, m*d)`` whose row ``c`` holds ``(S T^(m-1-j))[a, c]``
    at ``j*d + a``.  The kernel of a ``j``-step segment is the last
    ``j*d`` columns of the ``m``-step one, bit for bit.
    """
    d = mat_t.shape[0]
    T = np.eye(d) + h * mat_t
    powers = np.empty((m + 1, d, d))
    powers[0] = np.eye(d)
    for p in range(m):
        powers[p + 1] = powers[p] @ T
    if not noisy:
        return powers, None
    gains = scale_t @ powers[m - 1::-1]
    return powers, np.ascontiguousarray(gains.transpose(2, 0, 1).reshape(d, m * d))


def _advance(Z, xi, powers, kernel, j):
    """State after the first ``j`` steps of a segment entered at ``Z``.

    ``Z T^j + sum_{i<j} xi_i S T^(j-1-i)``, with ``xi`` the segment's normals
    (rows, >= j, d) or None.  Each component is a row-wise reduction by
    ``np.einsum``, which does not call BLAS, so a row's value does not
    depend on how many rows are in the batch.
    """
    n, d = Z.shape
    out = np.empty((n, d))
    transposed = np.ascontiguousarray(powers[j].T)
    if kernel is not None:
        X = xi[:, :j, :].reshape(n, j * d)
        tail = kernel[:, kernel.shape[1] - j * d:]
    for c in range(d):
        out[:, c] = np.einsum("ij,j->i", Z, transposed[c])
        if kernel is not None:
            out[:, c] += np.einsum("ij,j->i", X, tail[c])
    return out


def _walk(Z, xi, runs, scale_t, h, n_steps, trajectory=None):
    """The first ``n_steps`` steps of the Euler-Maruyama recursion, one at a time.

    Returns the state and, at the first non-finite step, that step and the
    first non-finite row (``None, None`` if every step stays finite).
    ``trajectory`` receives the state after each step.
    """
    for mat_t, k0, m in runs:
        for k in range(k0, min(k0 + m, n_steps)):
            Z = Z + (Z @ mat_t) * h
            if xi is not None:
                Z = Z + xi[:, k, :] @ scale_t
            finite = np.isfinite(Z).all(axis=1)
            if not finite.all():
                return Z, k + 1, int(np.argmin(finite))
            if trajectory is not None:
                trajectory[k + 1] = Z[0]
    return Z, None, None


def _integrate_paths(system, noise, starts, jobs, seed, per_cell, first_cell=0):
    """Euler-Maruyama endpoints of one batch of paths for each job, in one pass.

    ``starts`` has shape (n, d); row ``r`` is path ``r % per_cell`` of cell
    ``first_cell + r // per_cell`` and draws from that stream through
    :func:`_draw_normals`.  ``jobs`` lists ``(profile, eps, h, n_steps)``.
    Rows go in chunks of at most ``_CHUNK_ENTRIES`` noise entries at the
    longest step count; a chunk's normals are drawn once, and shorter jobs
    read a prefix of each stream.  Each run of ``m`` steps in a job's
    segment plan (:func:`_plan`) maps its entry state ``z`` to
    ``z T^m + sum_j xi_j S T^(m-1-j)`` (see :func:`_segment_operators`),
    reduced row by row, so a row's endpoint is the same in any chunk.

    A chunk whose closed-form result is not finite is walked step by step
    (:func:`_walk`): a walk that stays finite is kept, one that does not
    gives the step and cell of the error.  Once every job is integrated,
    yields each job's endpoints in order; a job whose paths diverged raises
    ``DivergenceError`` in its turn, at the earliest step at which any of
    its rows is non-finite, naming the lowest cell with a non-finite row at
    that step.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n, d = starts.shape
    if d != system.dim:
        raise ConfigurationError(
            f"starts: dimension {d} does not match the state dimension {system.dim}"
        )
    plans = []
    for profile, eps, h, n_steps in jobs:
        noisy, scale_t, runs = _plan(system, profile, noise, eps, d, h, n_steps)
        with np.errstate(over="ignore", invalid="ignore"):
            operators = [
                _segment_operators(mat_t, scale_t, h, m, noisy) for mat_t, _, m in runs
            ]
        plans.append((noisy, scale_t, runs, operators, h, n_steps))
    longest = max((n_steps for *_, n_steps in jobs), default=0)
    any_noisy = any(plan[0] for plan in plans)

    endpoints = [np.empty((n, d)) for _ in jobs]
    errors = [None] * len(jobs)  # each job's earliest divergence so far
    chunk = max(1, min(n, _CHUNK_ENTRIES // max(1, longest * d)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        xi = _draw_normals(seed, first_cell, per_cell, lo, hi, longest, d) if any_noisy else None
        for k, (noisy, scale_t, runs, operators, h, n_steps) in enumerate(plans):
            Z = starts[lo:hi]
            with np.errstate(over="ignore", invalid="ignore"):
                for (_, k0, m), (powers, kernel) in zip(runs, operators):
                    seg_xi = xi[:, k0:k0 + m] if noisy else None
                    Z = _advance(Z, seg_xi, powers, kernel, m)
            if not np.isfinite(Z).all():
                # After a divergence only an earlier step can change the report.
                steps = n_steps if errors[k] is None else errors[k].step - 1
                job_xi = xi if noisy else None
                Z, step, row = _walk(starts[lo:hi], job_xi, runs, scale_t, h, steps)
                if step is not None:
                    cell = first_cell + (lo + row) // per_cell
                    errors[k] = DivergenceError(
                        f"path integration diverged at step {step} in cell {cell}",
                        step=step,
                        cell=cell,
                    )
            endpoints[k][lo:hi] = Z
    for ends, error in zip(endpoints, errors):
        if error is not None:
            raise error
        yield ends


def simulate_sde(system, profile, noise, eps, x0, path_cfg, path=0, cell=0):
    """Single Euler-Maruyama trajectory, shape ``(n_steps + 1, d)``.

    With ``eps=0`` (or a zero diffusion matrix) the scheme reduces to the
    deterministic explicit Euler method.  Repeating a call with the same
    ``(seed, cell, path)`` triple reproduces the trajectory bit for bit;
    its normals come from the same reader as every ensemble's, and ``path``
    and ``cell`` must lie in ``0 .. 2**32 - 1``.  Row ``k`` is the
    closed-form state after ``k`` steps, read from prefixes of the same
    per-run arrays of the segment plan as :func:`ensemble_endpoints`, so
    the last row equals that path's ensemble endpoint bit for bit.
    """
    if path < 0 or cell < 0:
        raise ConfigurationError("path/cell: stream indices must be >= 0")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x0.shape[0]
    if d != system.dim:
        raise ConfigurationError(
            f"x0: dimension {d} does not match the state dimension {system.dim}"
        )
    h, n_steps = path_cfg.h, path_cfg.n_steps
    noisy, scale_t, runs = _plan(system, profile, noise, eps, d, h, n_steps)
    xi = None
    if noisy:
        xi = _draw_normals(path_cfg.seed, cell, path + 1, path, path + 1, n_steps, d)
    Z = x0[None, :]
    trajectory = np.empty((n_steps + 1, d))
    trajectory[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for mat_t, k0, m in runs:
            powers, kernel = _segment_operators(mat_t, scale_t, h, m, noisy)
            seg_xi = xi[:, k0:k0 + m] if noisy else None
            for j in range(1, m + 1):
                trajectory[k0 + j] = _advance(Z, seg_xi, powers, kernel, j)[0]
            Z = trajectory[k0 + m][None, :]
    if not np.isfinite(trajectory).all():
        _, step, _ = _walk(x0[None, :], xi, runs, scale_t, h, n_steps, trajectory)
        if step is not None:
            raise DivergenceError(
                f"path integration diverged at step {step} in cell {cell}",
                step=step,
                cell=cell,
            )
    return trajectory


def ensemble_endpoints(system, profile, noise, eps, x0, path_cfg, cell=0):
    """Endpoints of ``n_paths`` trajectories from a common start.

    Path ``p`` uses the stream keyed ``(seed, cell, p)``.  Returns an array
    of shape ``(n_paths, d)``.
    """
    return ensemble_sweep(system, profile, noise, (eps,), x0, path_cfg, cell)[0]


def ensemble_sweep(system, profile, noise, epsilons, x0, path_cfg, cell=0):
    """:func:`ensemble_endpoints` at every epsilon of ``epsilons``, in one pass.

    The normals are drawn once and read at every epsilon.  Returns one
    endpoint array per epsilon; the first epsilon, in order, whose paths
    diverge raises its ``DivergenceError``.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    starts = np.broadcast_to(x0, (path_cfg.n_paths, x0.shape[0])).copy()
    jobs = [(profile, eps, path_cfg.h, path_cfg.n_steps) for eps in epsilons]
    return list(_integrate_paths(
        system, noise, starts, jobs, path_cfg.seed, path_cfg.n_paths, first_cell=cell
    ))


def build_stochastic_ulam(
    partition, system, profile, noise, eps, t, path_cfg, *, leak_tol=0.05
):
    """Monte Carlo push-forward matrix of the perturbed flow over ``[0, t]``.

    Each cell launches ``path_cfg.n_paths`` paths (at least 100) from the
    first ``n_paths`` of its sample points on the smallest ``q**d >=
    n_paths`` pattern; row entries are endpoint destination counts over
    paths.  The number of steps is ``round(t / h)`` with the
    step size adjusted to land on ``t`` exactly.  The paths of all cells
    are integrated as one batch with rows in ``(cell, path)`` order, each
    row drawing from the stream keyed ``(seed, cell, path)``.

    Raises ``DomainEscapeError`` if any row loses more than ``leak_tol``
    of its paths past the box, and ``DivergenceError`` naming the step and
    cell if a path becomes non-finite.
    """
    builds = [(profile, eps, t)]
    return next(_stochastic_ulams(partition, system, noise, builds, path_cfg, leak_tol))


def _stochastic_ulams(partition, system, noise, builds, path_cfg, leak_tol):
    """Yields the :func:`build_stochastic_ulam` matrix of each of ``builds``,
    a list of ``(profile, eps, t)``, from one pass over the streams.

    The builds are checked in order, so the first one that fails raises its
    own error.
    """
    if path_cfg.n_paths < _MIN_PATHS_PER_CELL:
        raise ConfigurationError(
            f"n_paths: at least {_MIN_PATHS_PER_CELL} paths per cell are required, "
            f"got {path_cfg.n_paths}"
        )
    jobs = []
    for profile, eps, t in builds:
        if not t > 0:
            raise ConfigurationError(f"t: horizon must be positive, got {t!r}")
        n_steps = _step_count(t, path_cfg.h)
        jobs.append((profile, eps, t / n_steps, n_steps))

    n_paths = path_cfg.n_paths
    q = int(np.ceil(n_paths ** (1.0 / partition.dim)))
    while q ** partition.dim < n_paths:
        q += 1
    starts = partition.sample_points(q)[:, :n_paths].reshape(-1, partition.dim)
    paths = _integrate_paths(system, noise, starts, jobs, path_cfg.seed, n_paths)
    for (profile, eps, t), ends in zip(builds, paths):
        dest = partition.locate(ends).reshape(partition.cell_count, n_paths)
        yield UlamMatrix(
            partition,
            dest,
            leak_tol=leak_tol,
            escape_message=(
                "cell {cell} lost {leak:.4f} of its paths past the domain (tolerance {tol})"
            ),
            t0=0.0,
            t1=float(t),
            flow_id=f"sde:eps={eps:.12g}:seed={path_cfg.seed}:{profile.hash_hex()}",
        )


def perturbed_stationary(matrix, theta0=None, tol=1e-10, max_iter=5000, cesaro=False):
    """Stationary density of a perturbed grid operator.

    Thin wrapper over the deterministic fixed-point solver; ``theta0``
    defaults to the uniform density on the operator's partition.
    """
    if theta0 is None:
        theta0 = DensityVector.uniform(matrix.partition)
    return stationary_density(matrix, theta0, tol=tol, max_iter=max_iter, cesaro=cesaro)


@dataclass(frozen=True)
class ResilienceEntry:
    """One (epsilon, time, density) comparison row.

    ``rel_entropy`` is NaN when the perturbed push-forward has mass outside
    the deterministic support and no floor was requested;
    ``support_violation_mass`` always reports that mass.
    """

    epsilon: float
    t: float
    density_id: int
    l1_distance: float
    rel_entropy: float
    support_violation_mass: float
    profile_id: str = "equilibrium"


@dataclass(frozen=True, eq=False)
class ResilienceReport:
    """Perturbed-versus-deterministic comparison over the epsilon sweep.

    ``theta_eps`` maps each epsilon to the supremum of the finite relative
    entropy entries over times and densities; ``monotone_flag`` records
    whether that supremum is non-increasing along the (decreasing) epsilon
    list.  ``deviation_entries`` is filled only when a deviation sweep was
    requested.
    """

    entries: tuple
    theta_eps: tuple
    monotone_flag: bool
    kl_floor: float | None
    deviation_entries: tuple = ()


def _check_kl_floor(kl_floor, name="kl_floor"):
    """Refuse a ``kl_floor`` that is set but not finite and > 0; errors say ``name``."""
    if kl_floor is not None and not (np.isfinite(kl_floor) and kl_floor > 0):
        raise ConfigurationError(f"{name}: must be finite and > 0, got {kl_floor!r}")


def _kl_with_floor(pushed, reference, floor):
    """KL divergence with a floored reference; no support requirement."""
    vol = pushed.partition.cell_volume
    mask = pushed.values > 0
    num = pushed.values[mask]
    ref = reference.values[mask] + floor
    return float(np.sum(num * np.log(num / ref)) * vol)


def _compare(pushed, reference, kl_floor):
    vol = pushed.partition.cell_volume
    l1 = l1_distance(pushed, reference)
    violating = (pushed.values > 0) & (reference.values == 0)
    violation_mass = float(pushed.values[violating].sum() * vol)
    if kl_floor is not None:
        rel = _kl_with_floor(pushed, reference, kl_floor)
    elif violation_mass > 0:
        rel = float("nan")
    else:
        rel = relative_entropy(pushed, reference)
    return l1, rel, violation_mass


def resilience_report(
    system,
    profile,
    noise,
    cfg,
    path_cfg,
    theta_list,
    *,
    kl_floor=None,
    with_deviations=False,
    space=None,
):
    """Compare perturbed and deterministic push-forwards over the sweep.

    For every epsilon in ``noise.epsilon_list``, every time in
    ``cfg.time_grid`` and every density in ``theta_list`` (identified by
    list position), the L1 distance and relative entropy between the
    renormalised perturbed and deterministic push-forwards are recorded.
    An epsilon of exactly zero denotes the deterministic operator itself,
    so its rows are identically zero.  ``kl_floor`` (finite, > 0) adds that
    floor to the reference density inside the divergence so entries stay
    finite when diffusion spreads mass outside the deterministic support;
    without it, such entries are NaN and the violation mass is reported.

    With ``with_deviations=True`` (requires ``space``) every unilateral
    candidate deviation from ``profile`` is swept as well: the perturbed
    deviation push-forward is compared against the deterministic push-forward
    of the undeviated profile.  Those rows are kept separate in
    ``deviation_entries`` and do not influence ``theta_eps``.
    """
    if with_deviations and space is None:
        raise ConfigurationError("with_deviations: a strategy space is required")
    _check_kl_floor(kl_floor)
    thetas = list(theta_list)
    if not thetas:
        raise ConfigurationError("theta_list: must contain at least one density")
    for theta in thetas:
        theta.require_unit_mass()
        if not theta.partition.matches(cfg.theta_ref.partition):
            raise ConfigurationError("theta_list: densities must share the reference partition")

    cache = OperatorCache(system, cfg)
    det_ops = {t: cache.operator(profile, t) for t in cfg.time_grid}
    det_pushes = {
        (t, i): apply_fp(det_ops[t], theta, renormalize=True)
        for t in cfg.time_grid
        for i, theta in enumerate(thetas)
    }

    profiles = [("equilibrium", profile)]
    if with_deviations:
        profiles += [
            (f"deviation:j={j},k={k}", dev_profile)
            for j, k, dev_profile in _unilateral_deviations(profile, space)
        ]

    sweep = [
        (swept, eps, t, label)
        for eps in noise.epsilon_list if eps > 0
        for t in cfg.time_grid
        for label, swept in profiles
    ]
    matrices = _stochastic_ulams(
        cfg.theta_ref.partition, system, noise, [b[:3] for b in sweep], path_cfg, cfg.leak_tol
    )
    entries = []
    deviation_entries = []
    for (swept, eps, t, label), P_eps in zip(sweep, matrices):
        rows = entries if swept is profile else deviation_entries
        for i, theta in enumerate(thetas):
            pushed = apply_fp(P_eps, theta, renormalize=True)
            l1, rel, violation = _compare(pushed, det_pushes[(t, i)], kl_floor)
            rows.append(ResilienceEntry(eps, t, i, l1, rel, violation, profile_id=label))
    if noise.epsilon_list[-1] == 0.0:
        # Zero noise is the deterministic operator by definition.
        entries += [
            ResilienceEntry(noise.epsilon_list[-1], t, i, 0.0, 0.0, 0.0)
            for t in cfg.time_grid
            for i in range(len(thetas))
        ]

    theta_eps = []
    for eps in noise.epsilon_list:
        finite = [e.rel_entropy for e in entries if e.epsilon == eps and np.isfinite(e.rel_entropy)]
        theta_eps.append((eps, float(max(finite)) if finite else float("nan")))
    values = [v for _, v in theta_eps]
    monotone = all(np.isfinite(v) for v in values) and all(
        values[k] >= values[k + 1] for k in range(len(values) - 1)
    )
    return ResilienceReport(
        entries=tuple(entries),
        theta_eps=tuple(theta_eps),
        monotone_flag=bool(monotone),
        kl_floor=kl_floor,
        deviation_entries=tuple(deviation_entries),
    )
