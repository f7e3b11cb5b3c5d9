"""Small-noise perturbation of the closed loop and resilience reporting.

The perturbed state follows ``dZ = M(t) Z dt + sqrt(eps) sigma dW`` with
the closed-loop drift ``M``.  Paths follow the explicit Euler-Maruyama
scheme.  Every path draws its normals from a counter-based Philox stream
keyed by ``(seed, cell, path)``; the step index is the position in that
stream.  Draws therefore never depend on scheduling or batching, so
ensembles, grid-operator builds and full resilience reports are
bit-identical for any thread count.

Within a schedule segment the drift is constant and the noise additive, so
the Euler-Maruyama recursion is affine in the normals: it is the discrete
Ornstein-Uhlenbeck (AR(1)) recursion, and a segment's exit state is
evaluated in closed form from the powers of its step matrix instead of
step by step (path scheme 2).  Every row is reduced on its own, so a
path's endpoint does not depend on the batch or chunk it is computed in.
The per-step loop remains as the diagnostic walk that names the step and
cell of a divergence.

The perturbed grid operator is a Monte Carlo variant of the deterministic
cell-counting build: at least 100 paths per cell start on a stratified
in-cell pattern and row entries count endpoint destinations.  The paths of
all cells are integrated as one batch, in chunks bounded by
``_CHUNK_ENTRIES`` noise entries.  Since the draws depend on neither the
noise amplitude nor the gain profile, the builds of one resilience report
share the normals of a chunk whenever they have the same step count.
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
    apply_fp,
    l1_distance,
    stationary_density,
    ulam_from_destinations,
)

__all__ = [
    "NoiseSpec",
    "SdePathConfig",
    "ResilienceEntry",
    "ResilienceReport",
    "simulate_sde",
    "ensemble_endpoints",
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


_UINT64_MASK = (1 << 64) - 1
_ZERO_WORDS = (0, 0, 0, 0)


def _stream_word(cell, path):
    """Second Philox key word of one path: ``cell << 32 | path`` in uint64."""
    return ((int(cell) << 32) | int(path)) & _UINT64_MASK


def _stream_state(seed):
    """Philox state at the start of a stream keyed ``[seed, 0]``.

    Setting ``state["state"]["key"][1]`` to a :func:`_stream_word` selects
    the path; the state is built from plain ints, so one dict serves a
    whole batch of resets.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": [int(seed), 0]},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _reset_stream(gen, seed, cell, path):
    """Rewind ``gen`` to the start of the ``(seed, cell, path)`` stream.

    Draws then match a fresh ``Generator(Philox(key=[seed, cell << 32 |
    path]))`` bit for bit, at a fraction of the cost of building one.
    """
    state = _stream_state(seed)
    state["state"]["key"][1] = _stream_word(cell, path)
    gen.bit_generator.state = state
    return gen


def _draw_normals(seed, first_cell, per_cell, lo, hi, n_steps, d):
    """Standard normals of rows ``lo:hi``, shape ``(hi - lo, n_steps, d)``.

    Row ``r`` reads the stream of path ``r % per_cell`` of cell
    ``first_cell + r // per_cell``.
    """
    r = np.arange(lo, hi, dtype=np.uint64)
    words = (((int(first_cell) + r // int(per_cell)) << 32) | (r % int(per_cell))).tolist()
    bit_generator = np.random.Philox(0)
    gen = np.random.Generator(bit_generator)
    state = _stream_state(seed)
    key = state["state"]["key"]
    xi = np.empty((hi - lo, n_steps, d))
    for word, block in zip(words, xi):
        key[1] = word
        bit_generator.state = state
        gen.standard_normal(out=block)
    return xi


class _HeldNoise:
    """The normals of the last chunk drawn, kept for the next request.

    A request for the same rows of the same streams and step count returns
    the held block; any other request drops it before drawing.  At most one
    chunk is held, so sharing one instance across builds keeps the memory
    bound of a single build.
    """

    def __init__(self):
        self._key = None
        self._xi = None

    def normals(self, seed, first_cell, per_cell, lo, hi, n_steps, d):
        key = (int(seed), first_cell, per_cell, lo, hi, n_steps, d)
        if key != self._key:
            self._key = self._xi = None
            self._xi = _draw_normals(*key)
            self._xi.setflags(write=False)
            self._key = key
        return self._xi


def _step_matrices(system, profile, h, n_steps):
    """Closed-loop drift per step start time, deduplicated by segment."""
    if not system.schedule:
        M = closed_loop_matrix(system, profile)
        return [M], np.zeros(n_steps, dtype=np.intp)
    breaks = system.breakpoints()
    mats = []
    seg_of_step = np.empty(n_steps, dtype=np.intp)
    last_seg = -1
    for k in range(n_steps):
        t = k * h
        seg = 0
        for i, b in enumerate(breaks):
            if b <= t:
                seg = i
        if seg != last_seg:
            mats.append(closed_loop_matrix(system, profile, t))
            last_seg = seg
        seg_of_step[k] = len(mats) - 1
    return mats, seg_of_step


def _prepare(system, profile, noise, eps, d, h, n_steps):
    if noise.sigma.shape != (d, d):
        raise ConfigurationError(
            f"sigma: shape {noise.sigma.shape} does not match state dimension {d}"
        )
    if eps < 0:
        raise ConfigurationError(f"eps: must be >= 0, got {eps!r}")
    mats, seg_of_step = _step_matrices(system, profile, h, n_steps)
    mats_t = [np.ascontiguousarray(M.T) for M in mats]
    noisy = eps > 0 and np.any(noise.sigma != 0.0)
    scale_t = np.ascontiguousarray((np.sqrt(eps * h) * noise.sigma).T)
    return mats_t, seg_of_step, noisy, scale_t


def _segment_runs(seg_of_step):
    """``(segment, first step, step count)`` of each run of equal drift."""
    cuts = np.flatnonzero(np.diff(seg_of_step)) + 1
    firsts = [0] + cuts.tolist()
    ends = cuts.tolist() + [len(seg_of_step)]
    return [(int(seg_of_step[a]), a, b - a) for a, b in zip(firsts, ends)]


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


def _walk(Z, xi, mats_t, seg_of_step, scale_t, h, n_steps, trajectory=None):
    """The Euler-Maruyama recursion one step at a time.

    Returns the state and, at the first non-finite step, that step and the
    first non-finite row (``None, None`` if every step stays finite).
    ``trajectory`` receives the state after each step.
    """
    for k in range(n_steps):
        Z = Z + (Z @ mats_t[seg_of_step[k]]) * h
        if xi is not None:
            Z = Z + xi[:, k, :] @ scale_t
        finite = np.isfinite(Z).all(axis=1)
        if not finite.all():
            return Z, k + 1, int(np.argmin(finite))
        if trajectory is not None:
            trajectory[k + 1] = Z[0]
    return Z, None, None


def _integrate_paths(
    system, profile, noise, eps, starts, h, n_steps, seed, per_cell,
    first_cell=0, held=None,
):
    """Euler-Maruyama endpoints for a batch of paths, in closed form.

    ``starts`` has shape (n, d); row ``r`` is path ``r % per_cell`` of cell
    ``first_cell + r // per_cell`` and draws from that stream.  Rows are
    integrated in chunks of at most ``_CHUNK_ENTRIES`` noise entries.  Each
    schedule segment of ``m`` steps maps its entry state ``z`` to
    ``z T^m + sum_j xi_j S T^(m-1-j)`` (see :func:`_segment_operators`),
    reduced row by row, so every row's endpoint is the same in any chunk.
    ``held`` (a :class:`_HeldNoise`) lets consecutive calls on the same
    streams share their normals.

    A chunk whose closed-form result is not finite is walked step by step
    (:func:`_walk`): a walk that stays finite is kept, one that does not
    gives the step and cell of the error.  Raises ``DivergenceError`` at the
    earliest step at which any row is non-finite, naming the lowest cell
    with a non-finite row at that step.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    n, d = starts.shape
    if d != system.dim:
        raise ConfigurationError(
            f"starts: dimension {d} does not match the state dimension {system.dim}"
        )
    mats_t, seg_of_step, noisy, scale_t = _prepare(
        system, profile, noise, eps, d, h, n_steps
    )
    if held is None:
        held = _HeldNoise()
    runs = _segment_runs(seg_of_step)
    with np.errstate(over="ignore", invalid="ignore"):
        operators = [
            _segment_operators(mats_t[seg], scale_t, h, m, noisy) for seg, _, m in runs
        ]

    endpoints = np.empty((n, d))
    failure = None  # (step, cell) of the earliest divergence so far
    chunk = max(1, min(n, _CHUNK_ENTRIES // max(1, n_steps * d)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        xi = held.normals(seed, first_cell, per_cell, lo, hi, n_steps, d) if noisy else None
        Z = starts[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            for (_, k0, m), (powers, kernel) in zip(runs, operators):
                seg_xi = xi[:, k0:k0 + m] if noisy else None
                Z = _advance(Z, seg_xi, powers, kernel, m)
        if not np.isfinite(Z).all():
            # After a divergence only an earlier step can change the report.
            steps = n_steps if failure is None else failure[0] - 1
            Z, step, row = _walk(starts[lo:hi], xi, mats_t, seg_of_step, scale_t, h, steps)
            if step is not None:
                failure = (step, first_cell + (lo + row) // per_cell)
        endpoints[lo:hi] = Z
    if failure is not None:
        step, cell = failure
        raise DivergenceError(
            f"path integration diverged at step {step} in cell {cell}",
            step=step,
            cell=cell,
        )
    return endpoints


def simulate_sde(system, profile, noise, eps, x0, path_cfg, path=0, cell=0):
    """Single Euler-Maruyama trajectory, shape ``(n_steps + 1, d)``.

    With ``eps=0`` (or a zero diffusion matrix) the scheme reduces to the
    deterministic explicit Euler method.  Repeating a call with the same
    ``(seed, cell, path)`` triple reproduces the trajectory bit for bit.
    Row ``k`` is the closed-form state after ``k`` steps, read from
    prefixes of the same per-segment arrays as :func:`ensemble_endpoints`,
    so the last row equals that path's ensemble endpoint bit for bit.
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
    mats_t, seg_of_step, noisy, scale_t = _prepare(
        system, profile, noise, eps, d, h, n_steps
    )
    xi = None
    if noisy:
        gen = np.random.Generator(np.random.Philox(0))
        xi = _reset_stream(gen, path_cfg.seed, cell, path).standard_normal((1, n_steps, d))
    Z = x0[None, :]
    trajectory = np.empty((n_steps + 1, d))
    trajectory[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for seg, k0, m in _segment_runs(seg_of_step):
            powers, kernel = _segment_operators(mats_t[seg], scale_t, h, m, noisy)
            seg_xi = xi[:, k0:k0 + m] if noisy else None
            for j in range(1, m + 1):
                trajectory[k0 + j] = _advance(Z, seg_xi, powers, kernel, j)[0]
            Z = trajectory[k0 + m][None, :]
    if not np.isfinite(trajectory).all():
        _, step, _ = _walk(
            x0[None, :], xi, mats_t, seg_of_step, scale_t, h, n_steps, trajectory
        )
        if step is not None:
            raise DivergenceError(
                f"path integration diverged at step {step} in cell {cell}",
                step=step,
                cell=cell,
            )
    return trajectory


def ensemble_endpoints(
    system, profile, noise, eps, x0, path_cfg, cell=0, *, _held_noise=None
):
    """Endpoints of ``n_paths`` trajectories from a common start.

    Path ``p`` uses the stream keyed ``(seed, cell, p)``.  Returns an array
    of shape ``(n_paths, d)``.  ``_held_noise`` is a private
    :class:`_HeldNoise` through which consecutive calls on the same streams,
    such as the noisy epsilons of a sweep, share their normals.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    starts = np.broadcast_to(x0, (path_cfg.n_paths, x0.shape[0])).copy()
    return _integrate_paths(
        system, profile, noise, eps, starts, path_cfg.h, path_cfg.n_steps,
        path_cfg.seed, path_cfg.n_paths, first_cell=cell, held=_held_noise,
    )


def _stratified_starts(partition, n_paths):
    """Deterministic in-cell start offsets, shape (n_paths, d)."""
    d = partition.dim
    q = int(np.ceil(n_paths ** (1.0 / d)))
    while q ** d < n_paths:
        q += 1
    offs = partition.sample_offsets(q)
    return offs[:n_paths]


def build_stochastic_ulam(
    partition,
    system,
    profile,
    noise,
    eps,
    t,
    path_cfg,
    *,
    leak_tol=0.05,
    threads=1,
    _held_noise=None,
):
    """Monte Carlo push-forward matrix of the perturbed flow over ``[0, t]``.

    Each cell launches ``path_cfg.n_paths`` paths (at least 100) from a
    stratified in-cell start pattern; row entries are endpoint destination
    counts over paths.  The number of steps is ``round(t / h)`` with the
    step size adjusted to land on ``t`` exactly.  The paths of all cells
    are integrated as one batch with rows in ``(cell, path)`` order, each
    row drawing from the stream keyed ``(seed, cell, path)``.  ``threads``
    is accepted for compatibility and ignored; the matrix never depended
    on it.  ``_held_noise`` is a private :class:`_HeldNoise` through which
    consecutive builds on the same streams share their normals.

    Raises ``DomainEscapeError`` if any row loses more than ``leak_tol``
    of its paths past the box, and ``DivergenceError`` naming the step and
    cell if a path becomes non-finite.
    """
    if path_cfg.n_paths < _MIN_PATHS_PER_CELL:
        raise ConfigurationError(
            f"n_paths: at least {_MIN_PATHS_PER_CELL} paths per cell are required, "
            f"got {path_cfg.n_paths}"
        )
    if not t > 0:
        raise ConfigurationError(f"t: horizon must be positive, got {t!r}")
    n_steps = max(1, int(round(t / path_cfg.h)))
    h_eff = t / n_steps

    n_paths = path_cfg.n_paths
    offsets = _stratified_starts(partition, n_paths)
    corners = partition.lower + partition.multi_indices() * partition.widths
    starts = (corners[:, None, :] + offsets[None, :, :]).reshape(-1, partition.dim)
    ends = _integrate_paths(
        system, profile, noise, eps, starts, h_eff, n_steps, path_cfg.seed,
        n_paths, held=_held_noise,
    )
    dest = partition.locate(ends).reshape(partition.cell_count, n_paths)
    return ulam_from_destinations(
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
    if kl_floor is not None and not (np.isfinite(kl_floor) and kl_floor > 0):
        raise ConfigurationError(f"kl_floor: must be finite and > 0, got {kl_floor!r}")
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

    deviation_profiles = []
    if with_deviations:
        deviation_profiles = [
            (f"deviation:j={j},k={k}", dev_profile)
            for j, k, dev_profile in _unilateral_deviations(profile, space)
        ]

    # Draws depend only on (seed, cell, path): builds with the same step
    # count share one chunk of normals across epsilons and profiles.
    held = _HeldNoise()
    entries = []
    deviation_entries = []
    theta_eps = []
    for eps in noise.epsilon_list:
        sup = -np.inf
        any_finite = False
        for t in cfg.time_grid:
            if eps == 0.0:
                # Zero noise is the deterministic operator by definition.
                for i in range(len(thetas)):
                    entries.append(
                        ResilienceEntry(eps, t, i, 0.0, 0.0, 0.0)
                    )
                sup = max(sup, 0.0)
                any_finite = True
                continue
            P_eps = build_stochastic_ulam(
                cfg.theta_ref.partition, system, profile, noise, eps, t, path_cfg,
                leak_tol=cfg.leak_tol, _held_noise=held,
            )
            for i, theta in enumerate(thetas):
                pushed = apply_fp(P_eps, theta, renormalize=True)
                l1, rel, violation = _compare(pushed, det_pushes[(t, i)], kl_floor)
                entries.append(ResilienceEntry(eps, t, i, l1, rel, violation))
                if np.isfinite(rel):
                    sup = max(sup, rel)
                    any_finite = True
            for label, dev_profile in deviation_profiles:
                P_dev = build_stochastic_ulam(
                    cfg.theta_ref.partition, system, dev_profile, noise, eps, t,
                    path_cfg, leak_tol=cfg.leak_tol, _held_noise=held,
                )
                for i, theta in enumerate(thetas):
                    pushed = apply_fp(P_dev, theta, renormalize=True)
                    l1, rel, violation = _compare(pushed, det_pushes[(t, i)], kl_floor)
                    deviation_entries.append(
                        ResilienceEntry(eps, t, i, l1, rel, violation, profile_id=label)
                    )
        theta_eps.append((eps, float(sup) if any_finite else float("nan")))

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
