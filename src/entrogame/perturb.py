"""Small-noise perturbation of the closed loop and resilience reporting.

The perturbed state follows ``dZ = M(t) Z dt + sqrt(eps) sigma dW`` with
the closed-loop drift ``M``.  Paths are simulated with the explicit
Euler-Maruyama scheme.  Every path draws its normals from a counter-based
Philox stream keyed by ``(seed, cell, path)``; the step index is the
position in that stream.  Draws therefore never depend on scheduling or
batching, so ensembles, grid-operator builds and full resilience reports
are bit-identical for any thread count.

The perturbed grid operator is a Monte Carlo variant of the deterministic
cell-counting build: at least 100 paths per cell start on a stratified
in-cell pattern and row entries count endpoint destinations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import relative_entropy
from .errors import ConfigurationError, DivergenceError
from .game import OperatorCache
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
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def _stream_key(seed, cell, path):
    """Philox key of one path: ``[seed, cell << 32 | path]`` in uint64."""
    word = ((int(cell) << 32) | int(path)) & _UINT64_MASK
    return np.array([int(seed), word], dtype=np.uint64)


def _reset_stream(gen, seed, cell, path):
    """Rewind ``gen`` to the start of the ``(seed, cell, path)`` stream.

    Draws then match a fresh ``Generator(Philox(key=_stream_key(...)))``
    bit for bit, at a fraction of the cost of building one per path.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": _stream_key(seed, cell, path)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


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


def _integrate_paths(system, profile, noise, eps, starts, h, n_steps, seed, cell):
    """Euler-Maruyama endpoints for a batch of paths.

    ``starts`` has shape (n, d); path ``p`` uses the stream keyed
    ``(seed, cell, p)``.  Paths are processed in fixed-size chunks, so the
    per-path arithmetic never depends on the batch composition.
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

    endpoints = np.empty((n, d))
    gen = np.random.Generator(np.random.Philox(0))
    chunk = max(1, min(n, _CHUNK_ENTRIES // max(1, n_steps * d)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        Z = starts[lo:hi].copy()
        if noisy:
            xi = np.empty((hi - lo, n_steps, d))
            for p in range(lo, hi):
                _reset_stream(gen, seed, cell, p).standard_normal(out=xi[p - lo])
        for k in range(n_steps):
            Z = Z + (Z @ mats_t[seg_of_step[k]]) * h
            if noisy:
                Z = Z + xi[:, k, :] @ scale_t
            if not np.all(np.isfinite(Z)):
                raise DivergenceError(
                    f"path integration diverged at step {k + 1}", step=k + 1
                )
        endpoints[lo:hi] = Z
    return endpoints


def simulate_sde(system, profile, noise, eps, x0, path_cfg, path=0, cell=0):
    """Single Euler-Maruyama trajectory, shape ``(n_steps + 1, d)``.

    With ``eps=0`` (or a zero diffusion matrix) the scheme reduces to the
    deterministic explicit Euler method.  Repeating a call with the same
    ``(seed, cell, path)`` triple reproduces the trajectory bit for bit.
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
    if noisy:
        key = _stream_key(path_cfg.seed, cell, path)
        xi = np.random.Generator(np.random.Philox(key=key)).standard_normal((n_steps, d))
    Z = x0[None, :].copy()
    trajectory = np.empty((n_steps + 1, d))
    trajectory[0] = Z[0]
    for k in range(n_steps):
        Z = Z + (Z @ mats_t[seg_of_step[k]]) * h
        if noisy:
            Z = Z + xi[k][None, :] @ scale_t
        if not np.all(np.isfinite(Z)):
            raise DivergenceError(f"path integration diverged at step {k + 1}", step=k + 1)
        trajectory[k + 1] = Z[0]
    return trajectory


def ensemble_endpoints(system, profile, noise, eps, x0, path_cfg, cell=0):
    """Endpoints of ``n_paths`` trajectories from a common start.

    Path ``p`` uses the stream keyed ``(seed, cell, p)``.  Returns an array
    of shape ``(n_paths, d)``.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    starts = np.broadcast_to(x0, (path_cfg.n_paths, x0.shape[0])).copy()
    return _integrate_paths(
        system, profile, noise, eps, starts, path_cfg.h, path_cfg.n_steps,
        path_cfg.seed, cell,
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
):
    """Monte Carlo push-forward matrix of the perturbed flow over ``[0, t]``.

    Each cell launches ``path_cfg.n_paths`` paths (at least 100) from a
    stratified in-cell start pattern; row entries are endpoint destination
    counts over paths.  The number of steps is ``round(t / h)`` with the
    step size adjusted to land on ``t`` exactly.  Rows are built per cell
    with streams keyed ``(seed, cell, path)``.  ``threads`` is accepted for
    compatibility and ignored; the matrix never depended on it.

    Raises ``DomainEscapeError`` if any row loses more than ``leak_tol``
    of its paths past the box.
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
    dest = np.empty((partition.cell_count, n_paths), dtype=np.int64)
    for i, corner in enumerate(corners):
        ends = _integrate_paths(
            system, profile, noise, eps, corner + offsets,
            h_eff, n_steps, path_cfg.seed, i,
        )
        dest[i] = partition.locate(ends)
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
    so its rows are identically zero.  ``kl_floor`` adds the given floor to
    the reference density inside the divergence so entries stay finite when
    diffusion spreads mass outside the deterministic support; without it,
    such entries are NaN and the violation mass is still reported.

    With ``with_deviations=True`` (requires ``space``) every unilateral
    candidate deviation from ``profile`` is swept as well: the perturbed
    deviation push-forward is compared against the deterministic push-forward
    of the undeviated profile.  Those rows are kept separate in
    ``deviation_entries`` and do not influence ``theta_eps``.
    """
    if with_deviations and space is None:
        raise ConfigurationError("with_deviations: a strategy space is required")
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
        for j in range(1, space.n_channels + 1):
            current = profile.gain(j).L
            for k, L in enumerate(space.candidates[j - 1]):
                if np.array_equal(L, current):
                    continue
                deviation_profiles.append(
                    (f"deviation:j={j},k={k}", profile.replaced(j, L))
                )

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
                leak_tol=cfg.leak_tol, threads=cfg.threads,
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
                    path_cfg, leak_tol=cfg.leak_tol, threads=cfg.threads,
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
