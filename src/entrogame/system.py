"""Multi-channel linear plant and closed-loop transition matrices.

The plant is ``x' = A(t) x + sum_j B_j(t) u_j`` with one constant gain per
input channel, ``u_j = L_j x``.  Closing every loop yields a linear flow
``x -> Phi(t1, t0) x`` obtained by fixed-step integration of the matrix
differential equation ``Phi' = M(t) Phi``.  Closing every loop except one
factors the flow into a rest-of-network transition times a single-channel
correction (:func:`decompose_transition`).  The game module does not use
that factorisation: it scores each profile's full closed-loop flow.

Coefficients may vary in time only through a piecewise-constant schedule,
so every integrator step sees exact segment coefficients.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConditioningError,
    ConfigurationError,
    DivergenceError,
)

__all__ = [
    "MultiChannelSystem",
    "ScheduleSegment",
    "FeedbackGain",
    "FeedbackProfile",
    "TransitionMatrix",
    "closed_loop_matrix",
    "integrate_transition",
    "decompose_transition",
    "flow_map",
]

# Reciprocal-condition guard for the rest-of-network factor inversion.
_COND_LIMIT = 1e12


def _as_matrix(value, name):
    arr = np.array(value, dtype=float)
    if arr.ndim != 2:
        raise ConfigurationError(f"{name}: expected a 2-d matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ConfigurationError(f"{name}: matrix must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name}: entries must be finite")
    arr.setflags(write=False)
    return arr


def _input_matrices(raw, d, name):
    mats = []
    for j, b in enumerate(raw):
        arr = _as_matrix(b, f"{name}[{j}]")
        if arr.shape[0] != d:
            raise ConfigurationError(
                f"{name}[{j}]: expected {d} rows to match the state dimension, "
                f"got {arr.shape[0]}"
            )
        mats.append(arr)
    if not mats:
        raise ConfigurationError(f"{name}: at least one input channel is required")
    return tuple(mats)


@dataclass(frozen=True, eq=False)
class ScheduleSegment:
    """Coefficients active from ``start`` until the next breakpoint."""

    start: float
    A: np.ndarray
    B: tuple

    def __post_init__(self):
        object.__setattr__(self, "start", float(self.start))


@dataclass(frozen=True, eq=False)
class MultiChannelSystem:
    """Linear plant ``x' = A(t) x + sum_j B_j(t) u_j``.

    Parameters
    ----------
    A : array_like, shape (d, d)
        Drift matrix used when no schedule is given.
    B : sequence of array_like, each shape (d, r_j)
        One input matrix per channel, in channel order.
    schedule : sequence of ScheduleSegment, optional
        Piecewise-constant coefficients.  Breakpoints must be strictly
        increasing and start at time zero; every segment must keep the
        state dimension and the per-channel input widths of ``A``/``B``.
    """

    A: np.ndarray
    B: tuple
    schedule: tuple = ()

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        if A.shape[0] != A.shape[1]:
            raise ConfigurationError(f"A: must be square, got shape {A.shape}")
        d = A.shape[0]
        B = _input_matrices(self.B, d, "B")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

        segments = []
        for k, seg in enumerate(self.schedule):
            if not isinstance(seg, ScheduleSegment):
                seg = ScheduleSegment(*seg)
            A_k = _as_matrix(seg.A, f"schedule[{k}].A")
            if A_k.shape != (d, d):
                raise ConfigurationError(
                    f"schedule[{k}].A: shape {A_k.shape} does not match ({d}, {d})"
                )
            B_k = _input_matrices(seg.B, d, f"schedule[{k}].B")
            if len(B_k) != len(B):
                raise ConfigurationError(
                    f"schedule[{k}].B: expected {len(B)} channels, got {len(B_k)}"
                )
            for j, (b_base, b_seg) in enumerate(zip(B, B_k)):
                if b_seg.shape != b_base.shape:
                    raise ConfigurationError(
                        f"schedule[{k}].B[{j}]: shape {b_seg.shape} does not match "
                        f"{b_base.shape}"
                    )
            segments.append(ScheduleSegment(seg.start, A_k, B_k))
        if segments:
            if segments[0].start != 0.0:
                raise ConfigurationError("schedule[0].start: first breakpoint must be 0.0")
            for k in range(1, len(segments)):
                if not segments[k].start > segments[k - 1].start:
                    raise ConfigurationError(
                        f"schedule[{k}].start: breakpoints must be strictly increasing"
                    )
        object.__setattr__(self, "schedule", tuple(segments))

    @property
    def dim(self):
        return self.A.shape[0]

    @property
    def n_channels(self):
        return len(self.B)

    @property
    def input_dims(self):
        return tuple(b.shape[1] for b in self.B)

    def breakpoints(self):
        return tuple(seg.start for seg in self.schedule)

    def coefficients_at(self, t):
        """Active ``(A, B)`` pair at time ``t``."""
        if not self.schedule:
            return self.A, self.B
        active = self.schedule[0]
        for seg in self.schedule:
            if seg.start <= t:
                active = seg
            else:
                break
        return active.A, active.B


@dataclass(frozen=True, eq=False)
class FeedbackGain:
    """Constant gain ``L`` closing input channel ``channel`` (1-based)."""

    channel: int
    L: np.ndarray

    def __post_init__(self):
        if not isinstance(self.channel, (int, np.integer)) or self.channel < 1:
            raise ConfigurationError(
                f"channel: expected a 1-based channel index, got {self.channel!r}"
            )
        object.__setattr__(self, "channel", int(self.channel))
        object.__setattr__(self, "L", _as_matrix(self.L, f"L (channel {self.channel})"))


@dataclass(frozen=True, eq=False)
class FeedbackProfile:
    """One feedback gain per channel, covering channels 1..N exactly once."""

    gains: tuple

    def __post_init__(self):
        gains = tuple(self.gains)
        if not gains:
            raise ConfigurationError("gains: a profile needs at least one channel")
        seen = sorted(g.channel for g in gains)
        if seen != list(range(1, len(gains) + 1)):
            raise ConfigurationError(
                f"gains: channels must cover 1..{len(gains)} exactly once, got {seen}"
            )
        object.__setattr__(self, "gains", tuple(sorted(gains, key=lambda g: g.channel)))

    @property
    def n_channels(self):
        return len(self.gains)

    def gain(self, channel):
        if not 1 <= channel <= len(self.gains):
            raise ConfigurationError(
                f"channel: {channel} outside 1..{len(self.gains)}"
            )
        return self.gains[channel - 1]

    def matrices(self):
        return tuple(g.L for g in self.gains)

    def replaced(self, channel, L):
        """Copy of the profile with one channel's gain swapped."""
        gain = L if isinstance(L, FeedbackGain) else FeedbackGain(channel, L)
        if gain.channel != channel:
            raise ConfigurationError(
                f"channel: replacement gain is for channel {gain.channel}, expected {channel}"
            )
        gains = list(self.gains)
        gains[channel - 1] = gain
        return FeedbackProfile(tuple(gains))

    def key(self):
        """Byte string identifying the profile, usable as a cache key."""
        parts = []
        for g in self.gains:
            parts.append(np.int64(g.channel).tobytes())
            parts.append(np.ascontiguousarray(g.L).tobytes())
        return b"".join(parts)

    def hash_hex(self):
        return hashlib.sha1(self.key()).hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """State-transition matrix ``Phi(t1, t0)`` of a closed-loop flow."""

    t0: float
    t1: float
    Phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "t1", float(self.t1))
        object.__setattr__(self, "Phi", _as_matrix(self.Phi, "Phi"))
        if self.Phi.shape[0] != self.Phi.shape[1]:
            raise ConfigurationError(f"Phi: must be square, got shape {self.Phi.shape}")


def _check_profile(system, profile):
    if profile.n_channels != system.n_channels:
        raise ConfigurationError(
            f"profile: {profile.n_channels} gains for a {system.n_channels}-channel system"
        )
    for gain, (d, r) in zip(profile.gains, [(system.dim, r) for r in system.input_dims]):
        if gain.L.shape != (r, d):
            raise ConfigurationError(
                f"profile channel {gain.channel}: gain shape {gain.L.shape} "
                f"does not match ({r}, {d})"
            )


def closed_loop_matrix(system, profile, t=0.0):
    """Closed-loop drift ``A(t) + sum_j B_j(t) L_j`` at time ``t``."""
    _check_profile(system, profile)
    A_t, B_t = system.coefficients_at(t)
    M = A_t.copy()
    for b, gain in zip(B_t, profile.gains):
        M += b @ gain.L
    return M


def _segments(system, t0, t1):
    """Split [t0, t1] at schedule breakpoints lying strictly inside."""
    cuts = [t0]
    for b in system.breakpoints():
        if t0 < b < t1:
            cuts.append(b)
    cuts.append(t1)
    return list(zip(cuts[:-1], cuts[1:]))


def _check_span(t0, t1, steps):
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ConfigurationError(f"steps: expected a positive integer, got {steps!r}")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ConfigurationError("t0/t1: time endpoints must be finite")
    if t1 < t0:
        raise ConfigurationError(f"t1: must satisfy t1 >= t0, got [{t0}, {t1}]")


def integrate_transition(system, profile, t0, t1, steps):
    """Integrate ``Phi' = M(t) Phi`` with classical fixed-step RK4.

    Within a schedule segment ``M`` is constant, so one RK4 step of size
    ``h`` is, in exact arithmetic, multiplication by the step matrix
    ``T = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24``, and ``n`` steps are
    ``T^n``, formed by repeated squaring in O(log n) products.  If that
    power is not finite, the segment is walked one step ``Phi <- T Phi`` at
    a time instead; a non-finite step raises :class:`DivergenceError`, and
    a walk that stays finite is kept.

    Parameters
    ----------
    system : MultiChannelSystem
    profile : FeedbackProfile
    t0, t1 : float
        Integration window, ``t1 >= t0``.
    steps : int
        Total number of RK4 steps distributed over the window.  The global
        error decreases as ``steps**-4``; steps never straddle a schedule
        breakpoint.

    Returns
    -------
    TransitionMatrix

    Raises
    ------
    DivergenceError
        At the first step, counted across segments, whose product overflows.
    """
    _check_profile(system, profile)
    _check_span(t0, t1, steps)
    d = system.dim
    Phi = np.eye(d)
    if t1 == t0:
        return TransitionMatrix(t0, t1, Phi)

    I = np.eye(d)
    total = t1 - t0
    done = 0
    for a, b in _segments(system, t0, t1):
        n = max(1, int(math.ceil(steps * (b - a) / total)))
        hM = ((b - a) / n) * closed_loop_matrix(system, profile, a)
        T = I + hM @ (I + hM @ (I + hM @ (I + hM / 4.0) / 3.0) / 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            powered = np.linalg.matrix_power(T, n) @ Phi
        if np.all(np.isfinite(powered)):
            Phi = powered
            done += n
            continue
        for _ in range(n):
            Phi = T @ Phi
            done += 1
            if not np.all(np.isfinite(Phi)):
                raise DivergenceError(
                    f"transition integration diverged at step {done} of "
                    f"[{t0}, {t1}]", step=done,
                )
    return TransitionMatrix(t0, t1, Phi)


def decompose_transition(system, profile, channel, t0, t1, steps):
    """Factor the closed-loop transition into rest-of-network and one channel.

    The first factor solves the closed loop with every gain except
    ``channel`` applied.  The second solves the correction equation driven
    by ``Brest(t) = R(t)^-1 B_j L_j R(t)`` where ``R`` is the first factor.
    Their product reproduces the full transition matrix.

    Returns
    -------
    (TransitionMatrix, TransitionMatrix)
        Rest-of-network factor and single-channel factor, in that order.

    Raises
    ------
    ConditioningError
        If the rest-of-network factor becomes too ill conditioned to invert.
    """
    _check_profile(system, profile)
    _check_span(t0, t1, steps)
    if not 1 <= channel <= system.n_channels:
        raise ConfigurationError(
            f"channel: {channel} outside 1..{system.n_channels}"
        )
    d = system.dim
    R = np.eye(d)
    Q = np.eye(d)
    if t1 == t0:
        return TransitionMatrix(t0, t1, R), TransitionMatrix(t0, t1, Q)

    gain = profile.gain(channel)
    total = t1 - t0
    done = 0
    for a, b in _segments(system, t0, t1):
        A_seg, B_seg = system.coefficients_at(a)
        M_rest = A_seg.copy()
        for g, bmat in zip(profile.gains, B_seg):
            if g.channel != channel:
                M_rest += bmat @ g.L
        BL = B_seg[channel - 1] @ gain.L

        def deriv(Rv, Qv):
            dR = M_rest @ Rv
            try:
                correction = np.linalg.solve(Rv, BL @ Rv)
            except np.linalg.LinAlgError as exc:
                raise ConditioningError(
                    f"rest-of-network factor singular in segment starting at "
                    f"t={a:.6g} while decomposing channel {channel}"
                ) from exc
            return dR, correction @ Qv

        n = max(1, int(math.ceil(steps * (b - a) / total)))
        h = (b - a) / n
        for _ in range(n):
            k1R, k1Q = deriv(R, Q)
            k2R, k2Q = deriv(R + 0.5 * h * k1R, Q + 0.5 * h * k1Q)
            k3R, k3Q = deriv(R + 0.5 * h * k2R, Q + 0.5 * h * k2Q)
            k4R, k4Q = deriv(R + h * k3R, Q + h * k3Q)
            R = R + (h / 6.0) * (k1R + 2.0 * k2R + 2.0 * k3R + k4R)
            Q = Q + (h / 6.0) * (k1Q + 2.0 * k2Q + 2.0 * k3Q + k4Q)
            done += 1
            if not (np.all(np.isfinite(R)) and np.all(np.isfinite(Q))):
                raise DivergenceError(
                    f"decomposition integration diverged at step {done}", step=done
                )
            cond = np.linalg.cond(R)
            if not np.isfinite(cond) or cond > _COND_LIMIT:
                raise ConditioningError(
                    f"rest-of-network factor ill conditioned (cond={cond:.3e}) at "
                    f"step {done} while decomposing channel {channel}"
                )
    return TransitionMatrix(t0, t1, R), TransitionMatrix(t0, t1, Q)


def flow_map(system, profile, t0, t1, steps):
    """Pure point map ``x -> Phi(t1, t0) x`` of the closed-loop flow.

    The returned callable accepts a single state of shape ``(d,)`` or a
    batch of shape ``(n, d)``.  It carries the underlying transition matrix
    as the attribute ``transition`` and a stable ``flow_id`` string used by
    grid-operator metadata.
    """
    tm = integrate_transition(system, profile, t0, t1, steps)
    phi_t = np.ascontiguousarray(tm.Phi.T)

    def apply(x):
        pts = np.asarray(x, dtype=float)
        return pts @ phi_t

    apply.transition = tm
    apply.flow_id = (
        f"linear:{profile.hash_hex()}:t0={t0:.12g}:t1={t1:.12g}:steps={steps}"
    )
    return apply
