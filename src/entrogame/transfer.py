"""Grid discretisation of transfer (push-forward) and composition operators.

A compact box is split into a regular grid of cells.  Densities and
observables are piecewise constant on that grid.  The push-forward of a
density under a point map is estimated by the classical cell-to-cell
counting scheme: each cell is seeded with a regular sub-grid of interior
points, the map is applied, and row ``i`` of the operator records the
fraction of cell ``i`` samples landing in each destination cell.  Mass that
leaves the box is tracked per row as leakage instead of being silently
renormalised away.

Sample placement and cell location run one axis at a time, on one
contiguous column of coordinates per axis with scalar bounds.  They do the
same IEEE operations as the broadcast ``(n, d)`` form, so points and
indices are identical to it; location forms the flat C-order index by
Horner's rule.

Every operator, deterministic or stochastic, is a table of where each
cell's samples landed, handed to :class:`UlamMatrix`: it holds the one leak
gate and counts the distinct ``(row, destination)`` keys into compressed
sparse row form.  No ``M x M`` array is formed on any production path.

The matrix acts in two dual ways: on densities (push-forward, transposed
action on cell masses) and on observables (composition, plain action).
Both are one weighted ``bincount`` over the nonzeros.  Volume-weighted
inner products make the two actions adjoint up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    DomainEscapeError,
    NonConvergenceError,
    NumericalError,
    TrajectoryEscapeError,
)

__all__ = [
    "Partition",
    "DensityVector",
    "ObservableVector",
    "UlamMatrix",
    "StationaryResult",
    "build_ulam",
    "apply_fp",
    "apply_koopman",
    "adjoint_residual",
    "stationary_density",
    "birkhoff_average",
    "invariance_check",
    "l1_distance",
]

DEFAULT_LEAK_TOL = 0.05
_LEAK_MESSAGE = "cell {cell} leaks {leak:.4f} of its mass out of the domain (tolerance {tol})"
UNIT_MASS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Partition:
    """Regular box partition of ``[lower, upper]`` into grid cells.

    Parameters
    ----------
    lower, upper : array_like, shape (d,)
        Box corners, ``lower < upper`` componentwise.
    cells_per_axis : array_like of int, shape (d,)
        Number of cells along each axis.

    Cells are indexed flat in C order of their multi-indices.
    """

    lower: np.ndarray
    upper: np.ndarray
    cells_per_axis: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        cells = np.atleast_1d(np.asarray(self.cells_per_axis))
        if cells.dtype.kind not in "iu":
            raise ConfigurationError(
                f"partition: cells_per_axis entries must be integers, got {cells.dtype}"
            )
        cells = cells.astype(np.int64)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.shape != cells.shape:
            raise ConfigurationError(
                "lower: lower, upper and cells_per_axis must be 1-d and of equal length"
            )
        # Each rule names the first axis that breaks it.
        for name, ok, rule in (
            ("lower", np.isfinite(lower), "must be finite"),
            ("upper", np.isfinite(upper), "must be finite"),
            ("lower", lower < upper, "must be strictly below upper[{k}]"),
            ("cells_per_axis", cells >= 1, "must be >= 1"),
        ):
            if not ok.all():
                k = int(np.argmin(ok))
                raise ConfigurationError(f"{name}[{k}]: " + rule.format(k=k))
        for arr in (lower, upper, cells):
            arr.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "cells_per_axis", cells)
        object.__setattr__(self, "_sample_points", {})

    @property
    def dim(self):
        return self.lower.shape[0]

    @cached_property
    def cell_count(self):
        return int(np.prod(self.cells_per_axis))

    @property
    def widths(self):
        return (self.upper - self.lower) / self.cells_per_axis

    @cached_property
    def cell_volume(self):
        return float(np.prod(self.widths))

    @property
    def domain_volume(self):
        return float(np.prod(self.upper - self.lower))

    def matches(self, other):
        return (
            isinstance(other, Partition)
            and np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
            and np.array_equal(self.cells_per_axis, other.cells_per_axis)
        )

    def multi_indices(self):
        idx = np.unravel_index(np.arange(self.cell_count), tuple(self.cells_per_axis))
        return np.stack(idx, axis=1)

    def centers(self):
        return self.lower + (self.multi_indices() + 0.5) * self.widths

    def sample_offsets(self, q):
        """Regular ``q**d`` interior offsets within a single cell."""
        axes = [(np.arange(q) + 0.5) / q * w for w in self.widths]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def sample_points(self, q):
        """Interior sample points for every cell, shape (M, q**d, d).

        Computed once per ``q`` and returned read-only and C-contiguous.
        """
        q = int(q)
        points = self._sample_points.get(q)
        if points is None:
            offsets = self.sample_offsets(q)
            index = np.unravel_index(np.arange(self.cell_count), tuple(self.cells_per_axis))
            points = np.empty((self.cell_count, offsets.shape[0], self.dim))
            for k, (lo, w) in enumerate(zip(self.lower, self.widths)):
                np.add((lo + index[k] * w)[:, None], offsets[:, k], out=points[:, :, k])
            points.setflags(write=False)
            self._sample_points[q] = points
        return points

    def locate(self, points):
        """Flat cell index for each point, -1 for points outside the box.

        Points exactly on the upper face belong to the last cell along
        that axis; the box is treated as closed.
        """
        pts = np.asarray(points, dtype=float)
        squeeze = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.dim:
            raise ConfigurationError(
                f"locate: points have dimension {pts.shape[1]}, expected {self.dim}"
            )
        # One contiguous row per axis, updated in place: the same IEEE
        # operations as on the (n, d) array, without its length-d inner loops.
        cols = pts.T.copy()
        axes = zip(cols, self.lower, self.upper, self.widths, self.cells_per_axis.tolist())
        for k, (x, lo, hi, w, n) in enumerate(axes):
            ok = x >= lo
            ok &= x <= hi
            x -= lo
            x /= w
            np.floor(x, out=x)
            idx = x.astype(np.int64)
            np.clip(idx, 0, n - 1, out=idx)
            if k == 0:
                inside, flat = ok, idx
            else:
                inside &= ok
                flat *= n
                flat += idx
        flat[~inside] = -1
        return flat[0] if squeeze else flat


@dataclass(frozen=True, eq=False)
class DensityVector:
    """Cellwise-constant density on a partition.

    Values are nonnegative and finite; mass is ``sum(values) * cell_volume``.
    Operations that require a probability density call
    :meth:`require_unit_mass`.
    """

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.partition.cell_count,):
            raise ConfigurationError(
                f"density: expected {self.partition.cell_count} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("density: values must be finite")
        if np.any(vals < 0):
            cell = int(np.argmax(vals < 0))
            raise ConfigurationError(f"density: negative value at cell {cell}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def mass(self):
        return float(self.values.sum() * self.partition.cell_volume)

    def require_unit_mass(self, tol=UNIT_MASS_TOL):
        if abs(self.mass - 1.0) > tol:
            raise ConfigurationError(
                f"density: mass {self.mass!r} deviates from 1 by more than {tol}"
            )
        return self

    @classmethod
    def uniform(cls, partition):
        vals = np.full(partition.cell_count, 1.0 / partition.domain_volume)
        return cls(partition, vals)


@dataclass(frozen=True, eq=False)
class ObservableVector:
    """Cellwise-constant observable (finite values, no sign constraint)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ConfigurationError("observable: values must be 1-d")
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("observable: values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _check_leak_tol(leak_tol):
    """The one rule for a leakage tolerance, shared with the scenario parser."""
    if not 0 <= leak_tol <= 1:
        raise ConfigurationError(f"leak_tol: expected a fraction in [0, 1], got {leak_tol!r}")


def _check_iteration(tol, max_iter, name="max_iter"):
    """The one rule for a stopping tolerance and an iteration cap, shared by
    :func:`stationary_density`, the scenario parser and the game settings;
    errors call the cap ``name``."""
    if not tol > 0:
        raise ConfigurationError(f"tol: must be positive, got {tol!r}")
    if max_iter < 1:
        raise ConfigurationError(f"{name}: must be >= 1, got {max_iter!r}")


@dataclass(frozen=True, eq=False, init=False)
class UlamMatrix:
    """Row-substochastic cell transition matrix with per-row leakage.

    Built from a destination table: ``destinations[i, s]`` is the cell that
    sample ``s`` of cell ``i`` reached, or -1 if it left the box.  A table
    that is not integer, of shape ``(M, S)`` with ``S >= 1`` and entries in
    ``-1 .. M - 1``, or a ``leak_tol`` outside [0, 1], raises
    ``ConfigurationError``.  If the worst row's escaped fraction exceeds
    ``leak_tol``, ``DomainEscapeError`` names that cell with
    ``escape_message`` formatted from ``cell``, ``leak`` and ``tol``.

    Nonzero ``k`` says that ``hits[k]`` of the ``samples_per_cell`` samples
    of cell ``rows[k]`` landed in cell ``cols[k]``; ``values[k]`` is that
    fraction.  One ``np.unique`` over the keys ``i * M + destination`` orders
    them row-major with ascending columns.  ``escaped[i]`` counts the
    cell-``i`` samples that left the box; ``leakage`` is that fraction.
    """

    partition: Partition
    samples_per_cell: int
    leak_tol: float
    t0: float
    t1: float
    flow_id: str
    rows: np.ndarray
    cols: np.ndarray
    hits: np.ndarray
    values: np.ndarray
    escaped: np.ndarray
    leakage: np.ndarray

    def __init__(
        self,
        partition,
        destinations,
        leak_tol=DEFAULT_LEAK_TOL,
        t0=0.0,
        t1=0.0,
        flow_id="",
        escape_message=_LEAK_MESSAGE,
    ):
        M = partition.cell_count
        dest = np.asarray(destinations)
        if not np.issubdtype(dest.dtype, np.integer):
            raise ConfigurationError(f"ulam: destinations must be integers, got {dest.dtype}")
        if dest.ndim != 2 or dest.shape[0] != M or dest.shape[1] < 1:
            raise ConfigurationError(f"ulam: destinations shape {dest.shape} is not ({M}, S >= 1)")
        if dest.min() < -1 or dest.max() >= M:
            raise ConfigurationError(f"ulam: a destination lies outside -1..{M - 1}")
        _check_leak_tol(leak_tol)
        dest = dest.astype(np.int64, copy=False)
        S = dest.shape[1]
        inside = dest >= 0
        escaped = S - inside.sum(axis=1)
        worst = int(np.argmax(escaped))
        worst_leak = escaped[worst] / S
        if worst_leak > leak_tol:
            raise DomainEscapeError(
                escape_message.format(cell=worst, leak=worst_leak, tol=leak_tol),
                cell=worst,
                leakage=float(worst_leak),
            )
        keys = (np.arange(M, dtype=np.int64)[:, None] * M + dest)[inside]
        keys, hits = np.unique(keys, return_counts=True)
        fields = {
            "partition": partition,
            "samples_per_cell": S,
            "leak_tol": leak_tol,
            "t0": t0,
            "t1": t1,
            "flow_id": flow_id,
            "rows": keys // M,
            "cols": keys % M,
            "hits": hits,
            "values": hits / S,
            "escaped": escaped,
            "leakage": escaped / S,
        }
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def shape(self):
        """``(M, M)`` for ``M`` cells."""
        M = self.partition.cell_count
        return (M, M)

    def push(self, masses):
        """Cell masses after one step, ``P.T @ masses`` for the fractions ``P``."""
        return np.bincount(
            self.cols, weights=masses[self.rows] * self.values,
            minlength=self.partition.cell_count,
        )

    def compose(self, values):
        """Expected next value per cell, ``P @ values``."""
        return np.bincount(
            self.rows, weights=self.values * values[self.cols],
            minlength=self.partition.cell_count,
        )


@dataclass(frozen=True, eq=False)
class StationaryResult:
    """Fixed-point solve outcome: density, iteration count, residual."""

    density: DensityVector
    iterations: int
    residual: float


def _subgrid_order(samples_per_cell, dim):
    if not (isinstance(samples_per_cell, (int, np.integer)) and samples_per_cell >= 1):
        raise ConfigurationError(
            f"samples_per_cell: expected a positive integer, got {samples_per_cell!r}"
        )
    q = max(2, int(round(samples_per_cell ** (1.0 / dim))))
    for cand in (q - 1, q, q + 1):
        if cand >= 2 and cand ** dim == samples_per_cell:
            return cand
    raise ConfigurationError(
        f"samples_per_cell: {samples_per_cell} is not q**{dim} for an integer q >= 2"
    )


def _apply_point_map(point_map, points):
    """Apply a point map to an (n, d) batch.

    A map that rejects batches (``TypeError``, ``ValueError`` or
    ``IndexError``) or returns the wrong shape for one is called point by
    point instead; any other error propagates.
    """
    try:
        out = np.asarray(point_map(points), dtype=float)
    except (TypeError, ValueError, IndexError):
        out = None
    if out is not None and out.shape == points.shape:
        return out
    rows = [np.asarray(point_map(p), dtype=float).reshape(-1) for p in points]
    out = np.asarray(rows, dtype=float)
    if out.shape != points.shape:
        raise ConfigurationError(
            f"flow: returned shape {out.shape} for input shape {points.shape}"
        )
    return out


def build_ulam(
    partition,
    flow,
    samples_per_cell,
    *,
    leak_tol=DEFAULT_LEAK_TOL,
    t0=None,
    t1=None,
    flow_id=None,
):
    """Estimate the push-forward matrix of ``flow`` on a partition.

    Parameters
    ----------
    partition : Partition
    flow : callable
        Point map accepting a state of shape ``(d,)`` or a batch ``(n, d)``.
    samples_per_cell : int
        Must equal ``q**d`` for an integer ``q >= 2``; each cell is probed
        on a regular ``q`` per-axis interior sub-grid.
    leak_tol : float
        Worst-row leakage fraction accepted, in [0, 1].
    t0, t1, flow_id : optional metadata
        Defaults are taken from the flow's ``transition``/``flow_id``
        attributes when present.

    Raises
    ------
    DomainEscapeError
        From :class:`UlamMatrix`, if any row leaks more than ``leak_tol``.
    """
    M = partition.cell_count
    q = _subgrid_order(samples_per_cell, partition.dim)
    points = partition.sample_points(q).reshape(-1, partition.dim)
    images = _apply_point_map(flow, points)
    dest = partition.locate(images).reshape(M, int(samples_per_cell))

    transition = getattr(flow, "transition", None)
    if t0 is None:
        t0 = transition.t0 if transition is not None else 0.0
    if t1 is None:
        t1 = transition.t1 if transition is not None else 0.0
    if flow_id is None:
        flow_id = getattr(flow, "flow_id", "")
    return UlamMatrix(
        partition, dest, leak_tol=leak_tol, t0=float(t0), t1=float(t1), flow_id=str(flow_id)
    )


def _require_same_grid(matrix, theta):
    if not matrix.partition.matches(theta.partition):
        raise ConfigurationError("density partition does not match the operator partition")


def apply_fp(matrix, theta, renormalize=False):
    """Push a density forward through the grid transfer operator.

    Cell masses ``m_i = theta_i * vol`` move along the rows of the matrix;
    the output density is the received mass per cell divided by the cell
    volume.  Without renormalisation, output mass equals input mass minus
    the mass leaked out of the box.  With ``renormalize=True`` the result
    is scaled back to unit mass; the leaked fraction ``leakage @ m / sum(m)``
    is a convex mix of row leakages, so it is within the operator's
    ``leak_tol`` too.  A push-forward of zero mass raises ``NumericalError``.
    """
    _require_same_grid(matrix, theta)
    vol = theta.partition.cell_volume
    m_out = matrix.push(theta.values * vol)
    if renormalize:
        total = m_out.sum()
        if total <= 0.0:
            raise NumericalError("cannot renormalize a push-forward of zero mass")
        return DensityVector(theta.partition, m_out / (total * vol))
    return DensityVector(theta.partition, m_out / vol)


def apply_koopman(matrix, zeta):
    """Composition action on observables: row-weighted expected next value."""
    if zeta.values.shape[0] != matrix.partition.cell_count:
        raise ConfigurationError(
            f"observable length {zeta.values.shape[0]} does not match "
            f"{matrix.partition.cell_count} cells"
        )
    return ObservableVector(matrix.compose(zeta.values))


def adjoint_residual(matrix, theta, zeta):
    """Volume-weighted duality defect between the two operator actions.

    Returns ``|<push(theta), zeta> - <theta, compose(zeta)>|`` where
    ``<a, b> = sum_i a_i b_i * cell_volume``.  Identical up to rounding for
    any row-substochastic matrix, since both sides count the same mass.
    """
    _require_same_grid(matrix, theta)
    vol = theta.partition.cell_volume
    pushed = apply_fp(matrix, theta)
    composed = apply_koopman(matrix, zeta)
    lhs = float(pushed.values @ zeta.values) * vol
    rhs = float(theta.values @ composed.values) * vol
    return abs(lhs - rhs)


def l1_distance(theta_a, theta_b):
    """Volume-weighted L1 distance between two grid densities."""
    if not theta_a.partition.matches(theta_b.partition):
        raise ConfigurationError("densities live on different partitions")
    return float(
        np.abs(theta_a.values - theta_b.values).sum() * theta_a.partition.cell_volume
    )


def stationary_density(matrix, theta0, tol=1e-10, max_iter=5000, cesaro=False):
    """Fixed point of the push-forward by normalised power iteration.

    Parameters
    ----------
    matrix : UlamMatrix
    theta0 : DensityVector
        Starting density (unit mass).
    tol : float
        Stop when the L1 distance between consecutive iterates (or
        consecutive running averages with ``cesaro=True``) drops below
        this value.
    max_iter : int
    cesaro : bool
        Track the running average of the iterates instead of the bare
        iterate; useful for operators with rotating mass where the plain
        sequence cycles.

    Returns
    -------
    StationaryResult
        The density, the number of iterations used, and the final
        fixed-point residual ``||push(theta*) - theta*||_1`` (computed
        without renormalisation, so row leakage shows up in it).

    Raises
    ------
    NonConvergenceError
        If ``max_iter`` is exhausted; carries the last consecutive
        distance as ``residual``.
    """
    _require_same_grid(matrix, theta0)
    theta0.require_unit_mass()
    _check_iteration(tol, max_iter)

    vol = theta0.partition.cell_volume
    p = theta0.values * vol
    current = p.copy()
    avg = None
    last_dist = np.inf
    for n in range(1, max_iter + 1):
        p = matrix.push(p)
        total = p.sum()
        if total <= 0.0:
            raise NumericalError(
                "power iteration lost all mass to leakage; operator has no "
                "invariant density on this grid"
            )
        p = p / total
        if cesaro:
            avg = p.copy() if avg is None else avg + (p - avg) / n
            new = avg
        else:
            new = p
        last_dist = float(np.abs(new - current).sum())
        current = new.copy()
        if last_dist < tol:
            residual = float(np.abs(matrix.push(current) - current).sum())
            return StationaryResult(
                DensityVector(theta0.partition, current / vol), n, residual
            )
    raise NonConvergenceError(
        f"power iteration did not reach tol={tol} within {max_iter} iterations "
        f"(last consecutive distance {last_dist:.3e})",
        residual=last_dist,
        iterations=max_iter,
    )


def invariance_check(matrix, theta):
    """L1 defect ``||push(theta) - theta||_1`` of a candidate fixed density."""
    return l1_distance(apply_fp(matrix, theta), theta)


def birkhoff_average(point_map, x0, observable, n_steps, domain=None):
    """Time average of an observable along an orbit of a point map.

    Averages ``observable`` over the first ``n_steps`` orbit points
    ``x0, S(x0), ..., S^(n_steps-1)(x0)``.

    Parameters
    ----------
    point_map : callable
    x0 : array_like
    observable : callable
        Maps a state to a float.
    n_steps : int
    domain : Partition or (lower, upper) pair, optional
        When given, every orbit point is checked against the box and an
        escape raises ``TrajectoryEscapeError`` with the offending step.
    """
    if not (isinstance(n_steps, (int, np.integer)) and n_steps >= 1):
        raise ConfigurationError(f"n_steps: expected a positive integer, got {n_steps!r}")
    if domain is None:
        lower = upper = None
    elif isinstance(domain, Partition):
        lower, upper = domain.lower, domain.upper
    else:
        lower = np.asarray(domain[0], dtype=float)
        upper = np.asarray(domain[1], dtype=float)

    x = np.atleast_1d(np.asarray(x0, dtype=float))

    def check(state, step):
        if lower is None:
            return
        if not (np.all(state >= lower) and np.all(state <= upper)):
            raise TrajectoryEscapeError(
                f"orbit left the domain at step {step}", step=step
            )

    check(x, 0)
    total = 0.0
    for k in range(n_steps):
        total += float(observable(x))
        if k < n_steps - 1:
            x = np.atleast_1d(np.asarray(point_map(x), dtype=float))
            check(x, k + 1)
    return total / n_steps
