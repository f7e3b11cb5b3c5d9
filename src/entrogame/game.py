"""Best-response search for entropy-equilibrium feedback gains.

Each channel owns a finite ordered list of candidate gains.  A full
profile is scored, at every evaluation time ``t`` in a fixed grid, by the
relative entropy between the grid push-forward of a reference density
under the closed-loop flow over ``[0, t]`` and the reference itself.  The
score is nonnegative and vanishes exactly when the flow leaves the
reference density invariant, so each channel best-responds by minimising
the worst score over the time grid, breaking ties toward the lowest
candidate index.  Round-robin best response over channels 1..N is iterated
until a full round changes nothing.

Every channel minimises the same function of the full profile, so the game
is identical-interest, an exact potential game (Monderer and Shapley,
"Potential games", GEB 14, 1996): the score is per profile, not per channel.

Candidates whose closed loop pushes too much mass out of the truncation
box (leakage above tolerance) or fails the optional stability filter are
skipped; if a channel loses every candidate this way the search stops with
an empty-strategy error.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .entropy import entropy, relative_entropy
from .errors import (
    ConfigurationError,
    DomainEscapeError,
    EmptyStrategyError,
    SupportError,
)
from .system import FeedbackGain, FeedbackProfile, closed_loop_matrix, flow_map
from .transfer import (
    DensityVector,
    _check_iteration,
    apply_fp,
    build_ulam,
    invariance_check,
    l1_distance,
    stationary_density,
)

__all__ = [
    "StrategySpace",
    "GameConfig",
    "EquilibriumResult",
    "VerificationReport",
    "ContractionEstimate",
    "DecayTrace",
    "OperatorCache",
    "criterion",
    "best_response",
    "find_equilibrium",
    "verify_equilibrium",
    "contraction_estimate",
    "sample_ball_pairs",
    "entropy_decay_trace",
]


@dataclass(frozen=True, eq=False)
class StrategySpace:
    """Finite ordered candidate gain lists, one list per channel.

    ``candidates[j-1]`` holds the gain matrices available to channel ``j``.
    With ``stability_filter=True`` a candidate is admissible only if the
    closed loop it forms with the current opposing gains has all eigenvalue
    real parts strictly negative; the filter applies to constant-coefficient
    systems and is skipped when a coefficient schedule is present.
    """

    candidates: tuple
    stability_filter: bool = False

    def __post_init__(self):
        cleaned = []
        for j, cand_list in enumerate(self.candidates, start=1):
            mats = []
            for k, L in enumerate(cand_list):
                arr = np.array(L, dtype=float)
                if arr.ndim != 2 or not np.all(np.isfinite(arr)):
                    raise ConfigurationError(
                        f"candidates[{j - 1}][{k}]: expected a finite 2-d gain matrix"
                    )
                arr.setflags(write=False)
                mats.append(arr)
            if not mats:
                raise ConfigurationError(f"candidates[{j - 1}]: channel {j} has no candidates")
            cleaned.append(tuple(mats))
        if not cleaned:
            raise ConfigurationError("candidates: at least one channel is required")
        object.__setattr__(self, "candidates", tuple(cleaned))

    @property
    def n_channels(self):
        return len(self.candidates)

    def gain(self, channel, index):
        return FeedbackGain(channel, self.candidates[channel - 1][index])

    def index_of(self, channel, L):
        """Index of a gain matrix in a channel's list, or None."""
        for k, cand in enumerate(self.candidates[channel - 1]):
            if cand.shape == L.shape and np.array_equal(cand, L):
                return k
        return None

    def profile(self, indices):
        return FeedbackProfile(
            tuple(self.gain(j, k) for j, k in enumerate(indices, start=1))
        )


@dataclass(frozen=True, eq=False)
class GameConfig:
    """Evaluation grid and discretisation parameters shared by game ops.

    ``time_grid`` must be strictly increasing with a positive first entry.
    ``theta_ref`` is the reference density scored by the criterion and the
    start of the stationary solve; its partition, :attr:`partition`, fixes
    the grid for every operator build.
    """

    time_grid: tuple
    theta_ref: DensityVector
    samples_per_cell: int
    tol: float = 1e-9
    max_rounds: int = 20
    leak_tol: float = 0.05
    integration_steps: int = 200
    stationary_tol: float = 1e-10
    stationary_max_iter: int = 5000

    def __post_init__(self):
        grid = _checked_grid(self.time_grid, self.tol, self.max_rounds)
        object.__setattr__(self, "time_grid", grid)
        self.theta_ref.require_unit_mass()

    @property
    def partition(self):
        return self.theta_ref.partition


def _checked_grid(time_grid, tol, max_rounds, name="time_grid"):
    """``time_grid`` as floats, after the one check of the game settings
    (grid, ``tol``, ``max_rounds``) that :class:`GameConfig`, the scenario
    parser and :func:`entropy_decay_trace` share; errors call the grid ``name``.
    """
    grid = tuple(float(t) for t in time_grid)
    if not grid:
        raise ConfigurationError(f"{name}: must be non-empty")
    if grid[0] <= 0.0:
        raise ConfigurationError(f"{name}[0]: first evaluation time must be > 0")
    for k in range(1, len(grid)):
        if not grid[k] > grid[k - 1]:
            raise ConfigurationError(f"{name}[{k}]: must be increasing")
    _check_iteration(tol, max_rounds, name="max_rounds")
    return grid


def _build_values(cfg):
    return (cfg.samples_per_cell, cfg.leak_tol, cfg.integration_steps)


class OperatorCache:
    """Build-once store of the grid operators and scores of one run.

    Operators are keyed by (profile, time).  Leakage rejections are
    remembered too, so a candidate rejected at some time is not rebuilt on
    every later query, and a remembered rejection carries the message of
    the original one.  :meth:`stationary` memoises stationary solves and
    :meth:`scores` the score of a profile, which all channels share because
    the game is identical-interest.

    A cache is bound to one system (by identity) and, by value, to what a
    build needs: the partition, ``samples_per_cell``, ``leak_tol`` and
    ``integration_steps``, read from ``cfg`` (a :class:`GameConfig` or a
    scenario).  Functions that take a ``cache`` argument refuse one whose
    system is another object or whose build values differ.  Use one cache
    per run: the CLI ``equilibrium`` subcommand hands the cache of its
    search to the verification, whose unilateral deviations the search's
    last round has already built.
    """

    def __init__(self, system, cfg):
        self.system = system
        self.partition = cfg.partition
        self._build = _build_values(cfg)
        self._store = {}
        self._stationary = {}
        self._scores = {}

    def operator(self, profile, t):
        key = (profile.key(), float(t))
        hit = self._store.get(key)
        if hit is not None:
            kind, payload = hit
            if kind == "ok":
                return payload
            raise DomainEscapeError(payload[0], cell=payload[1], leakage=payload[2])
        samples, leak_tol, steps = self._build
        fm = flow_map(self.system, profile, 0.0, float(t), steps)
        try:
            P = build_ulam(self.partition, fm, samples, leak_tol=leak_tol)
        except DomainEscapeError as exc:
            msg = f"profile {profile.hash_hex()} at t={t:.6g}: {exc}"
            self._store[key] = ("rejected", (msg, exc.cell, exc.leakage))
            raise DomainEscapeError(msg, cell=exc.cell, leakage=exc.leakage) from None
        self._store[key] = ("ok", P)
        return P

    def stationary(self, profile, t, theta0, tol, max_iter, cesaro=False):
        """Stationary solve of the operator at ``(profile, t)``, computed once
        per start density and solver settings.

        Power iteration from ``theta0`` (see :func:`stationary_density`).
        ``theta0`` is keyed by identity and held by the cache, so its id is
        not reused.  A solve that does not converge is not remembered: its
        ``NonConvergenceError`` propagates on every call.
        """
        key = (profile.key(), float(t), id(theta0), tol, max_iter, cesaro)
        if key not in self._stationary:
            solve = stationary_density(
                self.operator(profile, t), theta0, tol=tol, max_iter=max_iter, cesaro=cesaro
            )
            self._stationary[key] = (theta0, solve)
        return self._stationary[key][1]

    def scores(self, profile, theta, time_grid):
        """Renormalised push-forwards of ``theta`` over ``time_grid``, once.

        Returns ``(pushed, rel, ent)``: the push-forwards, their relative
        entropy to ``theta`` and their entropy, as read-only arrays.
        ``theta`` is keyed by identity and held by the cache, so its id is
        not reused.  Errors propagate and are not remembered here.
        """
        key = (profile.key(), id(theta), tuple(time_grid))
        if key not in self._scores:
            pushed = []
            rel = np.empty(len(time_grid))
            ent = np.empty(len(time_grid))
            for k, t in enumerate(time_grid):
                pushed.append(apply_fp(self.operator(profile, t), theta, renormalize=True))
                rel[k] = relative_entropy(pushed[k], theta)
                ent[k] = entropy(pushed[k]).value
            rel.setflags(write=False)
            ent.setflags(write=False)
            self._scores[key] = (theta, (tuple(pushed), rel, ent))
        return self._scores[key][1]


def _run_cache(system, cfg, cache, space=None):
    """``cache`` after checking its binding, or a new cache when it is None;
    ``space``, when given, must have the system's channel count."""
    if space is not None and space.n_channels != system.n_channels:
        raise ConfigurationError(
            f"space: {space.n_channels} channels for a {system.n_channels}-channel system"
        )
    if cache is None:
        return OperatorCache(system, cfg)
    if (
        cache.system is not system
        or not cache.partition.matches(cfg.partition)
        or cache._build != _build_values(cfg)
    ):
        raise ConfigurationError(
            "cache: built for another system or other build settings than the ones passed"
        )
    return cache


def criterion(system, profile, cfg, cache=None):
    """Relative-entropy score of a full profile on the time grid.

    Entry ``k`` is the relative entropy of the renormalised push-forward
    of ``cfg.theta_ref`` over ``[0, time_grid[k]]`` against
    ``cfg.theta_ref``.  The game is identical-interest: every channel
    minimises this one function of the full profile, so the score is per
    profile and takes no channel.  It is read from the memo of ``cache``
    (:meth:`OperatorCache.scores`), and the returned array is read-only.
    """
    return _run_cache(system, cfg, cache).scores(profile, cfg.theta_ref, cfg.time_grid)[1]


def _is_hurwitz(system, profile):
    if system.schedule:
        # The eigenvalue test only speaks for constant coefficients.
        return True
    M = closed_loop_matrix(system, profile)
    return bool(np.all(np.linalg.eigvals(M).real < 0.0))


def _screened_criterion(system, profile, space, cfg, cache):
    """``(criterion, None)``, or ``(None, reason)`` for a profile that fails
    the stability filter of ``space`` or leaks; ``equilibrium.json`` keeps the text."""
    if space.stability_filter and not _is_hurwitz(system, profile):
        return None, "stability filter"
    try:
        return criterion(system, profile, cfg, cache), None
    except DomainEscapeError as exc:
        return None, f"leakage: {exc}"


def _unilateral_deviations(profile, space):
    """``(channel, candidate index, profile)`` of every unilateral deviation.

    Channels and candidates are enumerated in order; the candidate equal to
    the channel's current gain is skipped.
    """
    deviations = []
    for j in range(1, space.n_channels + 1):
        current = profile.gain(j).L
        for k, L in enumerate(space.candidates[j - 1]):
            if not np.array_equal(L, current):
                deviations.append((j, k, profile.replaced(j, L)))
    return deviations


def _best_response_index(system, profile, channel, space, cfg, cache):
    """Index of the best candidate; every rejected one is named on failure."""
    best_k = None
    best_obj = None
    rejections = []
    for k, L in enumerate(space.candidates[channel - 1]):
        vec, why = _screened_criterion(
            system, profile.replaced(channel, L), space, cfg, cache
        )
        if why is not None:
            rejections.append((k, why))
            continue
        obj = float(np.max(vec))
        if best_obj is None or obj < best_obj:
            best_k, best_obj = k, obj
    if best_k is None:
        detail = "; ".join(f"candidate {k}: {why}" for k, why in rejections)
        raise EmptyStrategyError(
            f"channel {channel}: every candidate was rejected ({detail})"
        )
    return best_k


def best_response(system, profile, channel, space, cfg, cache=None):
    """Best candidate gain for one channel against fixed opposing gains.

    Minimises the worst criterion value over the time grid; exact ties go
    to the lowest candidate index.
    """
    if not 1 <= channel <= space.n_channels:
        raise ConfigurationError(f"channel: {channel} outside 1..{space.n_channels}")
    cache = _run_cache(system, cfg, cache)
    k = _best_response_index(system, profile, channel, space, cfg, cache)
    return space.gain(channel, k)


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Outcome of the round-robin best-response iteration.

    ``criterion`` is the score of the final profile over the time grid.
    The game is identical-interest, so this one vector is every channel's
    score.  ``l1_to_stationary`` and ``fixed_point_residuals`` report
    the convergence-to-stationary condition across the time grid;
    ``entropy_condition_ok`` reports the entropy dominance condition for
    the final profile.  ``history`` logs the visited candidate-index
    tuples, which shows the cycle when ``converged`` is false.
    """

    profile: FeedbackProfile
    criterion: np.ndarray
    stationary: DensityVector
    stationary_entropy: float
    rounds: int
    converged: bool
    l1_to_stationary: tuple
    fixed_point_residuals: tuple
    entropy_condition_ok: bool
    history: tuple


def _match_initial_indices(space, profile):
    indices = []
    for j, gain in enumerate(profile.gains, start=1):
        k = space.index_of(j, gain.L)
        if k is None:
            raise ConfigurationError(
                f"initial profile: channel {j} gain is not in the candidate list"
            )
        indices.append(k)
    return indices


def find_equilibrium(system, space, cfg, initial_profile, cache=None):
    """Round-robin best response until a full round changes no channel.

    On convergence the stationary density of the operator at the largest
    grid time is computed (power iteration started from ``cfg.theta_ref``)
    and the convergence and entropy-dominance conditions are evaluated for
    the final profile.  A non-converged search returns a result with
    ``converged=False`` and the visited profiles in ``history`` rather
    than raising.

    ``cache`` is an :class:`OperatorCache` for ``system`` and ``cfg`` to
    build into, so that :func:`verify_equilibrium` can reuse the search's
    operators and stationary solve; a new one is made when it is None.  A
    cache bound to another system or build values raises ``ConfigurationError``.
    """
    cache = _run_cache(system, cfg, cache, space)
    indices = _match_initial_indices(space, initial_profile)
    profile = space.profile(indices)
    history = [tuple(indices)]
    converged = False
    rounds = 0
    for rounds in range(1, cfg.max_rounds + 1):
        changed = False
        for j in range(1, space.n_channels + 1):
            k = _best_response_index(system, profile, j, space, cfg, cache)
            if k != indices[j - 1]:
                indices[j - 1] = k
                profile = space.profile(indices)
                changed = True
        history.append(tuple(indices))
        if not changed:
            converged = True
            break

    pushed, crit, ents = cache.scores(profile, cfg.theta_ref, cfg.time_grid)
    theta_star = cache.stationary(
        profile, cfg.time_grid[-1], cfg.theta_ref, cfg.stationary_tol, cfg.stationary_max_iter
    ).density
    h_star = entropy(theta_star).value

    return EquilibriumResult(
        profile=profile,
        criterion=crit,
        stationary=theta_star,
        stationary_entropy=h_star,
        rounds=rounds,
        converged=converged,
        l1_to_stationary=tuple(l1_distance(p, theta_star) for p in pushed),
        fixed_point_residuals=tuple(
            invariance_check(cache.operator(profile, t), theta_star)
            for t in cfg.time_grid
        ),
        entropy_condition_ok=bool(np.all(ents <= h_star + cfg.tol)),
        history=tuple(history),
    )


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Three equilibrium conditions with worst violation margins.

    ``condition1``: no candidate deviation lowers the criterion below the
    equilibrium value by more than tol at any grid time.  ``condition2``:
    push-forward L1 distances to the stationary density are non-increasing
    along the grid.  ``condition3``: no deviation push-forward exceeds the
    stationary entropy by more than tol.  Margins are the worst observed
    violations (positive means violated beyond tol after comparison).
    """

    condition1_ok: bool
    condition1_margin: float
    condition2_ok: bool
    condition2_margin: float
    condition3_ok: bool
    condition3_margin: float
    stationary: DensityVector
    stationary_entropy: float
    rejected: tuple
    per_density: tuple


@dataclass(frozen=True, eq=False)
class PerDensityCheck:
    density_index: int
    condition1_margin: float
    condition2_margin: float
    condition3_margin: float


def verify_equilibrium(system, profile, space, cfg, extra_densities=(), cache=None):
    """Re-check the three equilibrium conditions for a given profile.

    The criterion dominance is re-evaluated per grid time against every
    unilateral candidate deviation, for the reference density and each
    density in ``extra_densities``.  Deviations rejected by leakage or the
    stability filter are recorded in ``rejected`` and treated as
    non-improving.  A two-sided report with worst margins is returned; a
    condition passes when its margin is at most ``cfg.tol``.

    ``cache`` is an :class:`OperatorCache` for ``system`` and ``cfg``,
    typically the one :func:`find_equilibrium` filled: operators, leakage
    rejections and the stationary solve it holds are reused, and the report
    is the same as with a new cache.  A cache bound to another system or
    build values raises ``ConfigurationError``.
    """
    cache = _run_cache(system, cfg, cache, space)
    densities = [cfg.theta_ref] + list(extra_densities)
    for theta in densities:
        if not theta.partition.matches(cfg.partition):
            raise ConfigurationError("extra densities must share the reference partition")
        theta.require_unit_mass()

    theta_star = cache.stationary(
        profile, cfg.time_grid[-1], cfg.theta_ref, cfg.stationary_tol, cfg.stationary_max_iter
    ).density
    h_star = entropy(theta_star).value

    # A leak does not depend on the density, so the reference screens every
    # deviation once.
    rejected = []
    admitted = []
    for j, k, cand_profile in _unilateral_deviations(profile, space):
        why = _screened_criterion(system, cand_profile, space, cfg, cache)[1]
        if why is None:
            admitted.append(cand_profile)
        else:
            rejected.append((j, k, why))
    # Stability rejections come first, each kind in deviation order.
    rejected.sort(key=lambda r: r[2] != "stability filter")

    per_density = []
    worst1 = -np.inf
    worst2 = -np.inf
    worst3 = -np.inf
    for idx, theta in enumerate(densities):
        eq_pushed, eq_vals, eq_ents = cache.scores(profile, theta, cfg.time_grid)
        margin1 = -np.inf
        margin3 = float(np.max(eq_ents) - h_star)
        for cand_profile in admitted:
            _, dev_vals, dev_ents = cache.scores(cand_profile, theta, cfg.time_grid)
            margin1 = max(margin1, float(np.max(eq_vals - dev_vals)))
            margin3 = max(margin3, float(np.max(dev_ents) - h_star))
        dists = [l1_distance(p, theta_star) for p in eq_pushed]
        margin2 = float(np.max(np.diff(dists))) if len(dists) > 1 else 0.0
        if margin1 == -np.inf:
            margin1 = 0.0
        per_density.append(
            PerDensityCheck(
                density_index=idx,
                condition1_margin=margin1,
                condition2_margin=margin2,
                condition3_margin=margin3,
            )
        )
        worst1 = max(worst1, margin1)
        worst2 = max(worst2, margin2)
        worst3 = max(worst3, margin3)

    return VerificationReport(
        condition1_ok=worst1 <= cfg.tol,
        condition1_margin=worst1,
        condition2_ok=worst2 <= cfg.tol,
        condition2_margin=worst2,
        condition3_ok=worst3 <= cfg.tol,
        condition3_margin=worst3,
        stationary=theta_star,
        stationary_entropy=h_star,
        rejected=tuple(rejected),
        per_density=tuple(per_density),
    )


@dataclass(frozen=True, eq=False)
class ContractionEstimate:
    """Sampled contraction factor and drift over an L1 ball of densities.

    ``ball_ok`` is true when the sampled factor is below one and the drift
    satisfies ``drift <= radius * (1 - kappa)``, the sufficient condition
    for the iteration to stay inside the ball.
    """

    kappa: float
    drift: float
    ball_ok: bool
    n_pairs: int
    degenerate_resamples: int
    skipped_profiles: tuple


def sample_ball_pairs(theta0, beta, n_pairs, seed):
    """Seeded density pairs inside the L1 ball of radius ``beta`` at ``theta0``.

    Each density is a convex mixture ``(1 - lam) theta0 + lam rho`` with a
    random exponential-profile density ``rho`` and ``lam`` uniform on
    ``(0, beta / 2]``, which keeps the L1 distance to ``theta0`` within
    ``beta``.  Pairs closer than 1e-12 in L1 are resampled and counted.

    Returns ``(pairs, resamples)``.
    """
    theta0.require_unit_mass()
    if beta <= 0:
        raise ConfigurationError(f"beta: ball radius must be positive, got {beta!r}")
    if n_pairs < 1:
        raise ConfigurationError(f"n_pairs: must be >= 1, got {n_pairs!r}")
    rng = np.random.default_rng(seed)
    part = theta0.partition
    vol = part.cell_volume

    def draw():
        lam = rng.uniform(0.0, beta / 2.0)
        raw = rng.exponential(1.0, part.cell_count)
        rho = raw / (raw.sum() * vol)
        return DensityVector(part, (1.0 - lam) * theta0.values + lam * rho)

    pairs = []
    resamples = 0
    while len(pairs) < n_pairs:
        a, b = draw(), draw()
        if l1_distance(a, b) < 1e-12:
            resamples += 1
            continue
        pairs.append((a, b))
    return pairs, resamples


def contraction_estimate(system, space, cfg, theta0, beta, n_pairs, seed):
    """Estimate the L1 contraction factor over profiles, times and pairs.

    For every full candidate profile and every grid time, the ratio
    ``||push(a) - push(b)||_1 / ||a - b||_1`` is evaluated on the sampled
    pairs; ``kappa`` is the largest ratio seen and ``drift`` the largest
    ``||push(theta0) - theta0||_1``.  Push-forwards are taken without
    renormalisation so the ratio reflects the linear operator.  Profiles
    rejected by leakage are skipped and reported.
    """
    theta0.require_unit_mass()
    cache = OperatorCache(system, cfg)
    pairs, resamples = sample_ball_pairs(theta0, beta, n_pairs, seed)

    kappa = -np.inf
    drift = -np.inf
    skipped = []
    evaluated = 0
    for combo in itertools.product(*[range(len(c)) for c in space.candidates]):
        prof = space.profile(list(combo))
        for t in cfg.time_grid:
            try:
                P = cache.operator(prof, t)
            except DomainEscapeError as exc:
                skipped.append((combo, float(t), str(exc)))
                continue
            evaluated += 1
            pushed0 = apply_fp(P, theta0)
            drift = max(drift, l1_distance(pushed0, theta0))
            for a, b in pairs:
                num = l1_distance(apply_fp(P, a), apply_fp(P, b))
                den = l1_distance(a, b)
                kappa = max(kappa, num / den)
    if evaluated == 0:
        raise EmptyStrategyError(
            "contraction estimate: every profile/time was rejected by leakage"
        )
    ball_ok = bool(kappa < 1.0 and drift <= beta * (1.0 - kappa))
    return ContractionEstimate(
        kappa=float(kappa),
        drift=float(drift),
        ball_ok=ball_ok,
        n_pairs=n_pairs,
        degenerate_resamples=resamples,
        skipped_profiles=tuple(skipped),
    )


@dataclass(frozen=True)
class DecayRow:
    density_index: int
    t: float
    entropy: float
    rel_entropy_to_stationary: float


@dataclass(frozen=True, eq=False)
class DecayTrace:
    rows: tuple
    skipped: tuple
    stationary: DensityVector
    stationary_entropy: float


def entropy_decay_trace(system, profile, theta_list, t_grid, cfg):
    """Relative entropy of push-forwards against the stationary density.

    For each density in ``theta_list`` and each time in ``t_grid`` the row
    ``(density index, t, entropy, relative entropy to stationary)`` is
    produced.  Densities with mass outside the stationary support cannot
    have a finite trace and are skipped with a warning; the skip list
    records ``(index, offending mass)``.
    """
    grid = _checked_grid(t_grid, cfg.tol, cfg.max_rounds, name="t_grid")
    cache = OperatorCache(system, cfg)
    theta_star = cache.stationary(
        profile, grid[-1], cfg.theta_ref, cfg.stationary_tol, cfg.stationary_max_iter
    ).density
    h_star = entropy(theta_star).value
    vol = cfg.partition.cell_volume

    rows = []
    skipped = []
    for idx, theta in enumerate(theta_list):
        theta.require_unit_mass()
        outside = (theta.values > 0) & (theta_star.values == 0)
        if np.any(outside):
            mass = float(theta.values[outside].sum() * vol)
            warnings.warn(
                f"density {idx}: mass {mass:.3e} outside the stationary support, "
                f"relative entropy is not finite; skipping",
                RuntimeWarning,
                stacklevel=2,
            )
            skipped.append((idx, mass))
            continue
        for t in grid:
            P = cache.operator(profile, t)
            pushed = apply_fp(P, theta, renormalize=True)
            try:
                value = relative_entropy(pushed, theta_star)
            except SupportError:
                warnings.warn(
                    f"density {idx}: push-forward at t={t:.6g} left the stationary "
                    f"support; recording NaN",
                    RuntimeWarning,
                    stacklevel=2,
                )
                value = float("nan")
            rows.append(
                DecayRow(
                    density_index=idx,
                    t=t,
                    entropy=entropy(pushed).value,
                    rel_entropy_to_stationary=value,
                )
            )
    return DecayTrace(
        rows=tuple(rows),
        skipped=tuple(skipped),
        stationary=theta_star,
        stationary_entropy=h_star,
    )
