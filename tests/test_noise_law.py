"""The counted noisy operator against the exact law of its paths.

In 1-D with a linear drift and additive noise, the Euler-Maruyama endpoint
from a start ``z`` is Gaussian: step ``k`` maps ``z`` to ``z T_k + sqrt(eps
h) sigma xi`` with ``T_k = 1 + m_k h``, so the mean is ``z prod_k T_k`` and
the variance ``eps h sigma**2 sum_k prod_{j>k} T_j**2``; for a constant
drift that is ``z T**n`` and ``eps h sigma**2 sum_{k<n} T**(2k)``.  A row's
expected count in a cell is the sum over the row's starts of the Gaussian
mass of that cell, and a Pearson X**2 test compares it with the counts of
the build.  The paths of a row start at different points, so each count is
a sum of unequal Bernoulli draws whose variance is below the multinomial
one; the chi-square reference is then conservative.
"""

import numpy as np
import pytest
from scipy import stats

from entrogame import (
    FeedbackGain,
    FeedbackProfile,
    MultiChannelSystem,
    NoiseSpec,
    ScheduleSegment,
    SdePathConfig,
    build_stochastic_ulam,
)
from conftest import counts_of, line_partition, start_offsets, step_drifts

# Family-wise threshold over the builds below (Bonferroni), fixed with the
# seeds before the first run.
FAMILY_ALPHA = 1e-6
N_BUILDS = 2
MIN_EXPECTED = 5.0


def endpoint_law(system, profile, eps, sigma, h, n_steps):
    """Mean factor and variance of the 1-D Euler-Maruyama endpoint."""
    factor, var = 1.0, 0.0
    for drift in step_drifts(system, profile, h, n_steps):
        T = 1.0 + float(drift[0, 0]) * h
        factor *= T
        var = var * T * T + eps * h * sigma**2
    return factor, var


def pearson(P, system, profile, eps, sigma, t, path_cfg):
    """X**2 and degrees of freedom of the build's counts, bins with an
    expected count below ``MIN_EXPECTED`` pooled per row with escape."""
    part = P.partition
    n_steps = max(1, int(round(t / path_cfg.h)))
    factor, var = endpoint_law(system, profile, eps, sigma, t / n_steps, n_steps)
    edges = np.linspace(part.lower[0], part.upper[0], part.cell_count + 1)
    corners = part.lower[0] + np.arange(part.cell_count) * part.widths[0]
    starts = corners[:, None] + start_offsets(part, path_cfg.n_paths)[:, 0]
    cdf = stats.norm.cdf(edges, loc=(starts * factor)[:, :, None], scale=np.sqrt(var))
    expected = np.diff(cdf, axis=2).sum(axis=1)
    observed = counts_of(P).astype(float)
    x2, dof = 0.0, 0
    for e_row, o_row in zip(expected, observed):
        big = e_row >= MIN_EXPECTED
        e = np.append(e_row[big], path_cfg.n_paths - e_row[big].sum())
        o = np.append(o_row[big], path_cfg.n_paths - o_row[big].sum())
        keep = e > 0
        x2 += float(((o[keep] - e[keep]) ** 2 / e[keep]).sum())
        dof += int(keep.sum()) - 1
    return x2, dof


def scalar_loop(*segments):
    """1-D system with one channel, ``B = 1``, and the given ``(start, a)``
    drift segments; the gain is zero, so the closed-loop drift is ``a``."""
    schedule = tuple(ScheduleSegment(s, np.array([[a]]), (np.array([[1.0]]),)) for s, a in segments)
    system = MultiChannelSystem(
        A=np.array([[segments[0][1]]]), B=(np.array([[1.0]]),), schedule=schedule
    )
    return system, FeedbackProfile((FeedbackGain(1, np.array([[0.0]])),))


@pytest.mark.parametrize(
    "segments, eps, t, seed",
    [
        (((0.0, -1.0),), 0.05, 1.0, 2026),
        (((0.0, -1.5), (0.4, 0.5)), 0.08, 0.8, 1019),
    ],
    ids=["constant drift", "breakpoint inside the horizon"],
)
def test_stochastic_counts_follow_the_exact_gaussian_law(segments, eps, t, seed):
    system, profile = scalar_loop(*segments)
    sigma = 1.0
    noise = NoiseSpec(np.array([[sigma]]), (eps,))
    path_cfg = SdePathConfig(h=0.01, n_steps=1, n_paths=400, seed=seed)
    part = line_partition(16)
    P = build_stochastic_ulam(part, system, profile, noise, eps, t, path_cfg, leak_tol=1.0)
    x2, dof = pearson(P, system, profile, eps, sigma, t, path_cfg)
    assert dof > 16
    p_value = stats.chi2.sf(x2, dof)
    assert p_value >= FAMILY_ALPHA / N_BUILDS, (x2, dof, p_value)
