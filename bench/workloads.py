"""Seeded inputs, CLI arguments and output checks for each benchmark workload.

Every op gets its own scenario file, generated from ``(workload, seed, op
index)`` before it is timed; density inputs are written next to it.  The
program sees nothing but these files.  Each ``check_*`` function reads one
op's artifacts and returns a list of problems (empty when the op is correct).
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from pathlib import Path

import numpy as np

# grid-ulam's 64x64 operator (counts and entries, 134 MB each) exceeds a
# 105 MB L3, so its assembly and writer run from memory.  The stationary and
# trace workloads use 48x48 (42 MB each) to keep several ops in a run; their
# operators fit in such an L3.
ULAM_CELLS = 64
GRID_CELLS = 48
GRID_SAMPLES = 16
GAME_CELLS = 16
NOISE_CELLS = 16

# The minimal scenario printed in README.md, checked once per run of the
# noise-resilience workload.
README_SCENARIO = {
    "system": {
        "d": 1,
        "A": [[0.0]],
        "channels": [
            {"B": [[1.0]], "gains": [[-0.5]]},
            {"B": [[1.0]], "gains": [[0.5]]},
        ],
    },
    "domain": {"lower": [-1.0], "upper": [1.0], "cells_per_axis": [64]},
    "ulam": {"samples_per_cell": 8},
    "game": {
        "time_grid": [0.5, 1.0],
        "candidates": [
            [[[-0.5]], [[0.25]], [[0.5]]],
            [[[0.5]], [[-0.2]], [[0.1]]],
        ],
    },
    "perturb": {
        "sigma": [[1.0]],
        "epsilon_list": [0.1, 0.05, 0.0],
        "h": 0.01,
        "n_paths": 200,
        "seed": 42,
        "t": 1.0,
    },
}

README_COMMANDS = ("ulam", "stationary", "entropy-trace", "equilibrium", "perturb", "resilience")


def readme_flags(command, nproc):
    """README flags per subcommand; its ``--threads 8`` is capped at nproc."""
    if command == "resilience":
        return ["--threads", str(min(8, nproc)), "--kl-floor"]
    return []


class Op:
    """One CLI call: subcommand, flags, scenario file and the parsed scenario."""

    def __init__(self, command, flags, config_path, scenario):
        self.command = command
        self.flags = list(flags)
        self.config_path = config_path
        self.scenario = scenario

    def argv(self, out_dir, flags=None):
        return [
            self.command, "--config", str(self.config_path), "--out", str(out_dir),
            *(self.flags if flags is None else flags),
        ]


# --------------------------------------------------------------------------
# input generation


def _rng(workload, seed, index):
    return np.random.default_rng([zlib.crc32(workload.encode()), seed, index])


def _grid_partition(cells):
    return {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "cells_per_axis": [cells, cells]}


def _contracting_loop(rng, offdiag):
    """2-D closed loop ``A + L1 + L2`` that maps the box [-1, 1]^2 into itself.

    The closed-loop matrix has decay rates in [0.2, 0.3] on the diagonal and
    off-diagonal terms below ``offdiag`` (< 0.2), so it is diagonally
    dominant with a negative diagonal: the max-norm of the state shrinks and
    no sample image leaves the box.
    """
    M = np.diag(-rng.uniform(0.2, 0.3, 2))
    if offdiag:
        M[0, 1], M[1, 0] = rng.uniform(-offdiag, offdiag, 2)
    A = rng.uniform(-0.05, 0.05, (2, 2)) if offdiag else np.diag(rng.uniform(-0.05, 0.05, 2))
    L1 = rng.uniform(-0.1, 0.1, (2, 2)) if offdiag else np.diag(rng.uniform(-0.1, 0.1, 2))
    L2 = M - A - L1
    eye = np.eye(2).tolist()
    return {
        "d": 2,
        "A": A.tolist(),
        "channels": [{"B": eye, "gains": L1.tolist()}, {"B": eye, "gains": L2.tolist()}],
    }


def write_density_file(path, partition, values):
    """Density CSV plus partition sidecar, in the format the CLI reads."""
    cells = partition["cells_per_axis"]
    volume = float(np.prod((np.array(partition["upper"]) - partition["lower"]) / cells))
    values = np.asarray(values, dtype=float)
    values = values / (values.sum() * volume)
    lines = ["cell_index,value"] + [f"{i},{format(v, '.17g')}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar = {"kind": "density", "partition": partition}
    path.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True), encoding="utf-8")


def _central_block(rng, cells, width):
    """Random positive weights on the central ``width x width`` cells."""
    values = np.zeros((cells, cells))
    lo = cells // 2 - width // 2
    values[lo:lo + width, lo:lo + width] = rng.uniform(0.5, 1.5, (width, width))
    return values.ravel()


def _grid_scenario(rng, cells):
    return {
        "system": _contracting_loop(rng, offdiag=0.05),
        "domain": _grid_partition(cells),
        "ulam": {"samples_per_cell": GRID_SAMPLES},
    }


def _trace_scenario(rng, in_dir, index):
    # Rotation-free loop: each quadrant is invariant, so the four central
    # cells carry their own mass and lie in the stationary support.  The
    # 8x8 block reaches outside that support and is reported as skipped.
    partition = _grid_partition(GRID_CELLS)
    ref = in_dir / f"ref-{index:05d}.csv"
    wide = in_dir / f"wide-{index:05d}.csv"
    write_density_file(ref, partition, _central_block(rng, GRID_CELLS, 2))
    write_density_file(wide, partition, _central_block(rng, GRID_CELLS, 8))
    times = sorted(rng.choice(np.arange(1, 9) * 0.25, 2, replace=False).tolist())
    return {
        "system": _contracting_loop(rng, offdiag=0.0),
        "domain": partition,
        "ulam": {"samples_per_cell": GRID_SAMPLES},
        "game": {"time_grid": times, "reference": str(ref), "trace_densities": [str(wide)]},
    }


def _game_scenario(rng):
    # Candidate rule: every gain is -c * I, with c spaced 0.1 apart per
    # channel, and A is diagonal-dominant with a non-positive diagonal.  Every
    # profile then keeps the box invariant, so no candidate is rejected, and
    # the criterion grows with the total c, so each channel's best response
    # is its smallest c whatever the others play.  Candidate 0, the starting
    # profile, is the largest c: the search moves once and converges in two
    # rounds, so every op does the same amount of work.
    A = rng.uniform(-0.02, 0.02, (2, 2))
    A[np.diag_indices(2)] = rng.uniform(-0.05, 0.0, 2)
    candidates = []
    for _ in range(3):
        c = rng.uniform(0.05, 0.08) + np.array([0.2, 0.1, 0.0]) + rng.uniform(-0.02, 0.02, 3)
        candidates.append([(-ck * np.eye(2)).tolist() for ck in c])
    times = sorted(rng.choice(np.arange(1, 7) * 0.25, 3, replace=False).tolist())
    eye = np.eye(2).tolist()
    return {
        "system": {
            "d": 2,
            "A": A.tolist(),
            "channels": [{"B": eye, "gains": c[0]} for c in candidates],
        },
        "domain": _grid_partition(GAME_CELLS),
        "ulam": {"samples_per_cell": 4},
        "game": {"time_grid": times, "candidates": candidates},
    }


def _noise_system(rng):
    # Two channels whose gains sum to a closed-loop rate in [-4, -2]: paths
    # started in the edge cells stay well inside the box at these noise levels.
    candidates = [[[[-float(rng.uniform(1.0, 2.0))]] for _ in range(2)] for _ in range(2)]
    system = {
        "d": 1,
        "A": [[0.0]],
        "channels": [{"B": [[1.0]], "gains": c[0]} for c in candidates],
    }
    return system, candidates


def _resilience_scenario(rng):
    system, candidates = _noise_system(rng)
    return {
        "system": system,
        "domain": {"lower": [-1.0], "upper": [1.0], "cells_per_axis": [NOISE_CELLS]},
        "ulam": {"samples_per_cell": 8},
        "game": {"time_grid": [0.5], "candidates": candidates},
        "perturb": {
            "sigma": [[float(rng.uniform(0.2, 0.4))]],
            "epsilon_list": [0.1, 0.05, 0.0],
            "h": 0.01,
            "n_paths": 100,
            "seed": int(rng.integers(0, 2**31)),
            "t": 0.5,
        },
    }


def _perturb_scenario(rng):
    system, _ = _noise_system(rng)
    return {
        "system": system,
        "domain": {"lower": [-1.0], "upper": [1.0], "cells_per_axis": [NOISE_CELLS]},
        "ulam": {"samples_per_cell": 8},
        "perturb": {
            "sigma": [[float(rng.uniform(0.2, 0.4))]],
            "epsilon_list": [0.1, 0.0],
            "h": 0.005,
            "n_paths": 10000,
            "seed": int(rng.integers(0, 2**31)),
            "t": 1.0,
            "x0": [float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.7))],
        },
    }


# name -> (subcommand, flags, scenario maker(rng, input dir, op index))
WORKLOADS = {
    "grid-ulam": ("ulam", ["--threads", "1"], lambda rng, d, i: _grid_scenario(rng, ULAM_CELLS)),
    "grid-stationary": (
        "stationary", ["--threads", "1"], lambda rng, d, i: _grid_scenario(rng, GRID_CELLS)
    ),
    "grid-trace": ("entropy-trace", ["--threads", "1"], _trace_scenario),
    "game": ("equilibrium", ["--threads", "1"], lambda rng, d, i: _game_scenario(rng)),
    "noise-resilience": (
        "resilience",
        ["--kl-floor", "--with-deviations", "--threads", "2"],
        lambda rng, d, i: _resilience_scenario(rng),
    ),
    "noise-perturb": ("perturb", ["--threads", "1"], lambda rng, d, i: _perturb_scenario(rng)),
}


def make_ops(workload, seed, in_dir, start, count):
    """Write scenario files for ops ``start .. start+count-1``; return the ops."""
    command, flags, maker = WORKLOADS[workload]
    ops = []
    for index in range(start, start + count):
        scenario = maker(_rng(workload, seed, index), in_dir, index)
        path = in_dir / f"scenario-{index:05d}.json"
        path.write_text(json.dumps(scenario, sort_keys=True), encoding="utf-8")
        ops.append(Op(command, flags, path, scenario))
    return ops


def readme_ops(in_dir, nproc):
    path = in_dir / "readme-scenario.json"
    path.write_text(json.dumps(README_SCENARIO, sort_keys=True), encoding="utf-8")
    return [Op(c, readme_flags(c, nproc), path, README_SCENARIO) for c in README_COMMANDS]


# --------------------------------------------------------------------------
# output checks


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _cell_count(scenario):
    return int(np.prod(scenario["domain"]["cells_per_axis"]))


def _cell_volume(scenario):
    dom = scenario["domain"]
    return float(np.prod((np.array(dom["upper"]) - dom["lower"]) / dom["cells_per_axis"]))


def check_ulam(op, out):
    """Each row's values plus its sidecar leakage sum to 1; values are k/S."""
    S = op.scenario["ulam"]["samples_per_cell"]
    M = _cell_count(op.scenario)
    data = np.loadtxt(out / "ulam.csv", delimiter=",", skiprows=1, ndmin=2)
    leakage = np.asarray(_json(out / "ulam.json")["leakage"], dtype=float)
    problems = []
    if leakage.shape != (M,):
        return [f"ulam.json: {leakage.shape[0]} leakage entries for {M} cells"]
    rows = data[:, 0].astype(np.int64)
    values = data[:, 2]
    totals = np.bincount(rows, weights=values, minlength=M) + leakage
    worst = int(np.argmax(np.abs(totals - 1.0)))
    if abs(totals[worst] - 1.0) > 1e-12:
        problems.append(f"row {worst}: values plus leakage sum to {totals[worst]!r}")
    scaled = values * S
    if np.any(np.abs(scaled - np.round(scaled)) > 1e-9) or np.any(values <= 0):
        problems.append(f"a value is not a positive multiple of 1/{S}")
    return problems


def check_stationary(op, out):
    """The density has unit mass and the solve reports a finite residual."""
    meta = _json(out / "stationary.json")
    values = np.loadtxt(out / "stationary_density.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    mass = float(values.sum() * _cell_volume(op.scenario))
    problems = []
    if abs(mass - 1.0) > 1e-9 or abs(meta["mass"] - 1.0) > 1e-9:
        problems.append(f"stationary density mass {mass!r} (reported {meta['mass']!r})")
    residual = meta.get("residual")
    if not isinstance(residual, float) or not math.isfinite(residual):
        problems.append(f"stationary residual not reported: {residual!r}")
    if not isinstance(meta.get("iterations"), int) or meta["iterations"] < 1:
        problems.append("stationary iterations not reported")
    return problems


def check_entropy_trace(op, out):
    """Every density appears as one row per grid time or as a skip.

    The generator places the reference (density 0) inside the stationary
    support and the wide block (density 1) outside it, so density 0 must
    have its rows and density 1 must be skipped.
    """
    game = op.scenario["game"]
    n_densities = 1 + len(game.get("trace_densities", []))
    n_times = len(game["time_grid"])
    _, rows = _read_csv(out / "entropy_trace.csv")
    skipped = {s["density_id"] for s in _json(out / "entropy_trace.json")["skipped"]}
    counts = {}
    for row in rows:
        counts[int(row[0])] = counts.get(int(row[0]), 0) + 1
    expected_skips = set(range(1, n_densities))
    problems = []
    if skipped != expected_skips:
        problems.append(f"skipped densities {sorted(skipped)}, expected {sorted(expected_skips)}")
    for idx in range(n_densities):
        rows_for = counts.get(idx, 0)
        if rows_for != (0 if idx in expected_skips else n_times):
            problems.append(f"density {idx}: {rows_for} rows, skipped={idx in skipped}")
    return problems


def check_equilibrium(op, out):
    """The search converged and the verification block is present."""
    meta = _json(out / "equilibrium.json")
    problems = []
    if meta.get("converged") is not True:
        problems.append(f"search did not converge in {meta.get('rounds')} rounds")
    if "verification" not in meta:
        problems.append("verification block missing")
    return problems


def check_resilience(op, out):
    """Rows at epsilon 0 are exactly zero; theta_eps is finite under --kl-floor."""
    _, rows = _read_csv(out / "resilience.csv")
    problems = []
    zero_rows = [r for r in rows if float(r[0]) == 0.0]
    if not zero_rows:
        problems.append("no epsilon=0 rows")
    if any(float(v) != 0.0 for r in zero_rows for v in (r[3], r[4], r[5])):
        problems.append("an epsilon=0 row is not exactly zero")
    theta = _json(out / "resilience.json")["theta_eps"]
    if "--kl-floor" in op.flags and any(t["value"] is None for t in theta):
        problems.append(f"theta_eps not finite under --kl-floor: {theta}")
    return problems


def ou_moments(a, sigma, eps, x0, h, n_steps):
    """Closed-form Ornstein-Uhlenbeck mean and variance at t = h * n_steps,
    and the same moments for the Euler-Maruyama recursion with step h."""
    t = h * n_steps
    mean = math.exp(a * t) * x0
    var = eps * sigma**2 * (t if a == 0.0 else math.expm1(2.0 * a * t) / (2.0 * a))
    r = 1.0 + a * h
    mean_em = r**n_steps * x0
    var_em = eps * sigma**2 * h * (n_steps if r * r == 1.0 else (r ** (2 * n_steps) - 1.0) / (r * r - 1.0))
    return mean, var, mean_em, var_em


def check_perturb(op, out):
    """Endpoint moments fall within a Monte Carlo band of the OU values.

    The band is five standard errors of the estimate plus the exact gap
    between the closed-form OU moment and the Euler-Maruyama moment at the
    scenario's step.  At epsilon 0 every path is the same.
    """
    sc = op.scenario
    p = sc["perturb"]
    if sc["system"]["d"] != 1:
        return ["perturb check supports 1-D scenarios only"]
    a = sc["system"]["A"][0][0] + sum(
        ch["B"][0][0] * ch["gains"][0][0] for ch in sc["system"]["channels"]
    )
    sigma = p["sigma"][0][0]
    dom = sc["domain"]
    x0 = p["x0"][0] if p.get("x0") else (dom["lower"][0] + dom["upper"][0]) / 2.0
    n_steps = max(1, int(round(p["t"] / p["h"])))
    n = p["n_paths"]
    _, rows = _read_csv(out / "perturb_stats.csv")
    problems = []
    if len(rows) != len(p["epsilon_list"]):
        problems.append(f"{len(rows)} rows for {len(p['epsilon_list'])} noise levels")
    for row in rows:
        eps, mean, var = float(row[0]), float(row[2]), float(row[3])
        m, v, m_em, v_em = ou_moments(a, sigma, eps, x0, p["h"], n_steps)
        if eps == 0.0:
            # Identical paths: the variance is zero up to the rounding of the
            # mean, and the mean is the Euler recursion up to rounding.
            if var > 1e-20 or abs(mean - m_em) > 1e-9 * abs(m_em) + 1e-15:
                problems.append(f"eps=0: mean {mean!r} var {var!r}, expected {m_em!r} and 0")
            continue
        if abs(mean - m) > 5.0 * math.sqrt(v / n) + abs(m_em - m):
            problems.append(f"eps={eps}: mean {mean!r} outside the band around {m!r}")
        if abs(var - v) > 5.0 * v * math.sqrt(2.0 / (n - 1)) + abs(v_em - v):
            problems.append(f"eps={eps}: variance {var!r} outside the band around {v!r}")
    return problems


CHECKS = {
    "ulam": check_ulam,
    "stationary": check_stationary,
    "entropy-trace": check_entropy_trace,
    "equilibrium": check_equilibrium,
    "resilience": check_resilience,
    "perturb": check_perturb,
}


def check(op, out):
    try:
        return CHECKS[op.command](op, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable artifacts: {exc!r}"]
