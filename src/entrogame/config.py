"""Scenario files: one JSON document drives every subcommand.

The parser checks JSON types, JSON paths and the dimensions shared across
blocks.  Value rules live in the model classes it builds (``Partition``,
``StrategySpace``, ``NoiseSpec``, ``SdePathConfig``) and in the checks it
shares with the code that runs (``game._checked_grid``,
``transfer._check_leak_tol`` and ``transfer._check_iteration``).  It
re-raises their errors under the block's prefix, so every error carries
the JSON path of the offending field, e.g.
``game.time_grid[2]: must be increasing``.  The whole file is checked at
load, whichever subcommand runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .game import GameConfig, StrategySpace, _checked_grid
from .perturb import NoiseSpec, SdePathConfig, _step_count
from .system import FeedbackGain, FeedbackProfile, MultiChannelSystem, ScheduleSegment
from .transfer import DensityVector, Partition, _check_iteration, _check_leak_tol

__all__ = ["ScenarioConfig", "load_scenario", "parse_scenario"]


def _require(mapping, key, path, kind=None):
    if key not in mapping:
        raise ConfigurationError(f"{path}.{key}: missing required field")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        names = kind if isinstance(kind, tuple) else (kind,)
        wanted = "/".join(k.__name__ for k in names)
        raise ConfigurationError(
            f"{path}.{key}: expected {wanted}, got {type(value).__name__}"
        )
    return value


def _optional_block(raw, key):
    """A top-level block that may be absent or null, as a dict."""
    if raw.get(key) is None:
        return {}
    return _require(raw, key, "scenario", dict)


@contextmanager
def _block(prefix):
    """Re-raise a model class's ``ConfigurationError`` under its JSON block."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"{prefix}.{exc}") from None


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path}: expected a number, got {type(value).__name__}")
    # json reads NaN, Infinity and integers past the float range.
    if not abs(value) <= sys.float_info.max:
        raise ConfigurationError(f"{path}: expected a finite number")
    return float(value)


def _int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{path}: expected an integer, got {type(value).__name__}")
    return value


def _bool(value, path):
    if not isinstance(value, bool):
        raise ConfigurationError(f"{path}: expected true or false, got {type(value).__name__}")
    return value


def _vector(value, path):
    if not isinstance(value, list) or not value:
        raise ConfigurationError(f"{path}: expected a non-empty list of numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _matrix(value, path):
    if not isinstance(value, list) or not value:
        raise ConfigurationError(f"{path}: expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ConfigurationError(f"{path}[{i}]: expected a non-empty list of numbers")
        vals = [_number(v, f"{path}[{i}][{k}]") for k, v in enumerate(row)]
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ConfigurationError(f"{path}[{i}]: ragged row (expected {width} entries)")
        rows.append(vals)
    return np.array(rows)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Parsed scenario: system, domain grid, and per-subcommand blocks."""

    system: MultiChannelSystem
    profile: FeedbackProfile
    partition: Partition
    leak_tol: float
    samples_per_cell: int
    t_step: float
    integration_steps: int
    stationary_tol: float
    stationary_max_iter: int
    stationary_cesaro: bool
    game: dict | None
    perturb: dict | None
    output_dir: str
    config_sha256: str
    raw: dict = field(repr=False, default=None)

    def require_game(self):
        if self.game is None:
            raise ConfigurationError("game: block required for this subcommand")
        return self.game

    def require_perturb(self):
        if self.perturb is None:
            raise ConfigurationError("perturb: block required for this subcommand")
        return self.perturb

    def reference_density(self):
        spec = (self.game or {}).get("reference", "uniform")
        if spec == "uniform":
            return DensityVector.uniform(self.partition)
        from .artifacts import read_density

        theta = read_density(Path(spec))
        if not theta.partition.matches(self.partition):
            raise ConfigurationError(
                "game.reference: density partition does not match the domain block"
            )
        return theta

    def game_config(self):
        game = self.require_game()
        return GameConfig(
            time_grid=game["time_grid"],
            theta_ref=self.reference_density(),
            samples_per_cell=self.samples_per_cell,
            tol=game["tol"],
            max_rounds=game["max_rounds"],
            leak_tol=self.leak_tol,
            integration_steps=self.integration_steps,
            stationary_tol=self.stationary_tol,
            stationary_max_iter=self.stationary_max_iter,
        )

    def strategy_space(self):
        space = self.require_game()["space"]
        if space is None:
            raise ConfigurationError("game.candidates: missing required field")
        return space

    def noise_spec(self):
        return self.require_perturb()["noise"]

    def path_config(self, seed_override=None):
        path = self.require_perturb()["path"]
        return path if seed_override is None else dataclasses.replace(path, seed=seed_override)


def _parse_system(block):
    d = _int(_require(block, "d", "system"), "system.d")
    if d < 1:
        raise ConfigurationError(f"system.d: must be >= 1, got {d}")
    A = _matrix(_require(block, "A", "system"), "system.A")
    if A.shape != (d, d):
        raise ConfigurationError(f"system.A: shape {A.shape} does not match ({d}, {d})")
    channels = _require(block, "channels", "system", list)
    if not channels:
        raise ConfigurationError("system.channels: at least one channel is required")
    B = []
    gains = []
    for j, ch in enumerate(channels):
        path = f"system.channels[{j}]"
        if not isinstance(ch, dict):
            raise ConfigurationError(f"{path}: expected an object")
        b = _matrix(_require(ch, "B", path), f"{path}.B")
        if b.shape[0] != d:
            raise ConfigurationError(f"{path}.B: expected {d} rows, got {b.shape[0]}")
        L = _matrix(_require(ch, "gains", path), f"{path}.gains")
        if L.shape != (b.shape[1], d):
            raise ConfigurationError(
                f"{path}.gains: shape {L.shape} does not match ({b.shape[1]}, {d})"
            )
        B.append(b)
        gains.append(FeedbackGain(j + 1, L))

    schedule = []
    for k, seg in enumerate(block.get("schedule", []) or []):
        path = f"system.schedule[{k}]"
        if not isinstance(seg, dict):
            raise ConfigurationError(f"{path}: expected an object")
        start = _number(_require(seg, "start", path), f"{path}.start")
        A_k = _matrix(_require(seg, "A", path), f"{path}.A")
        B_k = [
            _matrix(b, f"{path}.B[{j}]")
            for j, b in enumerate(_require(seg, "B", path, list))
        ]
        schedule.append(ScheduleSegment(start, A_k, tuple(B_k)))

    system = MultiChannelSystem(A, tuple(B), tuple(schedule))
    return system, FeedbackProfile(tuple(gains))


def _parse_domain(block):
    lower = _vector(_require(block, "lower", "domain"), "domain.lower")
    upper = _vector(_require(block, "upper", "domain"), "domain.upper")
    cells = _require(block, "cells_per_axis", "domain", list)
    cells = [_int(c, f"domain.cells_per_axis[{i}]") for i, c in enumerate(cells)]
    leak_tol = _number(block.get("leak_tol", 0.05), "domain.leak_tol")
    with _block("domain"):
        _check_leak_tol(leak_tol)
        return Partition(lower, upper, np.array(cells, dtype=np.int64)), leak_tol


def _parse_game(block, n_channels):
    grid = _require(block, "time_grid", "game", list)
    grid = [_number(t, f"game.time_grid[{i}]") for i, t in enumerate(grid)]
    candidates = None
    if "candidates" in block:
        raw = _require(block, "candidates", "game", list)
        if len(raw) != n_channels:
            raise ConfigurationError(
                f"game.candidates: expected {n_channels} channel lists, got {len(raw)}"
            )
        candidates = []
        for j, cand_list in enumerate(raw):
            path = f"game.candidates[{j}]"
            if not isinstance(cand_list, list):
                raise ConfigurationError(f"{path}: expected a list of gain matrices")
            candidates.append([_matrix(L, f"{path}[{k}]") for k, L in enumerate(cand_list)])

    tol = _number(block.get("tol", 1e-9), "game.tol")
    max_rounds = _int(block.get("max_rounds", 20), "game.max_rounds")
    reference = block.get("reference", "uniform")
    if not isinstance(reference, str):
        raise ConfigurationError("game.reference: expected 'uniform' or a density CSV path")
    trace = block.get("trace_densities", []) or []
    if not isinstance(trace, list) or not all(isinstance(p, str) for p in trace):
        raise ConfigurationError("game.trace_densities: expected a list of CSV paths")
    stability_filter = _bool(block.get("stability_filter", False), "game.stability_filter")
    with _block("game"):
        grid = _checked_grid(grid, tol, max_rounds)
        space = None if candidates is None else StrategySpace(
            candidates, stability_filter=stability_filter
        )
    return {
        "time_grid": grid,
        "space": space,
        "tol": tol,
        "max_rounds": max_rounds,
        "reference": reference,
        "trace_densities": tuple(trace),
    }


def _parse_perturb(block, dim):
    sigma = _matrix(_require(block, "sigma", "perturb"), "perturb.sigma")
    if sigma.shape != (dim, dim):
        raise ConfigurationError(
            f"perturb.sigma: shape {sigma.shape} does not match ({dim}, {dim})"
        )
    eps = _require(block, "epsilon_list", "perturb", list)
    eps = [_number(e, f"perturb.epsilon_list[{i}]") for i, e in enumerate(eps)]
    h = _number(_require(block, "h", "perturb"), "perturb.h")
    n_paths = _int(_require(block, "n_paths", "perturb"), "perturb.n_paths")
    seed = _int(_require(block, "seed", "perturb"), "perturb.seed")
    t = _number(block.get("t", 1.0), "perturb.t")
    if t <= 0:
        raise ConfigurationError(f"perturb.t: horizon must be positive, got {t}")
    x0 = block.get("x0")
    if x0 is not None:
        x0 = _vector(x0, "perturb.x0")
        if x0.shape[0] != dim:
            raise ConfigurationError(
                f"perturb.x0: expected {dim} components, got {x0.shape[0]}"
            )
    with _block("perturb"):
        noise = NoiseSpec(sigma, eps)
        # t / h is formed only for h > 0; SdePathConfig words the refusal of any other h.
        n_steps = _step_count(t, h) if h > 0 else 1
        path = SdePathConfig(h=h, n_steps=n_steps, n_paths=n_paths, seed=seed)
    return {"noise": noise, "path": path, "x0": x0}


def parse_scenario(raw, config_sha256=""):
    """Validate a scenario dictionary into a ScenarioConfig."""
    if not isinstance(raw, dict):
        raise ConfigurationError("scenario: top level must be a JSON object")
    system, profile = _parse_system(_require(raw, "system", "scenario", dict))
    partition, leak_tol = _parse_domain(_require(raw, "domain", "scenario", dict))
    if partition.dim != system.dim:
        raise ConfigurationError(
            f"domain.lower: dimension {partition.dim} does not match system.d={system.dim}"
        )

    ulam = _require(raw, "ulam", "scenario", dict)
    samples = _int(_require(ulam, "samples_per_cell", "ulam"), "ulam.samples_per_cell")
    t_step = _number(ulam.get("t_step", 1.0), "ulam.t_step")
    if t_step <= 0:
        raise ConfigurationError(f"ulam.t_step: must be positive, got {t_step}")
    integration_steps = _int(ulam.get("integration_steps", 200), "ulam.integration_steps")
    if integration_steps < 1:
        raise ConfigurationError("ulam.integration_steps: must be >= 1")

    stationary = _optional_block(raw, "stationary")
    st_tol = _number(stationary.get("tol", 1e-10), "stationary.tol")
    st_max = _int(stationary.get("max_iter", 5000), "stationary.max_iter")
    st_cesaro = _bool(stationary.get("cesaro", False), "stationary.cesaro")
    with _block("stationary"):
        _check_iteration(st_tol, st_max)

    game = None
    if "game" in raw:
        game = _parse_game(_require(raw, "game", "scenario", dict), system.n_channels)
    perturb = None
    if "perturb" in raw:
        perturb = _parse_perturb(_require(raw, "perturb", "scenario", dict), system.dim)

    out_dir = _optional_block(raw, "output").get("directory", "out")
    if not isinstance(out_dir, str):
        raise ConfigurationError("output.directory: expected a string path")

    return ScenarioConfig(
        system=system,
        profile=profile,
        partition=partition,
        leak_tol=leak_tol,
        samples_per_cell=samples,
        t_step=t_step,
        integration_steps=integration_steps,
        stationary_tol=st_tol,
        stationary_max_iter=st_max,
        stationary_cesaro=st_cesaro,
        game=game,
        perturb=perturb,
        output_dir=out_dir,
        config_sha256=config_sha256,
        raw=raw,
    )


def load_scenario(path):
    """Read, hash and validate a scenario JSON file."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"config: cannot read {p}: {exc}") from exc
    try:
        raw = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"config: invalid JSON in {p}: {exc}") from exc
    return parse_scenario(raw, config_sha256=hashlib.sha256(data).hexdigest())
