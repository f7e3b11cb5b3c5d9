import copy
import hashlib
import json

import numpy as np
import pytest

from entrogame import ConfigurationError, DensityVector
from entrogame.artifacts import write_density
from entrogame.config import load_scenario, parse_scenario
from conftest import line_partition


def base_scenario():
    return {
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


def variant(mutate):
    raw = copy.deepcopy(base_scenario())
    mutate(raw)
    return raw


def test_full_scenario_parses():
    cfg = parse_scenario(base_scenario())
    assert cfg.system.dim == 1
    assert cfg.system.n_channels == 2
    assert cfg.partition.cell_count == 64
    assert cfg.leak_tol == 0.05
    assert cfg.samples_per_cell == 8
    assert cfg.t_step == 1.0
    assert cfg.integration_steps == 200
    assert cfg.stationary_tol == 1e-10
    assert cfg.stationary_max_iter == 5000
    assert cfg.stationary_cesaro is False
    assert cfg.game["time_grid"] == (0.5, 1.0)
    assert cfg.game["reference"] == "uniform"
    assert cfg.noise_spec().epsilon_list == (0.1, 0.05, 0.0)
    assert cfg.output_dir == "out"
    assert np.array_equal(cfg.profile.gain(2).L, np.array([[0.5]]))


def test_blocks_are_optional_but_guarded():
    raw = base_scenario()
    del raw["game"]
    del raw["perturb"]
    cfg = parse_scenario(raw)
    assert cfg.game is None and cfg.perturb is None
    with pytest.raises(ConfigurationError, match="game: block required"):
        cfg.require_game()
    with pytest.raises(ConfigurationError, match="perturb: block required"):
        cfg.require_perturb()


def test_accessors_build_runtime_objects():
    cfg = parse_scenario(base_scenario())
    game_cfg = cfg.game_config()
    assert game_cfg.time_grid == (0.5, 1.0)
    assert game_cfg.samples_per_cell == 8
    assert game_cfg.theta_ref.mass == pytest.approx(1.0)

    space = cfg.strategy_space()
    assert space.n_channels == 2
    assert np.array_equal(space.candidates[1][1], np.array([[-0.2]]))

    noise = cfg.noise_spec()
    assert noise.epsilon_list == (0.1, 0.05, 0.0)

    paths = cfg.path_config()
    assert paths.n_steps == 100  # t=1.0 at h=0.01
    assert paths.seed == 42
    override = cfg.path_config(seed_override=7)
    assert override.seed == 7
    assert override.n_steps == 100


def test_strategy_space_requires_candidates():
    raw = variant(lambda r: r["game"].pop("candidates"))
    cfg = parse_scenario(raw)
    with pytest.raises(ConfigurationError, match="game.candidates"):
        cfg.strategy_space()


def test_reference_density_from_file(tmp_path):
    part = line_partition(64)
    theta = DensityVector.uniform(part)
    path = tmp_path / "ref.csv"
    write_density(theta, path)
    raw = variant(lambda r: r["game"].__setitem__("reference", str(path)))
    cfg = parse_scenario(raw)
    assert np.array_equal(cfg.reference_density().values, theta.values)

    # A density on the wrong grid is caught, not resampled.
    other = tmp_path / "short.csv"
    write_density(DensityVector.uniform(line_partition(16)), other)
    raw = variant(lambda r: r["game"].__setitem__("reference", str(other)))
    with pytest.raises(ConfigurationError, match="does not match the domain"):
        parse_scenario(raw).reference_density()


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda r: r.pop("system"), r"scenario\.system: missing"),
        (lambda r: r.pop("domain"), r"scenario\.domain: missing"),
        (lambda r: r.pop("ulam"), r"scenario\.ulam: missing"),
        (lambda r: r["system"].pop("d"), r"system\.d: missing"),
        (lambda r: r["system"].__setitem__("d", 0), r"system\.d: must be >= 1"),
        (lambda r: r["system"].__setitem__("d", 1.5), r"system\.d: expected an integer"),
        (
            lambda r: r["system"].__setitem__("A", [[0.0, 1.0]]),
            r"system\.A: shape",
        ),
        (lambda r: r["system"].__setitem__("channels", []), r"at least one channel"),
        (
            lambda r: r["system"]["channels"][0].__setitem__("gains", [[0.1, 0.2]]),
            r"system\.channels\[0\]\.gains: shape",
        ),
        (
            lambda r: r["system"]["channels"][1].__setitem__("B", [[1.0], [2.0]]),
            r"system\.channels\[1\]\.B: expected 1 rows",
        ),
        (
            lambda r: r["domain"].__setitem__("upper", [1.0, 2.0]),
            r"equal length",
        ),
        (
            lambda r: r["domain"].__setitem__("lower", [2.0]),
            r"domain\.lower\[0\]: must be strictly below",
        ),
        (
            lambda r: r["domain"].__setitem__("leak_tol", 1.5),
            r"domain\.leak_tol: expected a fraction",
        ),
        (
            lambda r: r["domain"].__setitem__("cells_per_axis", [64.5]),
            r"domain\.cells_per_axis\[0\]: expected an integer",
        ),
        (lambda r: r["ulam"].pop("samples_per_cell"), r"ulam\.samples_per_cell"),
        (lambda r: r["ulam"].__setitem__("t_step", 0), r"ulam\.t_step"),
        (
            lambda r: r["game"].__setitem__("time_grid", [1.0, 0.5]),
            r"game\.time_grid\[1\]: must be increasing",
        ),
        (
            lambda r: r["game"].__setitem__("time_grid", [0.0]),
            r"game\.time_grid\[0\]",
        ),
        (
            lambda r: r["game"].__setitem__("candidates", [[[[-0.5]]]]),
            r"game\.candidates: expected 2 channel lists",
        ),
        (lambda r: r["game"].__setitem__("tol", -1), r"game\.tol"),
        (lambda r: r["game"].__setitem__("reference", 3), r"game\.reference"),
        (
            lambda r: r["game"].__setitem__("trace_densities", [1]),
            r"game\.trace_densities",
        ),
        (
            lambda r: r["perturb"].__setitem__("sigma", [[1.0, 0.0]]),
            r"perturb\.sigma: shape",
        ),
        (
            lambda r: r["perturb"].__setitem__("epsilon_list", [0.1, 0.2]),
            r"perturb\.epsilon_list\[1\]: must be strictly decreasing",
        ),
        (
            lambda r: r["perturb"].__setitem__("epsilon_list", [-0.1]),
            r"perturb\.epsilon_list\[0\]: must be >= 0",
        ),
        (lambda r: r["perturb"].__setitem__("h", 0.0), r"perturb\.h"),
        (lambda r: r["perturb"].__setitem__("seed", -1), r"perturb\.seed"),
        (lambda r: r["perturb"].__setitem__("t", 0.0), r"perturb\.t"),
        (
            lambda r: r["perturb"].__setitem__("x0", [0.0, 0.0]),
            r"perturb\.x0: expected 1 components",
        ),
        (
            lambda r: r.__setitem__("output", {"directory": 7}),
            r"output\.directory",
        ),
        (
            lambda r: r["perturb"].__setitem__("h", 10**400),
            r"perturb\.h: expected a finite number",
        ),
        (
            lambda r: r["game"].__setitem__("stability_filter", "false"),
            r"game\.stability_filter: expected true or false, got str",
        ),
        (
            lambda r: r["game"].__setitem__("stability_filter", 1),
            r"game\.stability_filter: expected true or false, got int",
        ),
        (
            lambda r: r.__setitem__("stationary", {"cesaro": "no"}),
            r"stationary\.cesaro: expected true or false, got str",
        ),
        (
            lambda r: r.__setitem__("stationary", {"cesaro": 1}),
            r"stationary\.cesaro: expected true or false, got int",
        ),
        (
            lambda r: r.__setitem__("stationary", {"tol": 0}),
            r"stationary\.tol: must be positive, got 0\.0",
        ),
        (
            lambda r: r.__setitem__("stationary", {"max_iter": 0}),
            r"stationary\.max_iter: must be >= 1, got 0",
        ),
        (
            lambda r: r.__setitem__("stationary", [1]),
            r"scenario\.stationary: expected dict, got list",
        ),
        (
            lambda r: r.__setitem__("stationary", "x"),
            r"scenario\.stationary: expected dict, got str",
        ),
        (
            lambda r: r.__setitem__("output", "out"),
            r"scenario\.output: expected dict, got str",
        ),
        (lambda r: r["perturb"].__setitem__("n_paths", 0), r"perturb\.n_paths: must be >= 1"),
        (
            lambda r: r["perturb"].update({"t": 1e300, "h": 1e-300}),
            r"perturb\.t / h: 1e\+300 / 1e-300 is not a finite step count",
        ),
    ],
)
def test_field_errors_carry_their_json_path(mutate, message):
    with pytest.raises(ConfigurationError, match=message):
        parse_scenario(variant(mutate))


def test_null_optional_blocks_take_their_defaults():
    cfg = parse_scenario(variant(lambda r: r.update({"stationary": None, "output": None})))
    assert cfg.stationary_tol == 1e-10
    assert cfg.output_dir == "out"


def test_dimension_cross_checks():
    raw = variant(
        lambda r: r["domain"].update(
            {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "cells_per_axis": [8, 8]}
        )
    )
    with pytest.raises(ConfigurationError, match="does not match system.d"):
        parse_scenario(raw)


def test_top_level_must_be_an_object():
    with pytest.raises(ConfigurationError, match="top level"):
        parse_scenario([1, 2, 3])


def test_load_scenario_hashes_the_exact_bytes(tmp_path):
    path = tmp_path / "scn.json"
    data = json.dumps(base_scenario()).encode()
    path.write_bytes(data)
    cfg = load_scenario(path)
    assert cfg.config_sha256 == hashlib.sha256(data).hexdigest()
    assert cfg.raw["ulam"]["samples_per_cell"] == 8


def test_load_scenario_error_paths(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        load_scenario(bad)


def test_schedule_block_parses():
    raw = variant(
        lambda r: r["system"].__setitem__(
            "schedule",
            [
                {"start": 0.0, "A": [[0.0]], "B": [[[1.0]], [[1.0]]]},
                {"start": 1.0, "A": [[-0.5]], "B": [[[1.0]], [[1.0]]]},
            ],
        )
    )
    cfg = parse_scenario(raw)
    assert len(cfg.system.schedule) == 2
    assert cfg.system.schedule[1].start == 1.0
    assert np.array_equal(cfg.system.schedule[1].A, np.array([[-0.5]]))
