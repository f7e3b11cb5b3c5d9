import copy
import csv
import hashlib
import json

import numpy as np
import pytest

import entrogame.artifacts as artifacts_mod
import entrogame.cli as cli_mod
from entrogame import (
    ConfigurationError,
    DensityVector,
    GameConfig,
    NoiseSpec,
    Partition,
    SdePathConfig,
    UlamMatrix,
    build_ulam,
    flow_map,
    resilience_report,
    stationary_density,
)
from entrogame.artifacts import read_density, write_density
from entrogame.cli import main
from entrogame.config import parse_scenario
from conftest import line_partition, tilted_density


def scenario_dict():
    return {
        "system": {
            "d": 1,
            "A": [[0.0]],
            "channels": [
                {"B": [[1.0]], "gains": [[-0.5]]},
                {"B": [[1.0]], "gains": [[0.5]]},
            ],
        },
        "domain": {"lower": [-1.0], "upper": [1.0], "cells_per_axis": [16]},
        "ulam": {"samples_per_cell": 4},
        "game": {
            "time_grid": [0.5, 1.0],
            "candidates": [
                [[[-0.5]], [[0.25]], [[0.5]]],
                [[[0.5]], [[-0.2]], [[0.1]]],
            ],
        },
        "perturb": {
            "sigma": [[1.0]],
            "epsilon_list": [0.1, 0.0],
            "h": 0.01,
            "n_paths": 200,
            "seed": 42,
            "t": 1.0,
        },
    }


def write_scenario(tmp_path, raw, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def run(tmp_path, command, raw=None, extra=(), name="scn.json", outdir="out"):
    raw = scenario_dict() if raw is None else raw
    cfg = write_scenario(tmp_path, raw, name)
    out = tmp_path / outdir
    rc = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return rc, out, cfg


def test_version_banner(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("entrogame ")


def test_missing_subcommand_or_config_is_a_usage_error():
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["ulam"])
    assert exit_info.value.code == 2


def test_one_parser_serves_successive_calls_independently(tmp_path, capsys):
    assert cli_mod._build_parser() is cli_mod._build_parser()
    rc, out, _ = run(
        tmp_path, "resilience", resilience_scenario(),
        extra=("--with-deviations", "--kl-floor", "1e-9"), outdir="flags",
    )
    assert rc == 0
    assert (out / "resilience_deviations.csv").exists()
    assert json.loads((out / "resilience.json").read_text())["kl_floor"] == 1e-9
    rc, out, _ = run(tmp_path, "resilience", resilience_scenario(), outdir="plain")
    assert rc == 0
    assert not (out / "resilience_deviations.csv").exists()
    assert json.loads((out / "resilience.json").read_text())["kl_floor"] is None
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    with pytest.raises(SystemExit) as exit_info:
        main(["no-such-command", "--config", "x.json"])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_ulam_writes_matrix_and_clean_provenance(tmp_path):
    rc, out, cfg = run(tmp_path, "ulam")
    assert rc == 0
    assert (out / "ulam.csv").exists()
    meta = json.loads((out / "ulam.json").read_text())
    prov = meta["provenance"]
    assert prov["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert prov["command"] == "ulam"
    assert prov["seed"] is None
    # Worker count must never leak into artifacts; identical runs with
    # different --threads have to stay byte-identical.
    assert "threads" not in prov
    assert meta["flow_id"].startswith("linear:")


def test_stationary_solves_and_reports(tmp_path, capsys):
    raw = scenario_dict()
    del raw["game"]
    del raw["perturb"]
    rc, out, _ = run(tmp_path, "stationary", raw)
    assert rc == 0
    # Gains -0.5 and 0.5 cancel: identity flow, uniform is already fixed.
    theta = read_density(out / "stationary_density.csv")
    assert np.array_equal(theta.values, DensityVector.uniform(theta.partition).values)
    report = json.loads((out / "stationary.json").read_text())
    assert report["iterations"] == 1
    assert report["residual"] == 0.0
    assert report["mass"] == pytest.approx(1.0, abs=1e-12)
    assert "stationary solve" in capsys.readouterr().out


def test_cesaro_stationary_writes_the_direct_solve(tmp_path):
    raw = scenario_dict()
    del raw["game"]
    del raw["perturb"]
    raw["system"]["channels"][1]["gains"] = [[0.25]]
    raw["stationary"] = {"tol": 1e-6, "cesaro": True}
    rc, out, _ = run(tmp_path, "stationary", raw)
    assert rc == 0
    sc = parse_scenario(raw)
    P = build_ulam(
        sc.partition, flow_map(sc.system, sc.profile, 0.0, 1.0, 200), 4, leak_tol=0.05
    )
    uniform = DensityVector.uniform(sc.partition)
    direct = stationary_density(P, uniform, tol=1e-6, cesaro=True)
    write_density(direct.density, tmp_path / "direct.csv")
    written = (out / "stationary_density.csv").read_bytes()
    assert written == (tmp_path / "direct.csv").read_bytes()
    assert json.loads((out / "stationary.json").read_text())["iterations"] == direct.iterations
    # The plain iteration stops elsewhere, so the flag reached the solve.
    plain = stationary_density(P, uniform, tol=1e-6)
    assert not np.array_equal(plain.density.values, direct.density.values)


@pytest.mark.parametrize("command", ["ulam", "stationary"])
def test_a_leaking_grid_operator_exits_3_naming_the_profile(tmp_path, capsys, command):
    raw = scenario_dict()
    raw["system"]["channels"][0]["gains"] = [[0.5]]  # x' = x leaves the box
    rc, out, _ = run(tmp_path, command, raw)
    assert rc == 3
    err = capsys.readouterr().err
    profile = parse_scenario(raw).profile.hash_hex()
    assert err.startswith(f"numerical rejection: profile {profile} at t=1: cell ")
    assert "leaks" in err
    assert not any(out.glob("*.csv"))


def test_entropy_trace_artifacts(tmp_path):
    part = line_partition(16)
    tilt_path = tmp_path / "tilt.csv"
    write_density(tilted_density(part, 0.3), tilt_path)
    raw = scenario_dict()
    raw["game"]["trace_densities"] = [str(tilt_path)]
    rc, out, _ = run(tmp_path, "entropy-trace", raw)
    assert rc == 0
    lines = (out / "entropy_trace.csv").read_text().splitlines()
    assert lines[0] == "density_id,t,entropy,relative_entropy_to_stationary"
    # Two densities (reference + tilt) on a two-point grid.
    assert len(lines) == 1 + 4
    meta = json.loads((out / "entropy_trace.json").read_text())
    assert meta["stationary_entropy"] == pytest.approx(np.log(2.0), abs=1e-12)
    assert meta["skipped"] == []
    # The identity loop keeps the reference density fixed: rows of
    # density 0 carry zero divergence, the tilt keeps its positive one.
    rows = [line.split(",") for line in lines[1:]]
    for density_id, _, _, rel in rows:
        if density_id == "0":
            assert float(rel) == 0.0
        else:
            assert float(rel) > 1e-3


# The contracting loop pins its stationary density to fewer cells than the
# trace densities cover, so the trace skips them with a warning.
@pytest.mark.filterwarnings("ignore:density .* outside the stationary support")
@pytest.mark.parametrize("command", ["entropy-trace", "resilience"])
def test_reference_density_is_read_once(tmp_path, monkeypatch, command):
    part = line_partition(16)
    write_density(DensityVector.uniform(part), tmp_path / "ref.csv")
    write_density(tilted_density(part, 0.3), tmp_path / "tilt.csv")
    raw = resilience_scenario()
    raw["game"]["reference"] = str(tmp_path / "ref.csv")
    raw["game"]["trace_densities"] = [str(tmp_path / "tilt.csv")]
    reads = []

    def counted(path):
        reads.append(path.name)
        return read_density(path)

    monkeypatch.setattr(artifacts_mod, "read_density", counted)
    monkeypatch.setattr(cli_mod, "read_density", counted)
    rc, _, _ = run(tmp_path, command, raw, extra=("--kl-floor",))
    assert rc == 0
    assert sorted(reads) == ["ref.csv", "tilt.csv"]


def test_trace_density_partition_mismatch_is_an_error(tmp_path, capsys):
    other = tmp_path / "other.csv"
    write_density(DensityVector.uniform(line_partition(8)), other)
    raw = scenario_dict()
    raw["game"]["trace_densities"] = [str(other)]
    rc, _, _ = run(tmp_path, "entropy-trace", raw)
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_equilibrium_run_and_verification(tmp_path, capsys):
    raw = scenario_dict()
    raw["system"]["channels"][0]["gains"] = [[0.25]]
    raw["system"]["channels"][1]["gains"] = [[-0.2]]
    rc, out, _ = run(tmp_path, "equilibrium", raw)
    assert rc == 0
    assert "equilibrium found" in capsys.readouterr().out
    report = json.loads((out / "equilibrium.json").read_text())
    assert report["converged"] is True
    assert report["profile"] == [[[-0.5]], [[0.5]]]
    assert report["history"][0] == [1, 1]
    assert report["history"][-1] == [0, 0]
    assert report["verification"]["condition1_ok"] is True
    assert report["verification"]["condition2_ok"] is True
    assert report["verification"]["condition3_ok"] is True
    rejected = {(r["channel"], r["candidate"]) for r in report["verification"]["rejected"]}
    assert rejected == {(1, 1), (1, 2)}
    criteria = (out / "equilibrium_criteria.csv").read_text().splitlines()
    assert criteria[0] == "channel,t,criterion"
    assert len(criteria) == 1 + 4  # 2 channels x 2 grid times
    stationary = read_density(out / "equilibrium_stationary.csv")
    assert stationary.mass == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_non_convergence_exits_3_with_artifacts(tmp_path, capsys):
    raw = scenario_dict()
    raw["system"]["channels"][0]["gains"] = [[0.25]]
    raw["system"]["channels"][1]["gains"] = [[-0.2]]
    raw["game"]["max_rounds"] = 1
    rc, out, _ = run(tmp_path, "equilibrium", raw)
    assert rc == 3
    assert "did not converge" in capsys.readouterr().err
    report = json.loads((out / "equilibrium.json").read_text())
    assert report["converged"] is False
    assert "verification" not in report
    assert (out / "equilibrium_criteria.csv").exists()


def test_equilibrium_without_candidates_is_a_config_error(tmp_path, capsys):
    raw = scenario_dict()
    del raw["game"]["candidates"]
    rc, _, _ = run(tmp_path, "equilibrium", raw)
    assert rc == 2
    assert "game.candidates" in capsys.readouterr().err


def test_perturb_statistics(tmp_path):
    rc, out, _ = run(tmp_path, "perturb")
    assert rc == 0
    lines = (out / "perturb_stats.csv").read_text().splitlines()
    assert lines[0] == "epsilon,component,mean,variance"
    assert len(lines) == 1 + 2  # two epsilons, one component
    eps0 = lines[2].split(",")
    # The default start is the domain centre, the origin here; with zero
    # noise every path stays put.
    assert eps0[0] == "0" and float(eps0[2]) == 0.0 and float(eps0[3]) == 0.0
    meta = json.loads((out / "perturb_stats.json").read_text())
    assert meta["n_paths"] == 200
    assert meta["seed"] == 42
    assert meta["t_final"] == pytest.approx(1.0)


def test_perturb_seed_override_lands_in_artifacts(tmp_path):
    rc, out, _ = run(tmp_path, "perturb", extra=("--seed", "7"))
    assert rc == 0
    meta = json.loads((out / "perturb_stats.json").read_text())
    assert meta["seed"] == 7
    assert meta["provenance"]["seed"] == 7


def resilience_scenario():
    raw = scenario_dict()
    raw["system"]["channels"][0]["gains"] = [[-1.5]]
    raw["system"]["channels"][1]["gains"] = [[-0.5]]
    raw["game"]["candidates"] = [[[[-1.5]], [[-1.0]]], [[[-0.5]]]]
    return raw


def test_resilience_outputs_are_thread_invariant(tmp_path):
    raws = resilience_scenario()
    results = {}
    for threads, outdir in ((1, "o1"), (8, "o8"), (1, "o1b")):
        rc, out, _ = run(
            tmp_path, "resilience", copy.deepcopy(raws),
            extra=("--kl-floor", "--threads", str(threads)), outdir=outdir,
        )
        assert rc == 0
        results[outdir] = (
            (out / "resilience.csv").read_bytes(),
            (out / "resilience.json").read_bytes(),
        )
    assert results["o1"] == results["o8"]
    assert results["o1"] == results["o1b"]
    report = json.loads(results["o1"][1])
    assert report["kl_floor"] == 1e-12
    assert report["seed"] == 42
    assert report["theta_eps"][-1] == {"epsilon": 0.0, "value": 0.0}


def test_resilience_without_floor_records_nan(tmp_path):
    rc, out, _ = run(tmp_path, "resilience", resilience_scenario())
    assert rc == 0
    lines = (out / "resilience.csv").read_text().splitlines()
    noisy = [line for line in lines[1:] if not line.startswith("0,")]
    assert noisy and all(line.split(",")[4] == "nan" for line in noisy)
    report = json.loads((out / "resilience.json").read_text())
    assert report["kl_floor"] is None
    assert report["monotone_flag"] is False
    assert report["theta_eps"][0]["value"] is None  # NaN serialises as null


def test_resilience_deviation_sweep_writes_second_csv(tmp_path):
    rc, out, _ = run(
        tmp_path, "resilience", resilience_scenario(),
        extra=("--kl-floor", "--with-deviations"),
    )
    assert rc == 0
    lines = (out / "resilience_deviations.csv").read_text().splitlines()
    assert lines[0].startswith("profile_id,")
    assert len(lines) == 1 + 2  # one deviation, one nonzero eps, two times
    assert all(line.startswith('"deviation:j=1,k=1",') for line in lines[1:])


def test_resilience_deviation_rows_read_back_with_csv_reader(tmp_path):
    rc, out, _ = run(
        tmp_path, "resilience", resilience_scenario(),
        extra=("--kl-floor", "--with-deviations"),
    )
    assert rc == 0
    with open(out / "resilience_deviations.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(header) == 7 and header[1] == "epsilon"
    assert rows and all(len(row) == 7 for row in rows)
    assert all(row[0] == "deviation:j=1,k=1" for row in rows)
    assert all(float(row[1]) > 0 for row in rows)


def test_resilience_leak_rejection_exits_3(tmp_path, capsys):
    raw = resilience_scenario()
    raw["system"]["channels"][0]["gains"] = [[-0.5]]  # weak pull
    raw["perturb"]["epsilon_list"] = [0.5]
    rc, _, _ = run(tmp_path, "resilience", raw)
    assert rc == 3
    assert "numerical rejection:" in capsys.readouterr().err


@pytest.mark.parametrize("floor", ["-1", "0", "nan", "inf"])
def test_bad_kl_floor_is_a_usage_error(tmp_path, capsys, floor):
    rc, out, _ = run(tmp_path, "resilience", resilience_scenario(), extra=("--kl-floor", floor))
    assert rc == 2
    assert "--kl-floor" in capsys.readouterr().err
    assert not (out / "resilience.csv").exists()


def test_bad_thread_count_is_a_usage_error(tmp_path, capsys):
    rc, _, _ = run(tmp_path, "ulam", extra=("--threads", "0"))
    assert rc == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize(
    "command, path",
    [
        ("perturb", "perturb.t"),
        ("perturb", "perturb.h"),
        ("perturb", "perturb.x0[0]"),
        ("stationary", "stationary.tol"),
        ("equilibrium", "game.time_grid[1]"),
    ],
)
def test_non_finite_scenario_numbers_are_usage_errors(tmp_path, capsys, command, path, value):
    # json reads Infinity, -Infinity and NaN; a scenario may not use them.
    raw = scenario_dict()
    raw["perturb"]["x0"] = [0.0]
    raw["stationary"] = {}
    block, _, field = path.partition(".")
    name, _, index = field.partition("[")
    if index:
        raw[block][name][int(index.rstrip("]"))] = value
    else:
        raw[block][name] = value
    rc, out, _ = run(tmp_path, command, raw)
    assert rc == 2
    assert f"{path}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_a_step_count_past_the_float_range_is_a_usage_error(tmp_path, capsys):
    # Both numbers are finite, but t / h overflows to inf.
    raw = scenario_dict()
    raw["perturb"].update({"t": 1e300, "h": 1e-300, "x0": [0.0]})
    rc, out, _ = run(tmp_path, "perturb", raw)
    assert rc == 2
    assert "t / h: 1e+300 / 1e-300 is not a finite step count" in capsys.readouterr().err
    assert not (out / "perturb_stats.csv").exists()


def test_a_horizon_past_one_chunk_is_a_usage_error(tmp_path, capsys):
    # 1e20 steps are refused before any step-long array is allocated.
    raw = scenario_dict()
    raw["perturb"].update({"t": 1e10, "h": 1e-10, "x0": [0.0]})
    rc, out, _ = run(tmp_path, "perturb", raw)
    assert rc == 2
    assert "t / h: 1e+10 / 1e-10 is 100000000000000000000 steps" in capsys.readouterr().err
    assert not (out / "perturb_stats.csv").exists()


def _game_config(**fields):
    fields.setdefault("time_grid", (0.5, 1.0))
    return GameConfig(theta_ref=DensityVector.uniform(line_partition(16)), samples_per_cell=4, **fields)


def _path_config(**fields):
    return SdePathConfig(**{"h": 0.01, "n_steps": 100, "n_paths": 200, "seed": 42, **fields})


def _identity_solve(**settings):
    part = line_partition(16)
    P = build_ulam(part, lambda p: p, 4)
    return stationary_density(P, DensityVector.uniform(part), **settings)


@pytest.mark.parametrize(
    "where, value, build",
    [
        ("game.time_grid", [], lambda v: _game_config(time_grid=v)),
        ("game.time_grid", [0.0, 1.0], lambda v: _game_config(time_grid=v)),
        ("game.time_grid", [0.5, 0.5], lambda v: _game_config(time_grid=v)),
        ("game.tol", 0.0, lambda v: _game_config(tol=v)),
        ("game.max_rounds", 0, lambda v: _game_config(max_rounds=v)),
        ("perturb.epsilon_list", [0.1, 0.2], lambda v: NoiseSpec([[1.0]], v)),
        ("perturb.epsilon_list", [-0.1], lambda v: NoiseSpec([[1.0]], v)),
        ("perturb.h", 0.0, lambda v: _path_config(h=v)),
        ("perturb.h", -0.01, lambda v: _path_config(h=v)),
        ("perturb.seed", -1, lambda v: _path_config(seed=v)),
        ("perturb.n_paths", 0, lambda v: _path_config(n_paths=v)),
        ("domain.lower", [1.0], lambda v: Partition(v, [1.0], [16])),
        ("domain.upper", [-2.0], lambda v: Partition([-1.0], v, [16])),
        ("domain.upper", [1.0, 2.0], lambda v: Partition([-1.0], v, [16])),
        ("domain.cells_per_axis", [0], lambda v: Partition([-1.0], [1.0], v)),
        (
            "domain.leak_tol",
            1.5,
            lambda v: UlamMatrix(line_partition(16), np.zeros((16, 4), dtype=int), leak_tol=v),
        ),
        ("stationary.tol", -1.0, lambda v: _identity_solve(tol=v)),
        ("stationary.max_iter", 0, lambda v: _identity_solve(max_iter=v)),
        ("--kl-floor", -1.0, lambda v: resilience_report(*[None] * 5, (), kl_floor=v)),
        ("--kl-floor", float("nan"), lambda v: resilience_report(*[None] * 5, (), kl_floor=v)),
    ],
)
def test_each_input_rule_reads_the_same_from_the_api_and_the_cli(
    tmp_path, capsys, where, value, build
):
    # The model class words the rule; the CLI only names the JSON block or flag.
    with pytest.raises(ConfigurationError) as api:
        build(value)
    if where == "--kl-floor":
        rc, _, _ = run(tmp_path, "resilience", extra=(where, str(value)))
        expected = str(api.value).replace("kl_floor", where, 1)
    else:
        raw = scenario_dict()
        block, field = where.split(".")
        raw.setdefault(block, {})[field] = value
        # The whole file is checked at load, so every subcommand refuses it.
        rc, _, _ = run(tmp_path, "ulam", raw)
        expected = f"{block}.{api.value}"
    assert rc == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["ulam", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_out_directory_defaults_to_the_scenario_block(tmp_path, monkeypatch):
    raw = scenario_dict()
    raw["output"] = {"directory": str(tmp_path / "from_config")}
    cfg = write_scenario(tmp_path, raw)
    rc = main(["ulam", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "from_config" / "ulam.csv").exists()


def test_undecodable_scenario_bytes_are_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "scn.json"
    cfg.write_bytes(b'{"system": "\xff"}')
    rc = main(["ulam", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: config: invalid JSON in {cfg}: 'utf-8' codec can't decode byte 0xff "
        "in position 12: invalid start byte\n"
    )
