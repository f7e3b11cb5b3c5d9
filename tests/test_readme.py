"""The scenarios README.md documents actually run."""

import re
import shlex
from pathlib import Path

import entrogame.cli as cli_mod
import entrogame.perturb as perturb_mod

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def test_python_tour_runs_in_order(capsys):
    blocks = fenced_blocks("python")
    assert len(blocks) >= 2
    namespace = {}
    for n, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {n}", "exec"), namespace)
    assert namespace["result"].converged and namespace["result"].rounds == 1
    report = namespace["report"]
    assert report.condition1_ok and report.condition2_ok and report.condition3_ok
    assert "1 [-0.5, 0.5]\nTrue True True\n" in capsys.readouterr().out


def test_perturb_scenario_draws_the_normals_once(tmp_path, monkeypatch):
    (scenario,) = fenced_blocks("json")
    config = tmp_path / "scenario.json"
    config.write_text(scenario, encoding="utf-8")
    draws = []
    draw = perturb_mod._draw_normals
    monkeypatch.setattr(perturb_mod, "_draw_normals", lambda *a: draws.append(a) or draw(*a))

    def run(out):
        rc = cli_mod.main(["perturb", "--config", str(config), "--out", str(tmp_path / out)])
        assert rc == 0
        return (tmp_path / out / "perturb_stats.csv").read_bytes()

    shared = run("shared")
    assert len(draws) == 1
    # Without the shared noise each of the two noisy epsilons draws again.
    draws.clear()
    endpoints = cli_mod.ensemble_endpoints
    monkeypatch.setattr(
        cli_mod, "ensemble_endpoints", lambda *a, _held_noise=None, **k: endpoints(*a, **k)
    )
    assert run("per_epsilon") == shared
    assert len(draws) == 2


def test_command_lines_run_on_the_scenario(tmp_path, monkeypatch, capsys):
    lines = [
        line.split("#")[0]
        for block in fenced_blocks("sh")
        for line in block.splitlines()
        if line.startswith("entrogame ")
    ]
    assert [shlex.split(line)[1] for line in lines] == [
        "ulam", "stationary", "entropy-trace", "equilibrium", "perturb", "resilience",
    ]
    (scenario,) = fenced_blocks("json")
    (tmp_path / "scenario.json").write_text(scenario, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    codes = []
    for line in lines:
        codes.append(cli_mod.main(shlex.split(line)[1:]))
    assert codes == [0, 0, 0, 0, 0, 3]
    # Known defect: noise carries the edge cells' paths past the box (see
    # ROADMAP, noise on a bounded box).  Expect 0 once that lands.
    assert "cell 63 lost" in capsys.readouterr().err
