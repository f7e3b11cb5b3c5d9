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
        draws.clear()
        rc = cli_mod.main(["perturb", "--config", str(config), "--out", str(tmp_path / out)])
        assert rc == 0
        return (tmp_path / out / "perturb_stats.csv").read_bytes(), len(draws)

    def per_epsilon(system, profile, noise, epsilons, x0, path_cfg):
        return [
            perturb_mod.ensemble_endpoints(system, profile, noise, eps, x0, path_cfg)
            for eps in epsilons
        ]

    # 200 paths x 100 steps: one chunk, then four chunks of 50 paths.
    for chunk_entries, chunks in ((perturb_mod._CHUNK_ENTRIES, 1), (5000, 4)):
        monkeypatch.setattr(perturb_mod, "_CHUNK_ENTRIES", chunk_entries)
        with monkeypatch.context() as patch:
            patch.setattr(cli_mod, "ensemble_sweep", per_epsilon)
            reference, reference_draws = run(f"per_epsilon_{chunks}")
        shared, shared_draws = run(f"shared_{chunks}")
        assert shared == reference
        assert shared_draws == chunks
        # Per-epsilon calls draw every chunk again for each noisy epsilon.
        assert reference_draws == 2 * chunks


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
