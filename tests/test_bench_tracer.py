"""The benchmark tracer still fits the code it wraps.

``bench/tracer.py`` rebinds functions of ``entrogame`` by name, so a rename
or a signature change there can break a traced run without any other test
noticing.  The tracer is loaded from its file and used as it is.
"""

import importlib.util
import json
import sys
from pathlib import Path

import entrogame.cli as cli_mod

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entrogame_modules():
    return [m for n, m in sys.modules.items() if n == "entrogame" or n.startswith("entrogame.")]


def wrapped_targets(tracer):
    """(owner, attribute) of every name ``install`` may rebind."""
    targets = []
    for module_name, attr, cls_name, _, _ in tracer.WRAPPED:
        home = sys.modules[f"entrogame.{module_name}"]
        if cls_name:
            targets.append((getattr(home, cls_name), attr))
        else:
            targets.extend((m, attr) for m in entrogame_modules() if attr in vars(m))
    return targets


def tiny_game():
    eye = [[1.0, 0.0], [0.0, 1.0]]
    return {
        "system": {
            "d": 2,
            "A": [[-0.05, 0.0], [0.0, -0.05]],
            "channels": [
                {"B": eye, "gains": [[-0.3, 0.0], [0.0, -0.3]]},
                {"B": eye, "gains": [[-0.2, 0.0], [0.0, -0.2]]},
            ],
        },
        "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "cells_per_axis": [6, 6]},
        "ulam": {"samples_per_cell": 4},
        "game": {
            "time_grid": [0.5, 1.0],
            "candidates": [
                [[[-0.3, 0.0], [0.0, -0.3]], [[-0.1, 0.0], [0.0, -0.1]]],
                [[[-0.2, 0.0], [0.0, -0.2]], [[-0.1, 0.0], [0.0, -0.1]]],
            ],
        },
    }


def test_every_wrapped_target_resolves():
    tracer = load_tracer()
    for module_name, attr, cls_name, _, _ in tracer.WRAPPED:
        home = sys.modules[f"entrogame.{module_name}"]
        if cls_name:
            assert callable(getattr(home, cls_name).__dict__[attr]), (cls_name, attr)
        else:
            assert callable(getattr(home, attr)), (module_name, attr)


def test_traced_equilibrium_records_spans_and_uninstall_restores(tmp_path):
    tracer = load_tracer()
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in wrapped_targets(tracer)]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(tiny_game()))

    tr = tracer.Tracer()
    tr.op = 0
    tr.install()
    try:
        rc = cli_mod.main(["equilibrium", "--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        tr.uninstall()

    assert rc == 0
    names = {s.name for s in tr.spans}
    assert {"cli.main", "game.criterion", "game.OperatorCache.operator"} <= names
    metrics, _ = tracer.aggregate(tr.spans, {0})
    assert metrics["game.criterion.calls"]["value"] > 0
    assert metrics["transfer.build_ulam.calls"]["value"] > 0
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)
