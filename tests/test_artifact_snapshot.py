"""Smoke test of ``tools/artifact_snapshot.py`` at one op per workload."""

import fcntl
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "artifact_snapshot.py"
_spec = importlib.util.spec_from_file_location("artifact_snapshot", TOOL)
artifact_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_snapshot)

# Artifacts of one op: ulam 2, stationary 3, entropy-trace 2, equilibrium 4,
# resilience with deviations 3, perturb 2; the README resilience exits 3
# before writing, so the README commands add 13.
FILES_PER_OP = {
    "grid-ulam": 2, "grid-stationary": 3, "grid-trace": 2, "game": 4,
    "noise-resilience": 3, "noise-perturb": 2, "readme": 13,
}


def snapshot_argv(out, *args):
    return [sys.executable, str(TOOL), str(out), *args]


SNAPSHOT_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def snapshot(out, *args):
    return subprocess.run(
        snapshot_argv(out, *args), capture_output=True, text=True, env=SNAPSHOT_ENV, timeout=300,
    )


def test_snapshot_of_one_op_per_workload(tmp_path):
    out = tmp_path / "snap"
    proc = snapshot(out, "--ops", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"entrogame from {ROOT / 'src' / 'entrogame'}"
    codes = [line.rsplit(" rc=", 1)[1] for line in lines[1:]]
    assert len(codes) == 12
    assert codes[-1] == "3" and lines[-1].endswith("resilience rc=3")
    assert set(codes[:-1]) == {"0"}
    counts = {d.name: sum(1 for p in d.rglob("*") if p.is_file()) for d in out.iterdir()}
    assert counts == FILES_PER_OP
    assert {p.name for p in (out / "grid-ulam" / "op-00000").iterdir()} == {"ulam.csv", "ulam.json"}


def test_snapshot_refuses_a_non_empty_directory(tmp_path):
    (tmp_path / "old.txt").write_text("x")
    proc = snapshot(tmp_path, "--ops", "0")
    assert proc.returncode == 2
    assert "is not empty" in proc.stderr


def test_a_second_snapshot_waits_for_the_first(tmp_path):
    out = tmp_path / "snap"
    lock_path = artifact_snapshot.LOCK
    with open(lock_path, "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        proc = subprocess.Popen(
            snapshot_argv(out, "--ops", "0"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=SNAPSHOT_ENV,
        )
        try:
            waiting = proc.stderr.readline()
            ran_while_locked = out.exists()
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)
    stdout, stderr = proc.communicate(timeout=300)
    assert waiting == f"waiting for {lock_path}\n"
    assert not ran_while_locked
    assert proc.returncode == 0, stderr
    assert stdout.splitlines()[-1].endswith("resilience rc=3")
    assert set(os.listdir(out)) == {"readme"}
