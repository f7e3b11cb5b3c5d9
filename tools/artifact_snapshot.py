#!/usr/bin/env python3
"""Write the artifacts of a fixed set of command-line runs, for diffing trees.

    PYTHONPATH=src python3 tools/artifact_snapshot.py OUT [--ops N]

Runs the first ``N`` ops (default 12) of every benchmark workload at seed
``SEED`` (101), then the six README subcommands, each through
``entrogame.cli.main``.  Op ``k`` of a workload writes to
``OUT/<workload>/op-<k>/`` and a README command to ``OUT/readme/<command>/``.
The inputs come from ``bench/workloads.py`` (imported, never written) and
are generated in one fixed absolute directory, so the config hashes inside
the artifacts are the same in every checkout: ``diff -r`` of two snapshots
lists only what the two programs wrote differently.  A run holds an
exclusive lock on ``INPUTS.lock`` from before it creates that directory
until after it removes it, so a second snapshot waits for the first.

``entrogame`` is imported from the tree under test, selected with
``PYTHONPATH``; its location is printed first.  Then each op prints one line
with its exit code (the README ``resilience`` exits 3: its edge cells leak).
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import io
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = Path("/tmp/entrogame-artifact-snapshot-inputs")
LOCK = INPUTS.with_name(INPUTS.name + ".lock")
SEED = 101
README_THREADS = 8  # the README's --threads; artifacts never depend on it


def _run(cli, op, out_dir):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(op.argv(out_dir))
    print(f"{out_dir}: {op.command} rc={rc}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="snapshot directory (must be absent or empty)")
    parser.add_argument("--ops", type=int, default=12, help="ops per workload (default 12)")
    args = parser.parse_args(argv)
    if args.ops < 0:
        parser.error("--ops must be >= 0")
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")

    sys.path.insert(0, str(ROOT / "bench"))
    import entrogame.cli as cli
    import workloads

    print(f"entrogame from {Path(cli.__file__).resolve().parent}", flush=True)
    with open(LOCK, "a") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print(f"waiting for {LOCK}", file=sys.stderr, flush=True)
            fcntl.flock(lock, fcntl.LOCK_EX)
        shutil.rmtree(INPUTS, ignore_errors=True)
        INPUTS.mkdir(parents=True)
        try:
            for workload in workloads.WORKLOADS:
                for k, op in enumerate(workloads.make_ops(workload, SEED, INPUTS, 0, args.ops)):
                    _run(cli, op, args.out / workload / f"op-{k:05d}")
            for op in workloads.readme_ops(INPUTS, README_THREADS):
                _run(cli, op, args.out / "readme" / op.command)
        finally:
            shutil.rmtree(INPUTS, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
