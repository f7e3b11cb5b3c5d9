#!/usr/bin/env python3
"""Closed-loop benchmark of the entrogame command line.

Run from anywhere inside a checkout::

    python3 bench/run.py --workload grid-ulam --seed 1 --seconds 12 --trace 0

One client in this process calls ``entrogame.cli.main`` back to back, each
call (op) on its own scenario generated from the seed before timing, and
checks every op's artifacts after it returns.  ``--trace 0`` reports the
end-to-end metrics, with each time scaled to a nominal host speed by a
reference loop timed next to it (see ``reference_s``); ``--trace 1`` runs
each op once untraced and once traced and reports the per-layer metrics of
``bench/tracer.py`` plus the tracing overhead.  Human-readable tables go to stdout; the last line is one JSON
object.  A full record of the run (environment, every op's time, exit code
and artifact sha256, spans when traced) is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".bench_out")
SETUP_SAMPLES = 12  # fresh interpreters per untraced run
TRACED_OPS = 6  # per-layer metrics cover this many traced ops
BATCH = 32

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import entrogame; "
    "from entrogame.config import load_scenario; load_scenario(sys.argv[2])"
)

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("peak_rss_mb", "MB"),
]
# Printed and recorded with the end-to-end metrics, not reported in the JSON
# line: the same figures in raw wall-clock time, which follows the host's
# speed, and the reference loop's own time.
WALL = [
    ("wall.setup_s", "s"),
    ("wall.ops_per_s", "1/s"),
    ("wall.op_s.p50", "s"),
    ("wall.op_s.tail", "s"),
    ("ref_s", "s"),
]
REF_ITERATIONS = 200_000
REF_NOMINAL_S = 0.01  # the reference loop's time at the nominal speed
TRACE_METRICS = [
    ("trace.overhead", "ratio"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
]


def environment():
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l3_cache": l3,
    }


def artifact_digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def tail(times):
    """(value, percentile, ops beyond): the highest percentile with at
    least ten ops above it, or the maximum when there are ten or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


class Runner:
    """Runs ops through the CLI in this process and keeps one record per op."""

    def __init__(self, cli, workloads, out_root):
        self.cli = cli
        self.workloads = workloads
        self.out_root = out_root
        self.records = []

    def execute(self, op, tag, flags=None):
        out_dir = self.out_root / tag
        error = None
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err, \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                rc = self.cli.main(op.argv(out_dir, flags))
            except Exception as exc:  # an op that crashes is a failed op
                rc, error = None, repr(exc)
            seconds = time.perf_counter() - start
        problems = self.workloads.check(op, out_dir) if rc == 0 else []
        record = {
            "tag": tag,
            "command": op.command,
            "flags": op.flags if flags is None else flags,
            "seconds": seconds,
            "rc": rc,
            "error": error,
            "stderr": err.getvalue()[-500:] if rc != 0 else "",
            "problems": problems,
            "sha256": artifact_digest(out_dir) if out_dir.exists() else None,
        }
        shutil.rmtree(out_dir, ignore_errors=True)
        self.records.append(record)
        return record


def ok(record):
    return record["rc"] == 0 and not record["problems"]


def known_defect(record):
    """The README's ``resilience`` exits 3 (its edge cells leak past the
    domain, ROADMAP item 5).  It counts as a failed op but leaves the run
    correct; any other failed op makes the run incorrect."""
    return record["tag"] == "readme-resilience" and record["rc"] == 3 and not record["problems"]


def reference_s():
    """Seconds for a fixed pure-Python loop: the machine's current speed.

    On a shared host the CPU runs the same code up to 2x slower for seconds
    to minutes at a time, and this loop slows as much as the ops do.  Every
    reported time is scaled by ``REF_NOMINAL_S / reference_s()`` taken next to
    it, which cancels that drift; the raw wall-clock times are printed too.
    """
    start = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i
    return time.perf_counter() - start


def setup_sample(config_path):
    """Seconds for one fresh interpreter to import entrogame and load a scenario."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, "src", str(config_path)],
        capture_output=True, text=True, timeout=120,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    return seconds


def run(args):
    sys.path.insert(0, str(ROOT / "src"))
    import entrogame.cli as cli
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    command = workloads.WORKLOADS[args.workload][0]
    nproc = os.cpu_count() or 1
    work = Path(".bench_work") / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    in_dir = work / "in"
    in_dir.mkdir(parents=True)
    runner = Runner(cli, workloads, work / "out")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    try:
        ops = workloads.make_ops(args.workload, args.seed, in_dir, 0, BATCH)

        def op_at(index):
            while index >= len(ops):
                ops.extend(workloads.make_ops(args.workload, args.seed, in_dir, len(ops), BATCH))
            return ops[index]

        runner.execute(ops[0], "warmup")

        timed = []
        setup_samples = []  # (wall seconds, reference loop seconds right after)
        spans = pairs = None
        if not args.trace:
            # Set-up samples are spread over the timed phase, between ops and
            # outside their timing.  Each op's reference is the mean of the
            # loops just before and just after it.
            phase = 0.0
            refs = []
            while phase < args.seconds:
                sample = None
                if len(setup_samples) < 1 + SETUP_SAMPLES * phase / args.seconds:
                    sample = setup_sample(ops[0].config_path)
                refs.append(reference_s())
                if sample is not None:
                    setup_samples.append((sample, refs[-1]))
                rec = runner.execute(op_at(1 + len(timed)), f"op-{len(timed):05d}")
                timed.append(rec)
                phase += rec["seconds"]
            refs.append(reference_s())
            for rec, before, after in zip(timed, refs, refs[1:]):
                rec["ref_s"] = (before + after) / 2.0
            while len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append((setup_sample(ops[0].config_path), reference_s()))
        else:
            tr = tracing.Tracer()
            pairs = []
            phase = 0.0
            while phase < args.seconds or len(pairs) < TRACED_OPS:
                op = op_at(1 + len(pairs))
                pair = {}
                for traced in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
                    if traced:
                        tr.op = len(pairs)
                        tr.install()
                    try:
                        rec = runner.execute(op, f"{'traced' if traced else 'plain'}-{len(pairs):05d}")
                    finally:
                        tr.uninstall()
                    pair[traced] = rec
                    phase += rec["seconds"]
                if pair[True]["sha256"] != pair[False]["sha256"]:
                    pair[True]["problems"].append("tracing changed the artifacts")
                pairs.append(pair)
            timed = [p[True] for p in pairs]
            spans = tr.spans
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.workload == "noise-resilience":
            # Thread invariance (acceptance 12): the first timed op again
            # with --threads 1 must write the same bytes as with --threads 2.
            first = timed[0]
            flags = [f for f in first["flags"] if f not in ("--threads", "2")] + ["--threads", "1"]
            again = runner.execute(op_at(1), "threads-1", flags)
            if again["rc"] == 0 and again["sha256"] != first["sha256"]:
                again["problems"].append("--threads 1 and --threads 2 artifacts differ")
            # The README scenario, once per run and untimed.
            for op in workloads.readme_ops(in_dir, nproc):
                runner.execute(op, f"readme-{op.command}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = runner.records
    failed = [r for r in records if not ok(r)]
    record.update({
        "setup_samples": setup_samples,
        "ops": records,
        "failed_ops": [{k: r[k] for k in ("tag", "rc", "error", "stderr", "problems")} for r in failed],
        "run_sha256": hashlib.sha256("".join(str(r["sha256"]) for r in records).encode()).hexdigest(),
    })
    lines = [f"workload {args.workload} seed {args.seed}: {command} "
             f"{' '.join(ops[0].flags)}; environment {json.dumps(record['environment'], sort_keys=True)}"]
    if args.trace:
        metrics, units = trace_report(tracing, spans, pairs, lines)
        spans_path = OUT / f"{args.workload}-s{args.seed}-spans.json"
        OUT.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent, s.op, s.counts, s.error] for s in spans]))
        record["spans"] = str(spans_path)
    else:
        metrics, units = end_to_end_report(
            command, setup_samples, timed, peak_rss_mb, records, lines)
        record["tail"] = metrics.pop("_tail")
        record["wall"] = metrics.pop("_wall")
    for r in failed:
        lines.append(f"  failed op {r['tag']}: rc={r['rc']} {r['error'] or ''} "
                     f"{'; '.join(r['problems'])} {r['stderr'].strip()}")
    lines.append(f"  artifacts sha256 over all ops: {record['run_sha256']}")

    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    result = {
        "correct": all(ok(r) or known_defect(r) for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def nominal(seconds, ref_s):
    """Wall seconds scaled to the speed at which the reference loop takes
    ``REF_NOMINAL_S``."""
    return seconds * REF_NOMINAL_S / ref_s


def end_to_end_report(command, setup_samples, timed, peak_rss_mb, records, lines):
    good = [r for r in timed if ok(r)]
    scaled = [nominal(r["seconds"], r["ref_s"]) for r in good]
    wall = [r["seconds"] for r in good]
    tail_s, pct, beyond = tail(scaled) if good else (None, None, 0)
    metrics = {
        "setup_s": statistics.median(nominal(s, ref) for s, ref in setup_samples),
        "ops_per_s": len(good) / sum(nominal(r["seconds"], r["ref_s"]) for r in timed),
        "op_s.p50": statistics.median(scaled) if good else None,
        "op_s.tail": tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    shown = dict(metrics)
    shown.update({
        "wall.setup_s": statistics.median(s for s, _ in setup_samples),
        "wall.ops_per_s": len(good) / sum(r["seconds"] for r in timed),
        "wall.op_s.p50": statistics.median(wall) if good else None,
        "wall.op_s.tail": tail(wall)[0] if good else None,
        "ref_s": statistics.median(r["ref_s"] for r in timed),
    })
    alias = command.replace("-", "_") + "_s"
    names = {"op_s.p50": f"{alias}.p50", "op_s.tail": f"{alias}.tail"}
    lines.append(f"  {'metric':<16} {'also known as':<22} {'value':>14} unit")
    for name, unit in END_TO_END + WALL:
        value = "null" if shown[name] is None else f"{shown[name]:.6g}"
        lines.append(f"  {name:<16} {names.get(name, name):<22} {value:>14} {unit}")
    n_failed = sum(not ok(r) for r in records)
    lines.append(f"  {'failed_frac':<16} {'failed_frac':<22} {n_failed / len(records):>14.6g} ratio"
                 f"  ({n_failed} of {len(records)} ops, warm-up and untimed checks included)")
    lines.append(f"  tail = p{pct:.1f} of {len(good)} successful {command} ops ({beyond} beyond it)"
                 if good else "  no successful op")
    metrics["_tail"] = {"percentile": pct, "ops": len(good), "beyond": beyond}
    metrics["_wall"] = {name: shown[name] for name, _ in WALL}
    return metrics, dict(END_TO_END)


def trace_report(tracing, spans, pairs, lines):
    traced_s = sum(p[True]["seconds"] for p in pairs)
    plain_s = sum(p[False]["seconds"] for p in pairs)
    layer, stats = tracing.aggregate(spans, set(range(TRACED_OPS)))
    metrics = {k: v["value"] for k, v in layer.items()}
    metrics.update({
        "trace.overhead": traced_s / plain_s - 1.0,
        "trace.ops_per_s": len(pairs) / traced_s,
        "trace.untraced_ops_per_s": len(pairs) / plain_s,
    })
    units = {m: u for m, _, _, u in tracing.PER_LAYER}
    units.update(dict(TRACE_METRICS))
    lines.append(f"  self time over the first {TRACED_OPS} traced ops "
                 f"(share of cli.main inclusive time):")
    lines.extend(tracing.self_time_table(stats))
    lines.append(f"  tracing overhead {metrics['trace.overhead']:+.2%} over {len(pairs)} op pairs "
                 f"({metrics['trace.ops_per_s']:.4g} traced vs "
                 f"{metrics['trace.untraced_ops_per_s']:.4g} untraced ops/s)")
    for name, _, _, unit in tracing.PER_LAYER:
        mark = "  (computed)" if name in tracing.COMPUTED else ""
        lines.append(f"  {name:<44} {metrics[name]:>16.6g} {unit}{mark}")
    return metrics, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "entrogame" / "__init__.py").is_file():
        print(f"error: no entrogame sources under {ROOT / 'src'}; run inside a checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
