#!/usr/bin/env python3
"""Median and quartiles per workload and metric over saved run records.

    python3 bench/summarize.py [--write bench/baseline.json]

Reads the ``<workload>-s<seed>-trace<0|1>.json`` records that ``run.py``
leaves in ``.bench_out/``.  The spread is the distance between the first and
third quartile as a share of the median, as ``statistics.quantiles`` gives it.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def summarize(records):
    table = {}
    for rec in records:
        kind = "per_layer" if rec["trace"] else "end_to_end"
        entry = table.setdefault(rec["workload"], {}).setdefault(kind, {})
        for name, value in rec["metrics"].items():
            if value is not None:
                entry.setdefault(name, {"seeds": [], "values": []})
                entry[name]["seeds"].append(rec["seed"])
                entry[name]["values"].append(value)
    for kinds in table.values():
        for metrics in kinds.values():
            for stats in metrics.values():
                values = stats["values"]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
                stats.update(median=median, q1=q1, q3=q3,
                             spread=(q3 - q1) / median if median else 0.0)
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", default=None, help="also write the summary as JSON")
    args = parser.parse_args(argv)
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-trace[01].json"))]
    table = summarize(records)
    for workload, kinds in sorted(table.items()):
        for kind, metrics in kinds.items():
            print(f"{workload} ({kind})")
            for name, s in metrics.items():
                print(f"  {name:<44} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                      f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f}  n={len(s['values'])}")
    if args.write:
        envs = {json.dumps(r["environment"], sort_keys=True) for r in records}
        Path(args.write).write_text(json.dumps(
            {"environments": [json.loads(e) for e in sorted(envs)], "workloads": table},
            indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
