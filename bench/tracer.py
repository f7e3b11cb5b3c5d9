"""Spans around the public functions of each entrogame module.

``Tracer.install`` rebinds every wrapped name in every loaded ``entrogame``
module that holds a reference to it (``cli``, ``game``, ``perturb`` and
``config`` import functions by name) and wraps ``Partition.locate``,
``UlamMatrix.__init__`` and ``OperatorCache.operator`` on their classes.
``uninstall`` puts the originals back.  Each span records name, start, end,
parent span, op id and the counts taken from the call's arguments and
result; spans stay in memory until the run writes them out.

Counts marked "computed" below are derived from arguments and results, not
measured: they repeat exactly for a given seed.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from pathlib import Path


def _cells(partition):
    return int(partition.cell_count)


def _steps(a, result):
    # RK4 steps of a constant-coefficient loop (all workloads): ``steps``
    # over a non-empty window.  Computed.
    return {"steps": int(a["steps"]) if a["t1"] != a["t0"] else 0}


def _ulam_points(a, result):
    return {"points": _cells(a["partition"]) * int(a["samples_per_cell"])}


def _locate_points(a, result):
    shape = getattr(a["points"], "shape", None)
    return {"points": int(shape[0]) if shape and len(shape) == 2 else 1}


def _dense_bytes(a, result):
    # counts (int64) and entries (float64), M x M each.  Computed.
    return {"dense_bytes": 2 * _cells(a["partition"]) ** 2 * 8}


def _stationary(a, result):
    m = _cells(a["matrix"].partition)
    return {"iterations": result.iterations, "matvec_bytes": result.iterations * m * m * 8}


def _rounds(a, result):
    return {"rounds": int(result.rounds)}


def _n_steps(t, h):
    return max(1, int(round(t / h)))


def _stochastic_paths(a, result):
    paths = _cells(a["partition"]) * a["path_cfg"].n_paths
    return {"paths": paths, "path_steps": paths * _n_steps(a["t"], a["path_cfg"].h)}


def _ensemble_paths(a, result):
    cfg = a["path_cfg"]
    return {"paths": cfg.n_paths, "path_steps": cfg.n_paths * cfg.n_steps}


def _file_bytes(a, result):
    return {"bytes": Path(result).stat().st_size}


# (module, attribute, class or None, span name, counts from arguments/result)
WRAPPED = [
    ("config", "load_scenario", None, "config.load_scenario", None),
    ("system", "integrate_transition", None, "system.integrate_transition", _steps),
    ("system", "flow_map", None, "system.flow_map", None),
    ("transfer", "build_ulam", None, "transfer.build_ulam", _ulam_points),
    ("transfer", "locate", "Partition", "transfer.Partition.locate", _locate_points),
    ("transfer", "__init__", "UlamMatrix", "transfer.UlamMatrix", _dense_bytes),
    ("transfer", "apply_fp", None, "transfer.apply_fp", None),
    ("transfer", "stationary_density", None, "transfer.stationary_density", _stationary),
    ("entropy", "entropy", None, "entropy.entropy", None),
    ("entropy", "relative_entropy", None, "entropy.relative_entropy", None),
    ("game", "operator", "OperatorCache", "game.OperatorCache.operator", None),
    ("game", "criterion", None, "game.criterion", None),
    ("game", "find_equilibrium", None, "game.find_equilibrium", _rounds),
    ("game", "verify_equilibrium", None, "game.verify_equilibrium", None),
    ("game", "entropy_decay_trace", None, "game.entropy_decay_trace", None),
    ("perturb", "build_stochastic_ulam", None, "perturb.build_stochastic_ulam", _stochastic_paths),
    ("perturb", "ensemble_endpoints", None, "perturb.ensemble_endpoints", _ensemble_paths),
    ("perturb", "resilience_report", None, "perturb.resilience_report", None),
    ("artifacts", "write_csv", None, "artifacts.write_csv", _file_bytes),
    ("artifacts", "write_json", None, "artifacts.write_json", _file_bytes),
    ("artifacts", "write_ulam", None, "artifacts.write_ulam", None),
    ("artifacts", "write_density", None, "artifacts.write_density", None),
    ("cli", "main", None, "cli.main", None),
]

# Per-layer metrics: (metric name, span name, quantity, unit).  Quantities:
# calls, s (inclusive seconds), self_s (minus the time child spans cover) or
# a count key recorded by the span.
PER_LAYER = [
    ("config.load_scenario.calls", "config.load_scenario", "calls", "count"),
    ("config.load_scenario.s", "config.load_scenario", "s", "s"),
    ("system.integrate_transition.calls", "system.integrate_transition", "calls", "count"),
    ("system.integrate_transition.s", "system.integrate_transition", "s", "s"),
    ("system.integrate_transition.steps", "system.integrate_transition", "steps", "count"),
    ("system.flow_map.calls", "system.flow_map", "calls", "count"),
    ("system.flow_map.self_s", "system.flow_map", "self_s", "s"),
    ("transfer.build_ulam.calls", "transfer.build_ulam", "calls", "count"),
    ("transfer.build_ulam.s", "transfer.build_ulam", "s", "s"),
    ("transfer.build_ulam.self_s", "transfer.build_ulam", "self_s", "s"),
    ("transfer.build_ulam.points", "transfer.build_ulam", "points", "count"),
    ("transfer.Partition.locate.calls", "transfer.Partition.locate", "calls", "count"),
    ("transfer.Partition.locate.s", "transfer.Partition.locate", "s", "s"),
    ("transfer.Partition.locate.points", "transfer.Partition.locate", "points", "count"),
    ("transfer.UlamMatrix.calls", "transfer.UlamMatrix", "calls", "count"),
    ("transfer.UlamMatrix.s", "transfer.UlamMatrix", "s", "s"),
    ("transfer.dense_bytes", "transfer.UlamMatrix", "dense_bytes", "bytes"),
    ("transfer.apply_fp.calls", "transfer.apply_fp", "calls", "count"),
    ("transfer.apply_fp.s", "transfer.apply_fp", "s", "s"),
    ("transfer.stationary_density.calls", "transfer.stationary_density", "calls", "count"),
    ("transfer.stationary_density.s", "transfer.stationary_density", "s", "s"),
    ("transfer.stationary_density.iterations", "transfer.stationary_density", "iterations", "count"),
    ("transfer.stationary_density.matvec_bytes", "transfer.stationary_density", "matvec_bytes", "bytes"),
    ("entropy.entropy.calls", "entropy.entropy", "calls", "count"),
    ("entropy.entropy.s", "entropy.entropy", "s", "s"),
    ("entropy.relative_entropy.calls", "entropy.relative_entropy", "calls", "count"),
    ("entropy.relative_entropy.s", "entropy.relative_entropy", "s", "s"),
    ("game.OperatorCache.operator.calls", "game.OperatorCache.operator", "calls", "count"),
    ("game.OperatorCache.operator.self_s", "game.OperatorCache.operator", "self_s", "s"),
    ("game.OperatorCache.operator.hits", "game.OperatorCache.operator", "hits", "count"),
    ("game.OperatorCache.operator.hit_ratio", "game.OperatorCache.operator", "hit_ratio", "ratio"),
    ("game.OperatorCache.operator.rejections", "game.OperatorCache.operator", "rejections", "count"),
    ("game.criterion.calls", "game.criterion", "calls", "count"),
    ("game.criterion.s", "game.criterion", "s", "s"),
    ("game.find_equilibrium.s", "game.find_equilibrium", "s", "s"),
    ("game.find_equilibrium.rounds", "game.find_equilibrium", "rounds", "count"),
    ("game.verify_equilibrium.s", "game.verify_equilibrium", "s", "s"),
    ("game.entropy_decay_trace.s", "game.entropy_decay_trace", "s", "s"),
    ("perturb.build_stochastic_ulam.calls", "perturb.build_stochastic_ulam", "calls", "count"),
    ("perturb.build_stochastic_ulam.s", "perturb.build_stochastic_ulam", "s", "s"),
    ("perturb.build_stochastic_ulam.self_s", "perturb.build_stochastic_ulam", "self_s", "s"),
    ("perturb.build_stochastic_ulam.paths", "perturb.build_stochastic_ulam", "paths", "count"),
    ("perturb.build_stochastic_ulam.path_steps", "perturb.build_stochastic_ulam", "path_steps", "count"),
    ("perturb.ensemble_endpoints.calls", "perturb.ensemble_endpoints", "calls", "count"),
    ("perturb.ensemble_endpoints.s", "perturb.ensemble_endpoints", "s", "s"),
    ("perturb.ensemble_endpoints.paths", "perturb.ensemble_endpoints", "paths", "count"),
    ("perturb.ensemble_endpoints.path_steps", "perturb.ensemble_endpoints", "path_steps", "count"),
    ("perturb.resilience_report.s", "perturb.resilience_report", "s", "s"),
    ("perturb.resilience_report.self_s", "perturb.resilience_report", "self_s", "s"),
    ("artifacts.write_csv.calls", "artifacts.write_csv", "calls", "count"),
    ("artifacts.write_csv.s", "artifacts.write_csv", "s", "s"),
    ("artifacts.write_csv.bytes", "artifacts.write_csv", "bytes", "bytes"),
    ("artifacts.write_json.calls", "artifacts.write_json", "calls", "count"),
    ("artifacts.write_json.s", "artifacts.write_json", "s", "s"),
    ("artifacts.write_json.bytes", "artifacts.write_json", "bytes", "bytes"),
    ("artifacts.write_ulam.s", "artifacts.write_ulam", "s", "s"),
    ("artifacts.write_ulam.self_s", "artifacts.write_ulam", "self_s", "s"),
    ("artifacts.write_density.s", "artifacts.write_density", "s", "s"),
    ("cli.main.calls", "cli.main", "calls", "count"),
    ("cli.main.s", "cli.main", "s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
]

COMPUTED = {
    "system.integrate_transition.steps",
    "transfer.build_ulam.points",
    "transfer.Partition.locate.points",
    "transfer.dense_bytes",
    "transfer.stationary_density.matvec_bytes",
    "perturb.build_stochastic_ulam.paths",
    "perturb.build_stochastic_ulam.path_steps",
    "perturb.ensemble_endpoints.paths",
    "perturb.ensemble_endpoints.path_steps",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "error")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.counts = None
        self.error = None


class Tracer:
    """Collects spans while installed; ``op`` tags every span it records."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack = []
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn, counts):
        signature = inspect.signature(fn) if counts else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A span opened in a worker thread belongs to the main-thread
            # span that is waiting on the pool.
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None
            )
            with tracer._lock:
                index = len(tracer.spans)
                span = Span(name, time.perf_counter(), parent, tracer.op)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counts(bound.arguments, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "entrogame" or n.startswith("entrogame.")]
        for module_name, attr, cls_name, span_name, counts in WRAPPED:
            home = sys.modules[f"entrogame.{module_name}"]
            if cls_name:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(span_name, original, counts))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(span_name, original, counts)
            for module in modules:
                if vars(module).get(attr) is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def aggregate(spans, ops):
    """Per-layer metrics over the spans of the given op ids."""
    chosen = [i for i, s in enumerate(spans) if s.op in ops]
    children = {}
    for i in chosen:
        if spans[i].parent is not None:
            children.setdefault(spans[i].parent, []).append(i)
    stats = {}
    for i in chosen:
        s = spans[i]
        kids = children.get(i, [])
        duration = s.end - s.start
        covered = _covered([(spans[k].start, spans[k].end) for k in kids], s.start, s.end)
        entry = stats.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "hits": 0, "rejections": 0})
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - covered
        for key, value in (s.counts or {}).items():
            entry[key] = entry.get(key, 0) + value
        if s.name == "game.OperatorCache.operator":
            if not any(spans[k].name == "transfer.build_ulam" for k in kids):
                entry["hits"] += 1
            if s.error == "DomainEscapeError":
                entry["rejections"] += 1
    op_cache = stats.get("game.OperatorCache.operator")
    if op_cache:
        op_cache["hit_ratio"] = op_cache["hits"] / op_cache["calls"]
    metrics = {}
    for metric, span_name, quantity, unit in PER_LAYER:
        value = stats.get(span_name, {}).get(quantity, 0)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics, stats


def self_time_table(stats):
    """Lines of a self-time table sorted by share of total op time."""
    total = stats.get("cli.main", {}).get("s", 0.0)
    rows = sorted(((v["self_s"], name, v["calls"]) for name, v in stats.items()), reverse=True)
    lines = [f"  {'span':<34} {'calls':>7} {'self_s':>10} {'share':>7}"]
    for self_s, name, calls in rows:
        share = self_s / total if total > 0 else math.nan
        lines.append(f"  {name:<34} {calls:>7} {self_s:>10.4f} {share:>6.1%}")
    return lines
