"""Layer spans and counters for one czmap process, installed from outside.

`install()` replaces the public functions and methods listed in `TRACED`
with wrappers, in every `czmap` module namespace that holds them (a
function imported by name into another module is looked up there, so
`engine.segment_length` is wrapped as well as `geodesics.segment_length`).
Each wrapper records the call, its self time (its span minus the spans of
the wrapped calls it makes) and, where listed, a count taken from its
arguments or result.  `layer_metrics()` turns the totals into the
benchmark's per-layer metrics.  The program's code is not changed.
"""

from __future__ import annotations

import functools
import inspect
import math
import re
import sys
import time
from collections import defaultdict

import numpy as np


def _points(args, kwargs, result):
    """Evaluation points of one expression call: its batch size."""
    points = args[1]
    shape = points.shape if isinstance(points, np.ndarray) else np.shape(points)
    return {"points": math.prod(shape[:-1])}


def _segments(args, kwargs, result):
    """Segments measured by one `segment_length` call."""
    a = args[1] if len(args) > 1 else kwargs["a"]
    b = args[2] if len(args) > 2 else kwargs["b"]
    shape = np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1])
    return {"pairs": math.prod(shape)}


def _holder_pairs(args, kwargs, result):
    """Point pairs compared: all of them up to the pair cap, else the cap."""
    holder = sys.modules["czmap.norms"].holder_seminorm
    bound = inspect.signature(holder).bind(*args, **kwargs)
    bound.apply_defaults()
    n = len(bound.arguments["points"])
    return {"pairs": min(n * (n - 1) // 2, int(bound.arguments["pair_cap"]))}


def _cover(args, kwargs, result):
    chart = args[0] if args else kwargs["chart"]
    return {"grid_points": int(chart.box.num_points),
            "centers": int(result.size),
            "multiplicity": int(result.multiplicity)}


def _report_bytes(args, kwargs, result):
    """Bytes written, less the digits of the wall-clock `timing_seconds`
    values, whose length varies from run to run."""
    size = 0
    for path in result:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        size += len(text.encode("utf-8")) - sum(
            len(m) for m in re.findall(r'"timing_seconds": ([^,}]*)', text))
    return {"bytes": size}


# (module, function or Class.method, span, counter).  A counter returns
# {name: int} for one call; the tracer keeps the sum and the maximum of
# each "<span>.<name>" over calls.
TRACED = [
    ("czmap.scenario", "load_scenario", "scenario.load", None),
    ("czmap.scenario", "Scenario.build_models", "scenario.build_models", None),
    ("czmap.expressions", "Expression.__call__", "expressions.eval", _points),
    ("czmap.geometry", "MetricChart.christoffel_at", "geometry.christoffel",
     None),
    ("czmap.geometry", "MetricChart.grid_metric", "geometry.grid", None),
    ("czmap.geometry", "MetricChart.grid_inverse", "geometry.grid", None),
    ("czmap.geometry", "MetricChart.grid_sqrt_det", "geometry.grid", None),
    ("czmap.geometry", "MetricChart.grid_christoffel", "geometry.grid", None),
    ("czmap.geometry", "MetricChart.ellipticity_range", "geometry.grid", None),
    ("czmap.geodesics", "segment_length", "geodesics.segment_length",
     _segments),
    ("czmap.geodesics", "log_map", "geodesics.log_map", None),
    ("czmap.geodesics", "distance_field", "geodesics.distance_field", None),
    ("czmap.maps", "generalized_hessian", "maps.jet", None),
    ("czmap.norms", "holder_seminorm", "norms.holder", _holder_pairs),
    ("czmap.norms", "lp_norm_on", "norms.lp", None),
    ("czmap.norms", "lp_norm", "norms.lp", None),
    ("czmap.harmonic", "estimate_harmonic_radius", "harmonic.estimate", None),
    ("czmap.harmonic", "solve_harmonic_chart", "harmonic.solve", None),
    ("czmap.engine", "build_cover", "engine.cover", _cover),
    ("czmap.engine", "verify_global_estimate", "engine.global", None),
    ("czmap.engine", "verify_scaling_identities", "engine.lemma", None),
    ("czmap.engine", "verify_interior_estimate", "engine.lemma", None),
    ("czmap.search", "extremal_ratio_search", "search", None),
    ("czmap.search", "MapFamily.evaluate", "search.evaluate", None),
    ("czmap.report", "write_reports", "report.write", _report_bytes),
    ("czmap.report", "summarize", "report.write", None),
    ("czmap.report", "read_reports", "report.read", None),
]

# per-layer metric -> (unit, kind, keys).  "time" sums the self times of
# the spans named, "calls" counts calls of a span, "sum" and "max" read a
# counter over all calls.
PER_LAYER = {
    "scenario.load_s": ("s", "time", "scenario.load"),
    "scenario.build_models.calls": ("count", "calls", "scenario.build_models"),
    "scenario.build_models_s": ("s", "time", "scenario.build_models"),
    "expressions.eval.calls": ("count", "calls", "expressions.eval"),
    "expressions.eval.points": ("count", "sum", "expressions.eval.points"),
    "expressions.eval_s": ("s", "time", "expressions.eval"),
    "geometry.christoffel.calls": ("count", "calls", "geometry.christoffel"),
    "geometry.christoffel_s": ("s", "time", "geometry.christoffel"),
    "geometry.grid_s": ("s", "time", "geometry.grid"),
    "geodesics.segment_length.calls": ("count", "calls",
                                       "geodesics.segment_length"),
    "geodesics.segment_length.pairs": ("count", "sum",
                                       "geodesics.segment_length.pairs"),
    "geodesics.segment_length_s": ("s", "time", "geodesics.segment_length"),
    "geodesics.log_map.calls": ("count", "calls", "geodesics.log_map"),
    "geodesics.log_map_s": ("s", "time", "geodesics.log_map"),
    "geodesics.distance_field_s": ("s", "time", "geodesics.distance_field"),
    "maps.jet.calls": ("count", "calls", "maps.jet"),
    "maps.jet_s": ("s", "time", "maps.jet"),
    "norms.holder.calls": ("count", "calls", "norms.holder"),
    "norms.holder.pairs": ("count", "sum", "norms.holder.pairs"),
    "norms.holder_s": ("s", "time", "norms.holder"),
    "norms.lp_s": ("s", "time", "norms.lp"),
    "harmonic.estimates": ("count", "calls", "harmonic.estimate"),
    "harmonic.solves": ("count", "calls", "harmonic.solve"),
    "harmonic.estimate_s": ("s", "time", "harmonic.estimate"),
    "harmonic.solve_s": ("s", "time", "harmonic.solve"),
    "engine.cover.builds": ("count", "calls", "engine.cover"),
    "engine.cover_s": ("s", "time", "engine.cover"),
    "engine.cover.grid_points": ("count", "sum", "engine.cover.grid_points"),
    "engine.cover.centers": ("count", "sum", "engine.cover.centers"),
    "engine.cover.multiplicity": ("count", "max", "engine.cover.multiplicity"),
    "engine.global.calls": ("count", "calls", "engine.global"),
    "engine.global_s": ("s", "time", "engine.global"),
    "engine.lemma_s": ("s", "time", "engine.lemma"),
    "search.evaluations": ("count", "calls", "search.evaluate"),
    "search.covers_per_evaluation": ("ratio", "per_evaluation",
                                     "engine.cover"),
    "search_s": ("s", "time", "search", "search.evaluate"),
    "report.write_s": ("s", "time", "report.write"),
    "report.read_s": ("s", "time", "report.read"),
    "report.bytes": ("B", "sum", "report.write.bytes"),
}


class Tracer:
    """Self times, call counts and counters of the wrapped functions."""

    def __init__(self):
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.sums = defaultdict(int)
        self.maxima = defaultdict(int)
        self._child_time = [0.0]   # time spent in wrapped callees, per frame

    def wrap(self, fn, span, counter):
        stack = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_time[span] += elapsed - stack.pop()
                stack[-1] += elapsed
                self.calls[span] += 1
            if counter is not None:
                for name, value in counter(args, kwargs, result).items():
                    key = f"{span}.{name}"
                    self.sums[key] += value
                    self.maxima[key] = max(self.maxima[key], value)
            return result
        return traced

    def install(self):
        """Wrap every entry of `TRACED`; czmap must be importable."""
        import czmap  # noqa: F401  (imports every czmap module)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "czmap" or key.startswith("czmap.")]
        for module_name, attr, span, counter in TRACED:
            module = sys.modules[module_name]
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, fn_name,
                        self.wrap(owner.__dict__[fn_name], span, counter))
                continue
            original = getattr(module, fn_name)
            traced = self.wrap(original, span, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def totals(self) -> dict:
        return {"self_time": dict(self.self_time), "calls": dict(self.calls),
                "sum": dict(self.sums), "max": dict(self.maxima)}


def layer_metrics(totals: dict) -> dict:
    """Per-layer metric name -> value, from one process's `totals()`."""
    out = {}
    for metric, (unit, kind, *keys) in PER_LAYER.items():
        if kind == "time":
            value = sum(totals["self_time"].get(k, 0.0) for k in keys)
        elif kind == "calls":
            value = totals["calls"].get(keys[0], 0)
        elif kind == "per_evaluation":
            evaluations = totals["calls"].get("search.evaluate", 0)
            value = (totals["calls"].get(keys[0], 0) / evaluations
                     if evaluations else 0.0)
        else:
            value = totals[kind].get(keys[0], 0)
        out[metric] = value
    return out
