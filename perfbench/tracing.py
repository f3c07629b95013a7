"""Span tracing for the benchmark's traced run, from outside the library.

``Tracer.install`` replaces each library function listed by ``targets`` by a
wrapper, at the place where its caller looks the name up: on the defining
module for calls made inside that module, on the importing module for names
imported with ``from ... import``, and on the class for methods.
``Tracer.uninstall`` puts the originals back.  Nothing under ``src/`` is
changed, and runs without tracing wrap nothing.

Each wrapped call records one span ``[id, parent, op, name, start, end,
attrs]``.  ``parent`` is the innermost span open on the same thread; a span
opened on a worker thread with nothing open on it (the sweep's thread pool)
takes the loop thread's open top-level span as parent.  A call whose name
equals the innermost open span on its thread records nothing, so recursive
``json_dumps`` and kernel methods calling each other count once, at the
outermost call.  Spans live in memory until ``write`` saves them as JSON
lines; ``per_layer_metrics`` computes every per-layer metric from that file.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter, thread_time

import numpy as np

LAYERS = ("geom_core", "visitation", "fleet_costs", "kernels", "oracle", "regions", "tradeoffs", "cli")

# Strategy kinds that visit_three_ordered and visit_two_set can return.
# Perpendicular drops are built inside fleet_costs.r2/r3 and never returned
# by either function, so they are not counted.
KINDS = ("bouncing", "degenerate-vertex-bounce", "subopt-vertex-altitude", "direct-to-vertex")

# Spans that also record the CPU time of their thread.  On the sweep's
# thread pool, wall time inside a span includes waiting for the interpreter
# lock; CPU time does not.
CPU_TIMED = frozenset({"tradeoffs.max_ratio"})

# Every per-layer metric with its unit, in output order.  BENCHMARK.json
# lists the same names (selftest.py checks that they agree).
PER_LAYER = (
    ("kernels.TriangleKernel.calls", "count"),
    ("kernels.TriangleKernel.self_s", "s"),
    ("kernels.points_per_kernel", "points"),
    ("kernels.eval.calls", "count"),
    ("kernels.eval.points", "count"),
    ("kernels.eval.self_s", "s"),
    ("kernels.eval.us_per_point", "us"),
    ("kernels.project_into.calls", "count"),
    ("kernels.project_into.self_s", "s"),
    ("kernels.barycentric_grid.self_s", "s"),
    ("tradeoffs.sweep_triangles.self_s", "s"),
    ("tradeoffs.max_ratio.calls", "count"),
    ("tradeoffs.max_ratio.self_s", "s"),
    ("tradeoffs.max_ratio.p50_ms", "ms"),
    ("tradeoffs.max_ratio.p90_ms", "ms"),
    ("tradeoffs.refinement_steps", "count"),
    ("tradeoffs.steps_per_cell", "count"),
    ("tradeoffs.cell_overlap", "ratio"),
    ("tradeoffs.max_ratio.lock_wait_frac", "ratio"),
    ("regions.raster_region_map.calls", "count"),
    ("regions.raster_region_map.self_s", "s"),
    ("regions.to_csv.self_s", "s"),
    ("regions.to_csv.bytes", "bytes"),
    ("regions.to_svg.self_s", "s"),
    ("regions.to_svg.bytes", "bytes"),
    ("regions.chains.self_s", "s"),
    ("regions.tie_cell_frac", "ratio"),
    ("fleet_costs.fleet_costs.calls", "count"),
    ("fleet_costs.fleet_costs.us_per_call", "us"),
    ("fleet_costs.r1.self_s", "s"),
    ("fleet_costs.r2.self_s", "s"),
    ("fleet_costs.r3.self_s", "s"),
    ("fleet_costs.tie_frac", "ratio"),
    ("visitation.visit_three_ordered.calls", "count"),
    ("visitation.visit_three_ordered.self_s", "s"),
    ("visitation.visit_two_set.calls", "count"),
    ("visitation.visit_two_set.self_s", "s"),
    *((f"visitation.kind.{k}", "count") for k in KINDS),
    ("geom_core.Triangle.calls", "count"),
    ("geom_core.Triangle.self_s", "s"),
    ("geom_core.Triangle.standard.calls", "count"),
    ("geom_core.Triangle.standard.self_s", "s"),
    ("oracle.oracle_ordered3.calls", "count"),
    ("oracle.oracle_ordered3.self_s", "s"),
    ("oracle.oracle_two_ordered.calls", "count"),
    ("oracle.oracle_two_ordered.self_s", "s"),
    ("oracle.certify_instance.self_s", "s"),
    ("oracle.max_abs_delta", "cost"),
    ("cli.eval_report.self_s", "s"),
    ("cli.json_dumps.self_s", "s"),
    ("cli.json_dumps.bytes", "bytes"),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("trace.overhead_frac", "ratio"),
    ("trace.top_level_coverage", "ratio"),
    ("input.thin_frac", "ratio"),
    ("input.boundary_point_frac", "ratio"),
    ("input.vertex_point_frac", "ratio"),
    ("input.tiny_scale_frac", "ratio"),
    ("check.fail_frac", "ratio"),
    ("check.known_defect_frac", "ratio"),
)


def _points(args, kwargs, result):
    return {"points": len(args[1])}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _steps(args, kwargs, result):
    return {"steps": result.refinement_steps}


def _tie(args, kwargs, result):
    return {"tie": result.r1.tie or result.r2.tie or result.r3.tie}


def _kind(args, kwargs, result):
    return {"kind": result.kind.value}


def _max_delta(args, kwargs, result):
    return {"delta": max((abs(d) for d in result.values()), default=0.0)}


_KERNEL_EVALS = ("cost", "ratio", "r1", "r2", "r3", "r1_all", "r2_partitions", "r3_all")


def targets(lib):
    """(owner, attribute, span name, attrs function) for every wrapped call site."""
    gc, vis, fc, kern = lib.geom_core, lib.visitation, lib.fleet_costs, lib.kernels
    orc, reg, tro, cli = lib.oracle, lib.regions, lib.tradeoffs, lib.cli
    return [
        (gc.Triangle, "__init__", "geom_core.Triangle", None),
        (gc.Triangle, "standard", "geom_core.Triangle.standard", None),
        (kern.TriangleKernel, "__init__", "kernels.TriangleKernel", None),
        *((kern.TriangleKernel, m, "kernels.eval", _points) for m in _KERNEL_EVALS),
        (tro, "project_into", "kernels.project_into", None),
        (tro, "barycentric_grid", "kernels.barycentric_grid", None),
        (tro, "sweep_triangles", "tradeoffs.sweep_triangles", None),
        (tro, "max_ratio", "tradeoffs.max_ratio", _steps),
        (reg, "raster_region_map", "regions.raster_region_map", None),
        (reg.RegionMap, "to_csv", "regions.to_csv", _file_bytes),
        (reg.RegionMap, "to_svg", "regions.to_svg", _file_bytes),
        (reg, "r2_separator", "regions.chains", None),
        (reg, "r1_lrd_rld_locus", "regions.chains", None),
        *((mod, "fleet_costs", "fleet_costs.fleet_costs", _tie) for mod in (fc, cli, tro)),
        (fc, "r1", "fleet_costs.r1", None),
        (fc, "r2", "fleet_costs.r2", None),
        (fc, "r3", "fleet_costs.r3", None),
        *((mod, "visit_three_ordered", "visitation.visit_three_ordered", _kind) for mod in (fc, vis)),
        *((mod, "visit_two_set", "visitation.visit_two_set", _kind) for mod in (fc, vis)),
        (orc, "oracle_ordered3", "oracle.oracle_ordered3", None),
        (orc, "oracle_two_ordered", "oracle.oracle_two_ordered", None),
        (orc, "certify_instance", "oracle.certify_instance", _max_delta),
        (cli, "eval_report", "cli.eval_report", None),
        (cli, "json_dumps", "cli.json_dumps", _text_bytes),
    ]


class Tracer:
    """Records spans of the wrapped library calls made while installed."""

    def __init__(self, lib):
        self.op = 0
        self.missing: list[str] = []
        self._spans: list[list] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._loop_thread = threading.get_ident()
        self._root = None
        self._patches: list[tuple[object, str, object, object]] = []
        for owner, attr, name, attrs in targets(lib):
            if not hasattr(owner, attr):
                # A later version of the library may drop a function; its
                # metrics then read zero instead of the run failing.
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original, self._wrap(original, name, attrs)))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            with tracer._lock:
                sid = next(tracer._ids)
            if stack:
                parent = stack[-1][0]
            elif threading.get_ident() == tracer._loop_thread:
                parent = None
                tracer._root = sid
            else:
                parent = tracer._root
            stack.append((sid, name))
            cpu = thread_time() if name in CPU_TIMED else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, parent, name, start, perf_counter(), None)
                raise
            end = perf_counter()
            extra = {} if cpu is None else {"cpu": thread_time() - cpu}
            if attrs is not None:
                extra.update(attrs(args, kwargs, result))
            tracer._close(sid, parent, name, start, end, extra or None)
            return result

        return wrapper

    def _close(self, sid, parent, name, start, end, extra) -> None:
        self._stack().pop()
        if parent is None:
            self._root = None
        with self._lock:
            self._spans.append([sid, parent, self.op, name, start, end, extra])

    def write(self, path) -> int:
        with self._lock:
            spans = list(self._spans)
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        return len(spans)


def read_spans(path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def per_layer_metrics(path, untraced_s: float, traced_s: float, props: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from a span file.

    ``untraced_s`` and ``traced_s`` are the summed operation times of the
    same operations run without and with tracing; ``props`` holds the
    workload's input properties and check counts (``input.*``, ``check.*``
    and ``regions.tie_cell_frac``).
    """
    spans = read_spans(path)
    children = defaultdict(list)
    for sid, parent, _op, _name, start, end, _extra in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    durations = defaultdict(list)
    extras = defaultdict(list)
    top_level = 0.0
    for sid, parent, _op, name, start, end, extra in spans:
        dur = end - start
        calls[name] += 1
        total_s[name] += dur
        self_s[name] += dur - _covered(start, end, children.get(sid, []))
        durations[name].append(dur)
        if extra is not None:
            extras[name].append(extra)
        if parent is None:
            top_level += dur

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def pct(name: str, q: float) -> float:
        return float(np.percentile(durations[name], q)) * 1e3 if durations[name] else 0.0

    kernel_points = sum(e["points"] for e in extras["kernels.eval"])
    steps = sum(e["steps"] for e in extras["tradeoffs.max_ratio"])
    kinds = defaultdict(int)
    for name in ("visitation.visit_three_ordered", "visitation.visit_two_set"):
        for e in extras[name]:
            kinds[e["kind"]] += 1

    def mean_bytes(name: str) -> float:
        return ratio(sum(e["bytes"] for e in extras[name]), len(extras[name]))

    m = {
        "kernels.TriangleKernel.calls": calls["kernels.TriangleKernel"],
        "kernels.TriangleKernel.self_s": self_s["kernels.TriangleKernel"],
        "kernels.points_per_kernel": ratio(kernel_points, calls["kernels.TriangleKernel"]),
        "kernels.eval.calls": calls["kernels.eval"],
        "kernels.eval.points": kernel_points,
        "kernels.eval.self_s": self_s["kernels.eval"],
        "kernels.eval.us_per_point": ratio(total_s["kernels.eval"] * 1e6, kernel_points),
        "kernels.project_into.calls": calls["kernels.project_into"],
        "kernels.project_into.self_s": self_s["kernels.project_into"],
        "kernels.barycentric_grid.self_s": self_s["kernels.barycentric_grid"],
        "tradeoffs.sweep_triangles.self_s": self_s["tradeoffs.sweep_triangles"],
        "tradeoffs.max_ratio.calls": calls["tradeoffs.max_ratio"],
        "tradeoffs.max_ratio.self_s": self_s["tradeoffs.max_ratio"],
        "tradeoffs.max_ratio.p50_ms": pct("tradeoffs.max_ratio", 50),
        "tradeoffs.max_ratio.p90_ms": pct("tradeoffs.max_ratio", 90),
        "tradeoffs.refinement_steps": steps,
        "tradeoffs.steps_per_cell": ratio(steps, calls["tradeoffs.max_ratio"]),
        "tradeoffs.cell_overlap": ratio(total_s["tradeoffs.max_ratio"], total_s["tradeoffs.sweep_triangles"]),
        "tradeoffs.max_ratio.lock_wait_frac": ratio(
            total_s["tradeoffs.max_ratio"] - sum(e["cpu"] for e in extras["tradeoffs.max_ratio"]),
            total_s["tradeoffs.max_ratio"],
        ),
        "regions.raster_region_map.calls": calls["regions.raster_region_map"],
        "regions.raster_region_map.self_s": self_s["regions.raster_region_map"],
        "regions.to_csv.self_s": self_s["regions.to_csv"],
        "regions.to_csv.bytes": mean_bytes("regions.to_csv"),
        "regions.to_svg.self_s": self_s["regions.to_svg"],
        "regions.to_svg.bytes": mean_bytes("regions.to_svg"),
        "regions.chains.self_s": self_s["regions.chains"],
        "fleet_costs.fleet_costs.calls": calls["fleet_costs.fleet_costs"],
        "fleet_costs.fleet_costs.us_per_call": ratio(
            total_s["fleet_costs.fleet_costs"] * 1e6, calls["fleet_costs.fleet_costs"]
        ),
        "fleet_costs.r1.self_s": self_s["fleet_costs.r1"],
        "fleet_costs.r2.self_s": self_s["fleet_costs.r2"],
        "fleet_costs.r3.self_s": self_s["fleet_costs.r3"],
        "fleet_costs.tie_frac": ratio(
            sum(e["tie"] for e in extras["fleet_costs.fleet_costs"]), len(extras["fleet_costs.fleet_costs"])
        ),
        "visitation.visit_three_ordered.calls": calls["visitation.visit_three_ordered"],
        "visitation.visit_three_ordered.self_s": self_s["visitation.visit_three_ordered"],
        "visitation.visit_two_set.calls": calls["visitation.visit_two_set"],
        "visitation.visit_two_set.self_s": self_s["visitation.visit_two_set"],
        **{f"visitation.kind.{k}": kinds[k] for k in KINDS},
        "geom_core.Triangle.calls": calls["geom_core.Triangle"],
        "geom_core.Triangle.self_s": self_s["geom_core.Triangle"],
        "geom_core.Triangle.standard.calls": calls["geom_core.Triangle.standard"],
        "geom_core.Triangle.standard.self_s": self_s["geom_core.Triangle.standard"],
        "oracle.oracle_ordered3.calls": calls["oracle.oracle_ordered3"],
        "oracle.oracle_ordered3.self_s": self_s["oracle.oracle_ordered3"],
        "oracle.oracle_two_ordered.calls": calls["oracle.oracle_two_ordered"],
        "oracle.oracle_two_ordered.self_s": self_s["oracle.oracle_two_ordered"],
        "oracle.certify_instance.self_s": self_s["oracle.certify_instance"],
        "oracle.max_abs_delta": max((e["delta"] for e in extras["oracle.certify_instance"]), default=0.0),
        "cli.eval_report.self_s": self_s["cli.eval_report"],
        "cli.json_dumps.self_s": self_s["cli.json_dumps"],
        "cli.json_dumps.bytes": mean_bytes("cli.json_dumps"),
        **{
            f"layer.{layer}.self_s": sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
            for layer in LAYERS
        },
        "trace.overhead_frac": ratio(traced_s - untraced_s, untraced_s),
        "trace.top_level_coverage": ratio(top_level, traced_s),
        **props,
    }
    return {name: float(m[name]) for name, _unit in PER_LAYER}
