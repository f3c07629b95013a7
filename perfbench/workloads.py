"""The four benchmark workloads: seeded inputs, the timed call, the check.

Each workload turns the seed into a stream of raw inputs (angles, vertex
coordinates, points).  ``call`` is the timed operation; it builds the
library's objects from the raw input, so no cached state carries over
between operations or between the untraced and traced passes.  ``check``
runs outside the timed region and returns an ``Outcome``.

Why these four (see README.md for the measured input properties):

- ``sweep``: angle-space sweeps for the paper's trade-off table; the
  largest cost in the test suite, many small kernels (8-300 points each).
- ``raster``: 512-lattice region maps with SVG/CSV emission; one large
  kernel per map, then per-cell labelling and output.
- ``eval``: one ``trivisit eval`` per instance, in process; scalar
  evaluators and JSON, no kernels.
- ``certify``: closed forms against the brute-force oracle; the only
  workload the oracle dominates.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

THIN_DEG = 10.0        # a triangle is thin when its smallest angle is below this
MIN_ANGLE_DEG = 0.5    # smallest angle of generated triangles (the library's eps_apex)
REL_TOL = 1e-9         # relative slack of the eval checks, in units of the base edge


@dataclass
class Outcome:
    attempted: int   # operations checked: cells (sweep), maps (raster), instances
    failed: int      # operations that raised or failed the check
    work: float      # throughput units completed: cells, lattice points, instances
    defect: int = 0  # eval instances rejected by the known 1e-7-side defect


class Workload:
    name = ""
    unit = ""        # throughput unit, for the printed summary
    # TRIVISIT_THREADS for the end-to-end run; None leaves it unset, so the
    # library's default applies.
    end_to_end_threads: str | None = None

    def __init__(self, lib, seed: int, tiny: bool, workdir: str):
        self.lib = lib
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self._last: tuple[int, object] | None = None
        self.counts = {"ops": 0, "thin": 0, "points": 0, "boundary": 0, "vertex": 0, "tiny": 0,
                       "cells": 0, "tie_cells": 0}

    def input(self, k: int):
        """Input ``k``; inputs are asked for in order, each at most twice in
        a row, and only the last is kept so memory does not grow with the
        number of operations run."""
        if self._last is None or self._last[0] != k:
            expected = 0 if self._last is None else self._last[0] + 1
            if k != expected:
                raise ValueError(f"inputs are made in order: asked for {k}, next is {expected}")
            self._last = (k, self.make(k))
        return self._last[1]

    def make(self, k: int):
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def call(self, x):
        raise NotImplementedError

    def check(self, x, result, error) -> Outcome:
        raise NotImplementedError

    def properties(self) -> dict[str, float]:
        c = self.counts

        def share(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        return {
            "input.thin_frac": share("thin", "ops"),
            "input.boundary_point_frac": share("boundary", "points"),
            "input.vertex_point_frac": share("vertex", "points"),
            "input.tiny_scale_frac": share("tiny", "ops"),
            "regions.tie_cell_frac": share("tie_cells", "cells"),
        }


# ---------------------------------------------------------------------------
# input generation shared by eval and certify


def random_angles(rng) -> tuple[float, float]:
    """Angles (B, C) in radians, uniform over non-obtuse triangles whose
    smallest angle is at least MIN_ANGLE_DEG."""
    lo = math.radians(MIN_ANGLE_DEG)
    while True:
        b = rng.uniform(lo, math.pi / 2)
        c = rng.uniform(lo, math.pi / 2)
        if lo <= math.pi - b - c <= math.pi / 2:
            return b, c


def standard_vertices(b: float, c: float) -> np.ndarray:
    """Rows A, B, C of the standard pose: B=(0,0), C=(1,0), apex A above."""
    s = math.sin(b + c)
    return np.array([[math.cos(b) * math.sin(c) / s, math.sin(b) * math.sin(c) / s], [0.0, 0.0], [1.0, 0.0]])


def is_thin(b: float, c: float) -> bool:
    return min(b, c, math.pi - b - c) < math.radians(THIN_DEG)


# Where the starting point goes, with its share.  Incenters and altitude
# midpoints are the paper's extremal points and sit on cost ties; vertices
# and edge points test the boundary.
POINT_KINDS = ("interior", "incenter", "altitude-midpoint", "vertex", "edge")
POINT_SHARES = (0.70, 0.06, 0.06, 0.06, 0.12)


def place_point(rng, kind: str, v: np.ndarray) -> np.ndarray:
    if kind == "interior":
        return rng.dirichlet((1.0, 1.0, 1.0)) @ v
    if kind == "incenter":
        sides = np.array([np.linalg.norm(v[1] - v[2]), np.linalg.norm(v[2] - v[0]), np.linalg.norm(v[0] - v[1])])
        return sides @ v / sides.sum()
    i = int(rng.integers(3))
    u, w = v[(i + 1) % 3], v[(i + 2) % 3]
    if kind == "altitude-midpoint":
        foot = u + ((v[i] - u) @ (w - u)) / ((w - u) @ (w - u)) * (w - u)
        return (v[i] + foot) / 2.0
    if kind == "vertex":
        return v[i]
    return u + rng.uniform() * (w - u)


def random_point(rng, v: np.ndarray) -> tuple[str, np.ndarray]:
    kind = POINT_KINDS[int(rng.choice(len(POINT_KINDS), p=POINT_SHARES))]
    return kind, place_point(rng, kind, v)


def count_point(counts: dict, kind: str) -> None:
    counts["points"] += 1
    counts["boundary"] += kind in ("vertex", "edge")
    counts["vertex"] += kind == "vertex"


# ---------------------------------------------------------------------------
# sweep


def grid_cells(step_deg: float) -> list[tuple[float, float]]:
    """(B, C) cells of an angle sweep: multiples of the step whose third
    angle lies in (MIN_ANGLE_DEG, 90].  Worked out here, not asked of the
    library, so that a sweep that drops cells fails its check."""
    k = int(math.floor(90.0 / step_deg))
    angles = [i * step_deg for i in range(1, k + 1)]
    return [(b, c) for b in angles for c in angles if MIN_ANGLE_DEG < 180.0 - b - c <= 90.0]


class Sweep(Workload):
    """``sweep_triangles`` for each ratio pair in turn.

    The grid is the paper's table and does not depend on the seed.  The
    step keeps 45 and 60 degrees on the grid, so the suprema fall on cells.
    """

    name = "sweep"
    unit = "cells"
    # The end-to-end run sweeps on one thread.  On a shared 2-CPU host the
    # default two-thread pool slowed by up to 2x for minutes at a time,
    # which the one-thread reference loop (calibrate.py) does not see, and
    # the interpreter lock serialises the cells anyway: one thread was
    # faster.  The traced run keeps the default pool, so the per-layer
    # figures still show how the pool overlaps.
    end_to_end_threads = "1"
    PAIRS = ((1, 3), (2, 3), (1, 2))
    # pair -> (supremum, infimum, shape of the supremum cell) from the table
    TABLE = {
        (1, 3): (4.0, math.sqrt(10.0), "equilateral"),
        (2, 3): (2.0, math.sqrt(2.0), "equilateral"),
        (1, 2): (3.0, 2.5, "right isosceles"),
    }

    def __init__(self, *args):
        super().__init__(*args)
        self.step = 15.0 if self.tiny else 5.0
        self.cells = grid_cells(self.step)

    def make(self, k: int):
        return self.PAIRS[k % len(self.PAIRS)]

    def warm_up(self) -> None:
        self.lib.tradeoffs.sweep_triangles(1, 3, step_deg=30.0)

    def call(self, pair):
        return self.lib.tradeoffs.sweep_triangles(pair[0], pair[1], step_deg=self.step)

    def check(self, pair, result, error) -> Outcome:
        cells = len(self.cells)
        self.counts["ops"] += cells
        self.counts["thin"] += sum(is_thin(math.radians(b), math.radians(c)) for b, c in self.cells)
        if error is not None:
            return Outcome(cells, cells, 0)
        sup, inf, shape = self.TABLE[pair]
        rows = result.rows
        bad_rows = sum(1 for r in rows if not (r.ratio == r.rn / r.rm and r.ratio <= sup + 1e-9))
        summary = result.summary()
        table_ok = (
            len(rows) == cells
            and summary["sup"]["shape"] == shape
            and abs(summary["sup"]["value"] - sup) <= 1e-3
            and summary["inf"]["value"] >= inf - 1e-6
        )
        return Outcome(cells, bad_rows if table_ok else cells, len(rows))


# ---------------------------------------------------------------------------
# raster


class Raster(Workload):
    """512-lattice region maps, each followed by what ``trivisit regions``
    does: both separator chains, then SVG and CSV output.

    Modes cycle r1, r2, r3; triangles cycle equilateral, right isosceles,
    thin 85/85 and a fresh seeded scalene one.
    """

    name = "raster"
    unit = "points"
    MODES = ("r1", "r2", "r3")
    FIXED_SHAPES = ((60.0, 60.0), (45.0, 45.0), (85.0, 85.0))
    SIDE = {"single": "one", "pair": "two", "tie": "both"}

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 32 if self.tiny else 512
        self.sample = 8 if self.tiny else 48
        self.svg = f"{self.workdir}/map.svg"
        self.csv = f"{self.workdir}/map.csv"

    def _draw_scalene(self) -> tuple[float, float]:
        # Angles in [20, 88] degrees, pairwise at least 3 degrees apart.
        while True:
            b, c = self.rng.uniform(20.0, 88.0, 2)
            a = 180.0 - b - c
            if 20.0 <= a <= 88.0 and min(abs(a - b), abs(b - c), abs(c - a)) >= 3.0:
                return float(b), float(c)

    def make(self, k: int):
        # Three modes against four shapes: any 12 consecutive maps cover
        # every pair, and any 6 cover every mode and every shape.
        shape = k % (len(self.FIXED_SHAPES) + 1)
        b, c = self.FIXED_SHAPES[shape] if shape < len(self.FIXED_SHAPES) else self._draw_scalene()
        return (b, c, self.MODES[k % len(self.MODES)], k)

    def _emit(self, t, mode: str, n: int):
        lib = self.lib
        rmap = lib.regions.raster_region_map(t, n, mode)
        chains = []
        try:
            chains.append(lib.regions.r2_separator(t))
        except lib.geom_core.GeometryError:
            pass
        chains.append(lib.regions.r1_lrd_rld_locus(t))
        rmap.to_svg(self.svg, chains)
        rmap.to_csv(self.csv)
        return rmap

    def warm_up(self) -> None:
        t = self.lib.geom_core.triangle_from_angles(math.radians(50.0), math.radians(70.0))
        for mode in self.MODES:
            self._emit(t, mode, 16)

    def call(self, x):
        b, c, mode, _k = x
        t = self.lib.geom_core.triangle_from_angles(math.radians(b), math.radians(c))
        return self._emit(t, mode, self.n)

    def scalar_labels(self, t, mode: str, p) -> set[str]:
        fc = self.lib.fleet_costs
        if mode == "r1":
            return {o.value for o in fc.r1(t, p).orders}
        if mode == "r3":
            return {e.value for e in fc.r3(t, p).edges}
        return {f"{w.single_edge.value}/{self.SIDE[w.determined_by]}" for w in fc.r2(t, p).witnesses}

    def check(self, x, rmap, error) -> Outcome:
        b, c, mode, k = x
        n = self.n
        self.counts["ops"] += 1
        self.counts["thin"] += is_thin(math.radians(b), math.radians(c))
        self.counts["points"] += n * (n + 1) // 2
        self.counts["boundary"] += 3 * (n - 1)
        self.counts["vertex"] += 3
        if error is not None:
            return Outcome(1, 1, 0)
        cells = rmap.cells
        self.counts["cells"] += len(cells)
        self.counts["tie_cells"] += sum(1 for cell in cells if len(cell.labels) > 1)
        ok = len(cells) == n * (n + 1) // 2
        pick = np.random.default_rng([self.seed, k]).choice(len(cells), size=min(self.sample, len(cells)), replace=False)
        for i in pick:
            cell = cells[int(i)]
            ok = ok and bool(set(cell.labels) & self.scalar_labels(rmap.triangle, mode, cell.point))
        with open(self.csv) as fh:
            ok = ok and sum(1 for _ in fh) == len(cells) + 1
        try:
            ok = ok and ET.parse(self.svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"
        except ET.ParseError:
            ok = False
        return Outcome(1, 0 if ok else 1, len(cells))


# ---------------------------------------------------------------------------
# eval


@dataclass(frozen=True)
class EvalInput:
    vertices: tuple[tuple[float, float], ...]
    point: tuple[float, float]
    kind: str
    tiny: bool
    thin: bool


def polyline_length(points) -> float:
    return sum(math.dist(p, q) for p, q in zip(points, points[1:]))


class Eval(Workload):
    """``cli.eval_report`` plus ``cli.json_dumps`` per instance, as
    ``trivisit eval --vertices ... --point ...`` does.

    Each standard-pose triangle is placed by a seeded similarity: rotation,
    scale log-uniform over 1e-3..1e3, translation up to ten scales.  About
    TINY_SHARE of the instances get base edge 1e-7 instead, which the library
    wrongly rejects as degenerate (ROADMAP item 4).
    """

    name = "eval"
    unit = "instances"
    TINY_SHARE = 0.02
    TINY_SCALE = 1e-7

    def make(self, k: int) -> EvalInput:
        rng = self.rng
        b, c = random_angles(rng)
        v = standard_vertices(b, c)
        kind, q = random_point(rng, v)
        tiny = bool(rng.uniform() < self.TINY_SHARE)
        scale = self.TINY_SCALE if tiny else 10.0 ** rng.uniform(-3.0, 3.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        shift = scale * rng.uniform(-10.0, 10.0, 2)

        def place(xy) -> tuple[float, float]:
            out = scale * (rot @ xy) + shift
            return (float(out[0]), float(out[1]))

        return EvalInput(tuple(place(xy) for xy in v), place(q), kind, tiny, is_thin(b, c))

    def warm_up(self) -> None:
        self.call(EvalInput(((0.5, 0.8), (0.0, 0.0), (1.0, 0.0)), (0.5, 0.3), "interior", False, False))

    def call(self, x: EvalInput):
        gc, cli = self.lib.geom_core, self.lib.cli
        t = gc.Triangle(*x.vertices)
        report = cli.eval_report(t, gc.Point2(*x.point))
        return t, report, cli.json_dumps(report)

    def problems(self, t, report, text) -> list[str]:
        """Every check the eval output fails; empty when it is correct."""
        out = []
        tol = REL_TOL * t.base_length
        r1, r2, r3 = (report[k]["cost"] for k in ("r1", "r2", "r3"))
        if not (r3 <= r2 + tol and r2 <= r1 + tol):
            out.append("cost chain R3 <= R2 <= R1")
        witnesses = report["r2"]["witnesses"]
        trajs = [report["r1"]["trajectory"]] + [w[s] for w in witnesses for s in ("single", "pair")]
        if any(abs(polyline_length(tr["waypoints"]) - tr["cost"]) > tol for tr in trajs):
            out.append("witness length != witness cost")
        if abs(report["r1"]["trajectory"]["cost"] - r1) > tol:
            out.append("r1 witness cost != r1")
        if any(abs(max(w["single"]["cost"], w["pair"]["cost"]) - r2) > tol for w in witnesses):
            out.append("r2 witness cost != r2")
        gc = self.lib.geom_core
        std, sim = t.standard()
        std_rep = self.lib.fleet_costs.fleet_costs(std, sim.apply(gc.Point2(*report["input"]["point"])))
        for key, posed in (("r1", r1), ("r2", r2), ("r3", r3)):
            want = getattr(std_rep, key).cost / sim.scale
            if abs(posed - want) > REL_TOL * want:
                out.append(f"{key} posed != standard-pose cost x scale")
        if json.loads(text) != report:
            out.append("JSON text does not round-trip the report")
        return out

    def check(self, x: EvalInput, result, error) -> Outcome:
        self.counts["ops"] += 1
        self.counts["thin"] += x.thin
        self.counts["tiny"] += x.tiny
        count_point(self.counts, x.kind)
        if error is not None:
            known = x.tiny and isinstance(error, self.lib.geom_core.DegenerateTriangleError)
            return Outcome(1, 0, 0, defect=1) if known else Outcome(1, 1, 0)
        return Outcome(1, 1 if self.problems(*result) else 0, 1)


# ---------------------------------------------------------------------------
# certify


class Certify(Workload):
    """``oracle.certify_instance`` on r1, r2, r3 from ``fleet_costs`` and the
    six ordered costs from ``visit_three_ordered``, standard pose."""

    name = "certify"
    unit = "instances"

    def make(self, k: int):
        b, c = random_angles(self.rng)
        kind, q = random_point(self.rng, standard_vertices(b, c))
        return (b, c, (float(q[0]), float(q[1])), kind)

    def warm_up(self) -> None:
        self.call((math.radians(50.0), math.radians(70.0), (0.4, 0.3), "interior"))

    def closed_costs(self, t, p) -> dict[str, float]:
        rep = self.lib.fleet_costs.fleet_costs(t, p)
        closed = {"r1": rep.r1.cost, "r2": rep.r2.cost, "r3": rep.r3.cost}
        vis = self.lib.visitation
        for order in vis.VisitOrder:
            closed[order.value] = vis.visit_three_ordered(t, p, order).cost
        return closed

    def call(self, x):
        b, c, xy, _kind = x
        gc = self.lib.geom_core
        t = gc.triangle_from_angles(b, c)
        p = gc.Point2(*xy)
        return self.lib.oracle.certify_instance(t, p, self.closed_costs(t, p))

    def check(self, x, deltas, error) -> Outcome:
        b, c, _xy, kind = x
        self.counts["ops"] += 1
        self.counts["thin"] += is_thin(b, c)
        count_point(self.counts, kind)
        return Outcome(1, 0 if error is None else 1, 1 if error is None else 0)


WORKLOADS = {w.name: w for w in (Sweep, Raster, Eval, Certify)}
