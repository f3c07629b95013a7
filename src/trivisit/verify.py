"""Acceptance criteria for the library, runnable from the CLI and from tests.

Each criterion is a self-contained check with its tolerance pinned at the
definition site.  ``run_criteria`` executes them in order and never raises;
failures are reported in the result records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._kernels import TriangleKernel
from .fleet_costs import (
    fleet_costs,
    mid_altitude_point,
    r1,
    r1_incenter_closed,
    r1_mid_altitude_closed,
    r2,
    r2_incenter_closed,
    r3,
)
from .fleet_costs import h1 as h1_fn
from .geom_core import Point2, VertexId, dist_point_segment, edge_segment, incenter, opposite_edge, triangle_from_angles
from .oracle import CERTIFY_TOL, OracleConfig, oracle_costs, oracle_ordered3
from .regions import r1_lrd_rld_locus, r2_separator, r3_regions
from .tradeoffs import COST_ERROR, _sweep_cells, certify_max_ratio, max_ratio, sweep_triangles
from .visitation import EdgeId, VisitOrder, visit_three_ordered, visit_two_ordered, visit_two_set

SQRT10 = math.sqrt(10.0)
SQRT2 = math.sqrt(2.0)

_EQ = triangle_from_angles(math.pi / 3, math.pi / 3)
_RI = triangle_from_angles(math.pi / 4, math.pi / 4)
_THIN = triangle_from_angles(math.radians(85.0), math.radians(85.0))


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    description: str
    passed: bool
    detail: str


class _Check:
    """Collects comparisons; first failure wins the detail line."""

    def __init__(self):
        self.failures: list[str] = []
        self.notes: list[str] = []

    def close(self, name: str, got: float, want: float, tol: float) -> None:
        if abs(got - want) <= tol:
            self.notes.append(f"{name}={got:.10g}")
        else:
            self.failures.append(f"{name}={got!r} want {want!r} (tol {tol:g})")

    def at_most(self, name: str, got: float, bound: float) -> None:
        if got <= bound:
            self.notes.append(f"{name}={got:.6g}")
        else:
            self.failures.append(f"{name}={got!r} exceeds {bound!r}")

    def ok(self, name: str, cond: bool, detail: str = "") -> None:
        if cond:
            self.notes.append(name)
        else:
            self.failures.append(f"{name} failed {detail}")

    def result(self, cid: int, description: str, max_notes: int = 4) -> CriterionResult:
        if self.failures:
            return CriterionResult(cid, description, False, "; ".join(self.failures[:4]))
        return CriterionResult(cid, description, True, "; ".join(self.notes[:max_notes]))


def _crit_1(quick: bool) -> CriterionResult:
    c = _Check()
    i = incenter(_EQ)
    c.close("R1(I)/R3(I)", r1(_EQ, i).cost / r3(_EQ, i).cost, 4.0, 1e-9)
    return c.result(1, "equilateral incenter: R1/R3 = 4")


def _crit_2(quick: bool) -> CriterionResult:
    c = _Check()
    i = incenter(_EQ)
    c.close("R2(I)/R3(I)", r2(_EQ, i).cost / r3(_EQ, i).cost, 2.0, 1e-9)
    return c.result(2, "equilateral incenter: R2/R3 = 2")


def _crit_3(quick: bool) -> CriterionResult:
    c = _Check()
    rep = max_ratio(_EQ, 1, 2)
    c.close("max R1/R2", rep.ratio, 2.5, 1e-6)
    mids = [mid_altitude_point(_EQ), Point2(0.25, math.sqrt(3) / 8), Point2(0.75, math.sqrt(3) / 8)]
    c.at_most("argmax-to-midpoint", min(rep.argmax.dist(w) for w in mids), 1e-4)
    return c.result(3, "equilateral: max R1/R2 = 5/2 at an altitude midpoint")


def _crit_4(quick: bool) -> CriterionResult:
    c = _Check()
    p = Point2(0.5, 0.25)
    v1, v2 = r1(_RI, p).cost, r2(_RI, p).cost
    c.close("R1", v1, 0.75, 1e-9)
    c.close("R2", v2, 0.25, 1e-9)
    c.close("R1/R2", v1 / v2, 3.0, 1e-9)
    return c.result(4, "right isosceles mid-altitude: R1 = 3/4, R2 = 1/4, ratio 3")


def _crit_5(quick: bool) -> CriterionResult:
    c = _Check()
    rep = max_ratio(_RI, 2, 3)
    c.close("max R2/R3", rep.ratio, SQRT2, 1e-6)
    c.at_most("argmax-to-incenter", rep.argmax.dist(incenter(_RI)), 1e-4)
    return c.result(5, "right isosceles: max R2/R3 = sqrt(2) at the incenter")


def _crit_6(quick: bool) -> CriterionResult:
    c = _Check()
    i = incenter(_RI)
    c.close("R1(I)/R3(I)", r1(_RI, i).cost / r3(_RI, i).cost, 2.0 + SQRT2, 1e-9)
    return c.result(6, "right isosceles incenter: R1/R3 = 2 + sqrt(2)")


# Apexes of criterion 7's thin isosceles triangles, in degrees.
_THIN_APEX_DEG = (8.0, 4.0, 2.0, 1.0, 0.5)


def _crit_7(quick: bool) -> CriterionResult:
    c = _Check()
    values = []
    for apex_deg in _THIN_APEX_DEG:
        half = math.radians((180.0 - apex_deg) / 2.0)
        rep = max_ratio(triangle_from_angles(half, half), 1, 3)
        values.append(rep.ratio)
    c.ok(
        "strictly decreasing",
        all(values[i] > values[i + 1] for i in range(len(values) - 1)),
        f"values={values}",
    )
    c.ok("all above sqrt(10)", all(v > SQRT10 for v in values), f"values={values}")
    c.at_most("value at 0.5 deg", values[-1], 3.25)
    c.notes.insert(0, "ratios " + ", ".join(f"{v:.5f}" for v in values))
    return c.result(7, "thin isosceles: max R1/R3 decreasing toward sqrt(10)", max_notes=5)


def _random_instances(seed: int, count: int) -> tuple:
    """``count`` random (triangle, interior point) pairs: angles uniform with
    every angle in (0.5 deg, 90 deg], the point Dirichlet(1, 1, 1)."""
    rng = np.random.default_rng(seed)
    eps = math.radians(0.5)
    out = []
    while len(out) < count:
        b = rng.uniform(eps, math.pi / 2)
        cc = rng.uniform(eps, math.pi / 2)
        a = math.pi - b - cc
        if not (eps < a <= math.pi / 2):
            continue
        t = triangle_from_angles(b, cc)
        w = rng.dirichlet((1.0, 1.0, 1.0))
        xy = w[0] * np.asarray(t.a) + w[1] * np.asarray(t.b) + w[2] * np.asarray(t.c)
        p = Point2(float(xy[0]), float(xy[1]))
        out.append((t, p))
    return tuple(out)


@lru_cache(maxsize=None)
def _universal_samples(count: int) -> tuple:
    """Random (triangle, interior point) batch shared by criteria 8 and 9."""
    return _random_instances(20210707, count)


@lru_cache(maxsize=None)
def _universal_kernel(count: int) -> TriangleKernel:
    """One stacked kernel over the triangles of ``_universal_samples``."""
    return TriangleKernel(*np.array([t.a for t, _ in _universal_samples(count)]).T)


def _crit_8(quick: bool) -> CriterionResult:
    c = _Check()
    samples = _universal_samples(1000 if quick else 10000)
    k = _universal_kernel(len(samples))
    pts = np.array([[tuple(p)] for _, p in samples])
    v1, v2, v3 = (v[:, 0] for v in k.costs(pts, 1, 2, 3))
    c.at_most("max R1/R3", float((v1 / v3).max()), 4.0 + 1e-9)
    c.at_most("max R2/R3", float((v2 / v3).max()), 2.0 + 1e-9)
    c.at_most("max R1/R2", float((v1 / v2).max()), 3.0 + 1e-9)
    c.at_most("chain violation", max(0.0, float((v3 - v2).max()), float((v2 - v1).max())), 1e-12)
    return c.result(8, f"universal ratio bounds on {len(samples)} random pairs")


def _crit_9(quick: bool) -> CriterionResult:
    c = _Check()
    samples = _universal_samples(1000 if quick else 10000)
    k = _universal_kernel(len(samples))
    pts = np.array([[tuple(incenter(t)), tuple(mid_altitude_point(t))] for t, _ in samples])
    v1, v2, v3 = k.costs(pts, 1, 2, 3)
    floors = {
        "r13": float((v1[:, 0] / v3[:, 0]).min()),
        "r23": float((v2[:, 0] / v3[:, 0]).min()),
        "r12": float((v1[:, 1] / v2[:, 1]).min()),
    }
    c.ok("R1(I)/R3(I) >= sqrt(10)", floors["r13"] >= SQRT10 - 1e-9, f"min={floors['r13']!r}")
    c.ok("R2(I)/R3(I) >= sqrt(2)", floors["r23"] >= SQRT2 - 1e-9, f"min={floors['r23']!r}")
    c.ok("R1(T)/R2(T) >= 5/2", floors["r12"] >= 2.5 - 1e-9, f"min={floors['r12']!r}")
    c.notes.insert(0, ", ".join(f"{k}min={v:.6f}" for k, v in floors.items()))
    return c.result(9, f"witness floors at incenter and mid-altitude on {len(samples)} triangles", max_notes=4)


def _crit_10(quick: bool) -> CriterionResult:
    c = _Check()
    count = 120 if quick else 1000
    worst = 0.0
    worst_what = ""
    for t, p in _random_instances(424242, count):
        closed = {order.value: visit_three_ordered(t, p, order).cost for order in VisitOrder}
        rep = fleet_costs(t, p)
        closed.update(r1=rep.r1.cost, r2=rep.r2.cost, r3=rep.r3.cost)
        ref = oracle_costs(t, p)
        for key, value in closed.items():
            gap = abs(value - ref[key])
            if not gap <= worst and not math.isnan(worst):  # a NaN gap is the worst, and stays so
                worst, worst_what = gap, f"{key}@{tuple(p)}"
    c.at_most(f"max |closed - oracle| ({worst_what})", worst, CERTIFY_TOL)
    return c.result(10, f"oracle equivalence on {count} random instances")


def _crit_11(quick: bool) -> CriterionResult:
    c = _Check()
    c.close("h1(pi/3, pi/3)", h1_fn(math.pi / 3, math.pi / 3), 1.0, 1e-12)
    b = 3.0 * math.pi / 7.0
    c.close("h1 at B=3pi/7 on A=B edge", h1_fn(b, math.pi - 2.0 * b), 1.32715, 5e-5)
    return c.result(11, "incenter-optimality ratio h1 values")


# Region probes: (x, y) -> expected label set, per triangle and mode.  The
# coordinates were placed by the published region descriptions (bisector
# sectors, indicator curves, separating parabolas) and each probe is also
# re-validated against the brute-force oracle where the mode allows it.
_R1_PROBES = {
    "equilateral": [
        ((0.45, 0.60), {"LRD"}),
        ((0.55, 0.60), {"RLD"}),
        ((0.40, 0.10), {"DLR"}),
        ((0.60, 0.10), {"DRL"}),
        ((0.72, 0.30), {"RDL"}),
        ((0.28, 0.30), {"LDR"}),
        ((0.50, 0.40), {"LRD", "RLD"}),
        ((0.50, 0.20), {"DLR", "DRL"}),
    ],
    "right isosceles": [
        ((0.45, 0.32), {"LRD"}),
        ((0.35, 0.30), {"LRD"}),
        ((0.55, 0.32), {"RLD"}),
        ((0.10, 0.095), {"LDR"}),
        ((0.20, 0.19), {"LDR"}),
        ((0.90, 0.095), {"RDL"}),
        ((0.35, 0.07), {"DLR", "DRL"}),
        ((0.50, 0.10), {"DLR", "DRL"}),
        ((0.65, 0.07), {"DLR", "DRL"}),
    ],
    "thin isosceles": [
        ((0.45, 4.50), {"LRD"}),
        ((0.48, 5.00), {"LRD"}),
        ((0.30, 1.50), {"LRD", "LDR"}),
        ((0.20, 0.80), {"LRD", "LDR"}),
        ((0.45, 2.50), {"LRD", "LDR"}),
        ((0.35, 3.00), {"LRD", "LDR"}),
        ((0.10, 0.40), {"LRD", "LDR"}),
        ((0.03, 0.05), {"LDR"}),
        ((0.30, 0.02), {"DLR"}),
        ((0.45, 0.01), {"DLR"}),
        ((0.55, 4.50), {"RLD"}),
        ((0.65, 3.00), {"RLD", "RDL"}),
        ((0.70, 0.80), {"RLD", "RDL"}),
        ((0.90, 0.40), {"RLD", "RDL"}),
        ((0.97, 0.05), {"RDL"}),
        ((0.70, 0.02), {"DRL"}),
    ],
}

# r2 probes: expected (lone edge, determined_by) of the best partition plus
# an equality the witness cost must satisfy.
_R2_PROBES = {
    "equilateral": [
        ((0.50, 0.60), ("D", "single"), "drop"),
        ((0.45, 0.55), ("D", "single"), "drop"),
        ((0.43, 0.38), ("D", "pair"), ("ordered", "L", "R")),
        ((0.57, 0.38), ("D", "pair"), ("ordered", "R", "L")),
        ((0.15, 0.08), ("R", "single"), "drop"),
        ((0.85, 0.08), ("L", "single"), "drop"),
    ],
    "right isosceles": [
        ((0.50, 0.18), ("D", "pair"), "apex"),
        ((0.45, 0.22), ("D", "pair"), "apex"),
        ((0.335, 0.20), ("R", "pair"), ("ordered", "L", "D")),
        ((0.43, 0.09), ("R", "pair"), ("ordered", "D", "L")),
        ((0.50, 0.35), ("D", "single"), "drop"),
        ((0.15, 0.05), ("R", "single"), "drop"),
        ((0.85, 0.05), ("L", "single"), "drop"),
    ],
}

_R3_PROBES = {
    "equilateral": [
        (None, {"L", "D", "R"}),  # incenter, filled in at runtime
        ((0.50, 0.10), {"L", "R"}),
        ((0.45, 0.10), {"R"}),
        ((0.55, 0.10), {"L"}),
        ((0.50, 0.70), {"D"}),
        ((0.30, 0.25), {"R"}),
    ],
    "right isosceles": [
        (None, {"L", "D", "R"}),
        ((0.50, 0.10), {"L", "R"}),
        ((0.30, 0.10), {"R"}),
        ((0.70, 0.10), {"L"}),
    ],
    "thin isosceles": [
        (None, {"L", "D", "R"}),
        ((0.50, 2.00), {"D"}),
        ((0.45, 0.30), {"R"}),
        ((0.55, 0.30), {"L"}),
    ],
}

_TRIANGLES = {
    "equilateral": _EQ,
    "right isosceles": _RI,
    "thin isosceles": _THIN,
}


def _run_region_probes(c: _Check, quick: bool) -> None:
    oracle_cfg = OracleConfig(coarse_resolution=32, tol=1e-11)
    for name, t in _TRIANGLES.items():
        scale_tol = 1e-9 * t.base_length
        for (xy, expected) in _R1_PROBES[name]:
            p = Point2(*xy)
            got = {o.value for o in r1(t, p).orders}
            c.ok(f"{name} r1@{xy}", got == expected, f"got {sorted(got)} want {sorted(expected)}")
            if not quick:
                costs = {o: oracle_ordered3(t, p, o, oracle_cfg) for o in VisitOrder}
                lo = min(costs.values())
                oracle_set = {o.value for o, v in costs.items() if v <= lo + 1e-7}
                c.ok(f"{name} r1-oracle@{xy}", expected <= oracle_set,
                     f"oracle optimal set {sorted(oracle_set)}")
        for probe in _R2_PROBES.get(name, ()):
            (xy, (edge, det), equality) = probe
            p = Point2(*xy)
            res = r2(t, p)
            w = res.witnesses[0]
            c.ok(
                f"{name} r2@{xy}",
                len(res.witnesses) == 1 and w.single_edge.value == edge and w.determined_by == det,
                f"got {[(v.single_edge.value, v.determined_by) for v in res.witnesses]}",
            )
            if equality == "drop":
                want = dist_point_segment(p, edge_segment(t, EdgeId(edge)))
            elif equality == "apex":
                want = p.dist(t.a)
            else:
                _, e1, e2 = equality
                want = visit_two_ordered(t, p, EdgeId(e1), EdgeId(e2)).cost
            c.ok(f"{name} r2-cost@{xy}", abs(res.cost - want) <= scale_tol,
                 f"cost {res.cost!r} want {want!r}")
        for (xy, expected) in _R3_PROBES[name]:
            p = incenter(t) if xy is None else Point2(*xy)
            got = {e.value for e in r3(t, p).edges}
            c.ok(f"{name} r3@{xy}", got == expected, f"got {sorted(got)} want {sorted(expected)}")


def _run_chain_samples(c: _Check) -> None:
    for name, t in _TRIANGLES.items():
        chain = r2_separator(t)
        worst = 0.0
        for p, label in chain.sample(200):
            opp = opposite_edge(VertexId(label.split("-")[1]))
            pair = tuple(e for e in EdgeId if e is not opp)
            gap = abs(dist_point_segment(p, edge_segment(t, opp)) - visit_two_set(t, p, pair).cost)
            worst = max(worst, gap)
        c.at_most(f"{name} two-robot chain gap", worst, 1e-8)

        locus = r1_lrd_rld_locus(t)
        o1, o2 = (VisitOrder(s) for s in locus.label.split("="))
        worst = 0.0
        for p, _ in locus.sample(120):
            worst = max(
                worst,
                abs(visit_three_ordered(t, p, o1).cost - visit_three_ordered(t, p, o2).cost),
            )
        c.at_most(f"{name} order-tie locus gap", worst, 1e-8)

        regions3 = r3_regions(t)
        tied_edges = {0: (EdgeId.L, EdgeId.R), 1: (EdgeId.D, EdgeId.L), 2: (EdgeId.D, EdgeId.R)}
        worst = 0.0
        for idx, seg in enumerate(regions3.separators):
            e1, e2 = tied_edges[idx]
            for k in range(40):
                p = seg.point_at((k + 0.5) / 40)
                d1 = dist_point_segment(p, edge_segment(t, e1))
                d2 = dist_point_segment(p, edge_segment(t, e2))
                worst = max(worst, abs(d1 - d2))
        c.at_most(f"{name} bisector tie gap", worst, 1e-8)


def _crit_12(quick: bool) -> CriterionResult:
    c = _Check()
    _run_region_probes(c, quick)
    _run_chain_samples(c)
    c.notes.insert(0, f"{sum(len(v) for v in _R1_PROBES.values())} order probes, "
                      f"{sum(len(v) for v in _R2_PROBES.values())} partition probes, "
                      f"{sum(len(v) for v in _R3_PROBES.values())} farthest-edge probes")
    return c.result(12, "region golden probes and separator-chain ties", max_notes=1)


_SWEEP_TARGETS = {
    (1, 3): (4.0, "equilateral", SQRT10),
    (2, 3): (2.0, "equilateral", SQRT2),
    (1, 2): (3.0, "right isosceles", 2.5),
}
# The (1,2) and (2,3) infima are attained, so their witness shapes are fixed;
# the (1,3) infimum is only approached along degenerating thin triangles, and
# on an integer-degree grid the thinnest admitted cell is a one-degree-apex
# right triangle rather than the two-degree isosceles, so that check is on
# thinness, not on a shape name.
_INF_SHAPES = {(2, 3): "right isosceles", (1, 2): "equilateral"}


def _crit_13(quick: bool) -> CriterionResult:
    c = _Check()
    steps = (4.0, 2.0) if quick else (4.0, 2.0, 1.0)
    for pair, (sup_target, sup_shape, inf_target) in _SWEEP_TARGETS.items():
        infs = []
        last = None
        for step in steps:
            sw = sweep_triangles(pair[0], pair[1], step_deg=step)
            infs.append(sw.inf_row.ratio)
            last = sw
        summary = last.summary()
        if not quick:
            c.close(f"sup {pair}", summary["sup"]["value"], sup_target, 1e-3)
            c.ok(
                f"sup shape {pair}",
                summary["sup"]["shape"] == sup_shape,
                f"got {summary['sup']['shape']!r}",
            )
            if pair in _INF_SHAPES:
                c.ok(
                    f"inf shape {pair}",
                    summary["inf"]["shape"] == _INF_SHAPES[pair],
                    f"got {summary['inf']['shape']!r}",
                )
            else:
                apex = min(last.inf_row.angles_deg)
                c.ok(
                    f"inf thinness {pair}",
                    apex <= last.step_deg + last.eps_apex_deg + 1e-9,
                    f"inf cell min angle {apex} deg",
                )
        c.ok(
            f"inf trend {pair}",
            all(infs[i] >= infs[i + 1] - 1e-12 for i in range(len(infs) - 1)),
            f"inf values {infs}",
        )
        c.ok(
            f"inf floor {pair}",
            all(v >= inf_target - 1e-6 for v in infs),
            f"inf values {infs} target {inf_target}",
        )
        c.notes.insert(0, f"{pair}: sup={summary['sup']['value']:.6f} inf->{infs[-1]:.6f}")
    return c.result(13, "triangle-space sweeps reproduce the trade-off table", max_notes=3)


# Certificate slack per ratio pair, the same at every cell: the least power
# of ten that certifies every 1 deg cell within the box cap and the time.
# Each tenfold cut costs about ten times the boxes where the maximum is not
# isolated: (2,3) is flat along segments that end at the incenter.  On the
# 1 deg grid, (1,3) at 1e-7 leaves (88, 2), (89, 1) and (89, 2) at the 2M
# box cap, (1,2) at 1e-6 leaves (88, 2) and (89, 1) there, and (2,3) at
# 1e-4 takes 74M boxes against 8.1M at 1e-3, some 25 s (CHANGES.md).
_CERT_DELTA = {(1, 2): 1e-5, (1, 3): 1e-6, (2, 3): 1e-3}
# The paper's maximizer of each pair: the closed form of R_n there, and the
# point, where R_m is evaluated.
_PAPER_POINT = {
    (1, 2): (r1_mid_altitude_closed, mid_altitude_point),
    (1, 3): (r1_incenter_closed, incenter),
    (2, 3): (r2_incenter_closed, incenter),
}


def _crit_14(quick: bool) -> CriterionResult:
    c = _Check()
    step = 5.0 if quick else 1.0
    # The computed cells: every other row of the grid is one of them
    # relabeled or mirrored, with the same ratio.  Triangles only for the
    # paper's closed forms; the certifier takes the apexes.
    grid = _sweep_cells(step, 0.5)
    cells = [(i * step, j * step) for i, j in grid.computed_cells()]
    stds = [triangle_from_angles(math.radians(b), math.radians(c)) for b, c in cells]
    p, q = np.array([t.a for t in stds]).T
    for pair, delta in _CERT_DELTA.items():
        n, m = pair
        certs = certify_max_ratio(p, q, n, m, delta)
        closed, point = _PAPER_POINT[pair]
        [rm] = TriangleKernel(p, q).costs(np.array([[tuple(point(t))] for t in stds]), m)
        paper = [closed(t) / float(v) for t, v in zip(stds, rm[:, 0])]
        for cell, cert, value in zip(cells, certs, paper):
            if cert.status != "certified":
                c.failures.append(f"{pair} cell {cell} {cert.status}: lower {cert.lower!r} upper {cert.upper!r} "
                                  f"after {cert.boxes} boxes, witness {cert.witness}")
            elif not cert.upper <= value + delta:
                c.failures.append(f"{pair} cell {cell}: upper {cert.upper!r} above {value!r} at the paper's point "
                                  f"+ {delta:g}")
        boxes = sorted(cert.boxes for cert in certs)
        counts = {k: sum(cert.status == k for cert in certs) for k in ("uncertified", "refuted")}
        c.notes.append(
            f"{pair}: delta={delta:g} eps=({COST_ERROR[n]:g}, {COST_ERROR[m]:g}) cells={len(certs)} "
            f"boxes median/max={boxes[len(boxes) // 2]}/{boxes[-1]} "
            f"gap={max(cert.upper - cert.lower for cert in certs):.4g} "
            f"uncertified={counts['uncertified']} refuted={counts['refuted']}"
        )
    c.notes.append("relabeled and mirrored rows are covered through their source cells")
    return c.result(14, "certified sweep maxima: the seeds are the maximum within delta", max_notes=4)


CRITERIA: tuple[tuple[int, str, Callable[[bool], CriterionResult]], ...] = (
    (1, "equilateral incenter: R1/R3 = 4", _crit_1),
    (2, "equilateral incenter: R2/R3 = 2", _crit_2),
    (3, "equilateral: max R1/R2 = 5/2 at an altitude midpoint", _crit_3),
    (4, "right isosceles mid-altitude: R1 = 3/4, R2 = 1/4, ratio 3", _crit_4),
    (5, "right isosceles: max R2/R3 = sqrt(2) at the incenter", _crit_5),
    (6, "right isosceles incenter: R1/R3 = 2 + sqrt(2)", _crit_6),
    (7, "thin isosceles: max R1/R3 decreasing toward sqrt(10)", _crit_7),
    (8, "universal ratio bounds on random pairs", _crit_8),
    (9, "witness floors at incenter and mid-altitude", _crit_9),
    (10, "oracle equivalence on random instances", _crit_10),
    (11, "incenter-optimality ratio h1 values", _crit_11),
    (12, "region golden probes and separator-chain ties", _crit_12),
    (13, "triangle-space sweeps reproduce the trade-off table", _crit_13),
    (14, "certified sweep maxima: the seeds are the maximum within delta", _crit_14),
)


def run_criterion(cid: int, quick: bool = False) -> CriterionResult:
    for num, description, func in CRITERIA:
        if num == cid:
            try:
                return func(quick)
            except Exception as exc:  # noqa: BLE001 - verification must report, not crash
                return CriterionResult(cid, description, False, f"raised {exc!r}")
    raise KeyError(f"no criterion {cid}")


def run_criteria(quick: bool = False) -> list[CriterionResult]:
    return [run_criterion(cid, quick) for cid, _, _ in CRITERIA]
