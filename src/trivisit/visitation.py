"""Witness trajectories for visiting two or three triangle edges from a
point.

All costs come from reflection unfolding: the optimal multi-bounce path to a
sequence of edges is a straight segment to an iteratively reflected target,
so each ordered cost is either a point-to-segment distance, a point-to-point
distance, or a vertex detour plus an altitude.  Which of those cases apply
is decided by a ``TriangleKernel`` of the triangle's standard form, evaluated
at the point (``StandardPoint``); this module only builds the polyline of
each case the kernel admits, and of a drop, in standard form, merges its
waypoints within ``EXACT_TIE`` there (no length test is absolute) and maps it
back to the triangle's pose once, with the kernel's cost scaled back.  So a
witness is as long as its cost on slivers and at any scale.  For a three-edge
visit the kernel's cases come from two parallel indicator lines perpendicular
to the twice-unfolded last edge: one through the image of the corner shared
by the last two edges (bounce line), one through the vertex shared by the
first two edges (subopt line).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ._kernels import _ORDERS, _SEG_INDEX, EXACT_TIE, StrategyKind, TriangleKernel
from .geom_core import EdgeId, Point2, Triangle, VisitOrder, nearest_on_segment, polyline_length, reflect_xy


@dataclass(frozen=True)
class Trajectory:
    """Polyline witness of a visitation; first waypoint is the start."""

    waypoints: tuple[Point2, ...]
    cost: float
    kind: StrategyKind
    order: VisitOrder | None = None
    edge_sequence: tuple[EdgeId, ...] = ()
    tie: bool = False


# Witnesses are built in standard form on plain floats: points are (x, y)
# and lines (a, b, c).  Reflections are ``geom_core.reflect_xy``, the formula
# of ``reflect``; ``_dedupe`` and ``_cross_line`` take the operations of
# ``Point2.dist``, ``Line.signed_dist`` and ``Point2`` arithmetic.


def _dedupe(points: list) -> list:
    out = [points[0]]
    for p in points[1:]:
        q = out[-1]
        if math.hypot(q[0] - p[0], q[1] - p[1]) > EXACT_TIE:
            out.append(p)
    return out


def _cross_line(p, q, line):
    """Point of segment ``pq`` on ``line``, its parameter clamped to [0, 1]:
    on slivers ``line`` is nearly parallel to pq, and rounding throws it off."""
    (px, py), (qx, qy), (a, b, c) = p, q, line
    dp, dq = a * px + b * py + c, a * qx + b * qy + c
    t = min(max(dp / (dp - dq), 0.0), 1.0) if dp != dq else 0.0
    return px + (qx - px) * t, py + (qy - py) * t


def _case_bouncing(w, ps) -> list:
    line1, line2u, (cix, ciy), (ux, uy), *_ = w
    (px, py), nx, ny = ps, -uy, ux
    s = nx * (px - cix) + ny * (py - ciy)
    proj = (px - nx * s, py - ny * s)
    e = _cross_line(ps, proj, line1)
    f = _cross_line(ps, proj, line2u)
    return _dedupe([ps, e, reflect_xy(*f, *line1), reflect_xy(*reflect_xy(*proj, *line2u), *line1)])


def _case_degenerate(w, ps) -> list:
    line1, _, corner_img, _, _, _, corner, *_ = w
    return _dedupe([ps, _cross_line(ps, corner_img, line1), corner])


def _case_subopt(w, ps) -> list:
    _, _, _, _, apex, alt_foot, *_ = w
    return _dedupe([ps, apex, alt_foot])


# Waypoint builder of each three-edge case, from ``TriangleKernel.order_witness``,
# in order of preference on exact cost ties: a degenerate bounce through the
# corner vertex, then a three-bounce path, then the vertex-plus-altitude
# detour.
_CASES = {
    StrategyKind.DEGENERATE_VERTEX_BOUNCE: _case_degenerate,
    StrategyKind.BOUNCING: _case_bouncing,
    StrategyKind.SUBOPT_VERTEX_ALTITUDE: _case_subopt,
}
_KIND_RANK = {kind: rank for rank, kind in enumerate(_CASES)}


class StandardPoint:
    """A start point ``ps``, checked to lie inside its triangle in the pose
    and mapped to the standard form, with the kernel of that standard form.
    The point's costs are two evaluations of the kernel at (x, y), each made
    at most once, when first read, on the plain floats of the kernel's row,
    with no NumPy array: ``segs``, the nine costs of the segment table
    (``segs_all``: the three edge distances, then the six ordered pairs,
    indexed by ``_SEG_INDEX``), and ``orders``, the six ordered three-edge
    visit costs (``r1_all``).  Every decision at the point is made on those
    floats by the kernel's rules.  Each visit method builds the witnesses of
    what the kernel marks in standard form and returns the chosen one in the
    pose, its cost ``scale`` times the kernel's."""

    def __init__(self, t: Triangle, p):
        std, sim = t.standard()
        self.std, self.ps = std, sim.apply(t.require_inside(p))
        self.kernel = TriangleKernel(*std.a)
        self._pose = sim.inverse()
        self.scale = self._pose.scale

    @cached_property
    def segs(self) -> list[float]:
        return self.kernel.segs_all(self.ps)

    @cached_property
    def orders(self) -> list[float]:
        return self.kernel.r1_all(self.ps)

    def three_ordered(self, order: VisitOrder) -> Trajectory:
        """Every admissible case is built; the shortest in standard form
        wins, and among those within ``EXACT_TIE`` of it the best-ranked kind."""
        w = self.kernel.order_witness(order)
        cases = self.kernel.order_cases(*self.ps, order)
        candidates = [(kind, _CASES[kind](w, self.ps)) for kind, ok in cases.items() if ok]
        lengths = [polyline_length(wps) for _, wps in candidates]
        best = min(lengths)
        kind, wps = min(
            (c for c, n in zip(candidates, lengths) if n <= best + EXACT_TIE), key=lambda c: _KIND_RANK[c[0]]
        )
        return self._map_back(wps, self.orders[_ORDERS.index(order)], kind, order, order.edges)

    def drop(self, e: EdgeId) -> Trajectory:
        """Drop to ``e``: to the nearest point of the standard triangle's edge."""
        (ax, ay), (bx, by) = (self.std.vertex(v) for v in e.endpoints)
        wps = _dedupe([self.ps, nearest_on_segment(*self.ps, ax, ay, bx, by)[:2]])
        return self._map_back(wps, self.segs[_SEG_INDEX[e]], StrategyKind.PERPENDICULAR_DROP, None, (e,))

    def two_ordered(self, first: EdgeId, second: EdgeId, tie: bool = False) -> Trajectory:
        ps = self.ps
        kind, tau, line1, pivot, far, far_img = self.kernel.pair_witness(*ps, first, second)
        if kind is StrategyKind.DIRECT_TO_VERTEX:
            wps = _dedupe([ps, pivot])
        elif kind is StrategyKind.DEGENERATE_VERTEX_BOUNCE:
            wps = _dedupe([ps, _cross_line(ps, far_img, line1), far])
        else:
            target = (pivot[0] + (far_img[0] - pivot[0]) * tau, pivot[1] + (far_img[1] - pivot[1]) * tau)
            wps = _dedupe([ps, _cross_line(ps, target, line1), reflect_xy(*target, *line1)])
        return self._map_back(wps, self.segs[_SEG_INDEX[first, second]], kind, None, (first, second), tie)

    def two_set(self, e1: EdgeId, e2: EdgeId) -> Trajectory:
        e1_first, tie = self.kernel.pair_order(*self.ps, self.segs, e1, e2)
        return self.two_ordered(*((e1, e2) if e1_first else (e2, e1)), tie=tie)

    def _map_back(self, wps: list, cost: float, kind: StrategyKind, order, edges, tie: bool = False) -> Trajectory:
        """The trajectory through the standard-form waypoints ``wps``, mapped
        to the triangle's pose, with ``scale`` times the standard-form kernel
        ``cost``."""
        return Trajectory(tuple(map(self._pose.apply, wps)), self.scale * cost, kind, order, edges, tie)


def visit_two_ordered(t: Triangle, p: Point2, first: EdgeId, second: EdgeId) -> Trajectory:
    """Cheapest path from ``p`` touching ``first`` then ``second``.

    Cost equals the distance from ``p`` to the image of ``second`` reflected
    across the supporting line of ``first``; projections past either end of
    the image clamp to it (straight run to the shared vertex, or a bounce
    that ends on the far vertex).
    """
    if first == second:
        raise ValueError("ordered two-edge visit needs distinct edges")
    return StandardPoint(t, p).two_ordered(first, second)


def visit_two_set(t: Triangle, p: Point2, edges: tuple[EdgeId, EdgeId]) -> Trajectory:
    """Cheapest visit of an unordered pair of edges.

    On a tie (within ``BOUNDARY_TOL`` in standard scale) the reported order
    starts with the edge nearer to ``p`` and the trajectory is flagged.
    """
    e1, e2 = edges
    if e1 == e2:
        raise ValueError("edge pair must be distinct")
    return StandardPoint(t, p).two_set(e1, e2)


def visit_three_ordered(t: Triangle, p: Point2, order: VisitOrder) -> Trajectory:
    """Cheapest path from ``p`` touching all edges in the given order.

    Points within ``BOUNDARY_TOL`` of an indicator line get every adjacent
    candidate built and the cheapest returned; the candidates agree on the
    lines themselves, so classification is never brittle there.
    """
    return StandardPoint(t, p).three_ordered(order)
