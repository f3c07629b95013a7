"""Witness trajectories for visiting two or three triangle edges from a
point.

All costs come from reflection unfolding: the optimal multi-bounce path to a
sequence of edges is a straight segment to an iteratively reflected target,
so each ordered cost is either a point-to-segment distance, a point-to-point
distance, or a vertex detour plus an altitude.  Which of those cases apply
is decided by a ``TriangleKernel`` of the triangle's standard form, evaluated
at the point (``StandardPoint``); this module only builds the polyline of
each case the kernel admits and maps it back to the triangle's pose.  For a
three-edge visit the kernel's cases come from two parallel indicator lines
perpendicular to the twice-unfolded last edge: one through the image of the
corner shared by the last two edges (bounce line), one through the vertex
shared by the first two edges (subopt line).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import _ORDERS, EXACT_TIE, StrategyKind, TriangleKernel, _Unfold3, _unfold3
from .geom_core import (
    Cone,
    EdgeId,
    Line,
    Point2,
    Segment,
    Triangle,
    VertexId,
    VisitOrder,
    as_point,
    bisector_direction,
    polyline_length,
    reflect,
)


@dataclass(frozen=True)
class Trajectory:
    """Polyline witness of a visitation; first waypoint is the start."""

    waypoints: tuple[Point2, ...]
    cost: float
    kind: StrategyKind
    order: VisitOrder | None = None
    edge_sequence: tuple[EdgeId, ...] = ()
    tie: bool = False


@dataclass(frozen=True)
class IndicatorHalfspaces:
    """Trajectory-shape selectors for one ordered three-edge visit.

    Both lines are perpendicular to the twice-unfolded last edge, hence
    parallel to each other.  A point on the reference side of a line is in
    that line's positive halfspace.
    """

    bounce_line: Line
    subopt_line: Line
    bounce_positive_ref: Point2
    subopt_positive_ref: Point2
    unfolded_third: Segment


def bouncing_subcone(t: Triangle, vertex: VertexId) -> Cone:
    """Cone of starting points whose optimal two-edge visit goes straight to
    ``vertex``; angle 3*V - pi about the bisector, a ray at V = pi/3, empty
    below."""
    ang = t.angle(vertex)
    tip = t.vertex(vertex)
    direction = bisector_direction(t, vertex)
    half = (3.0 * ang - math.pi) / 2.0
    if half < -1e-12:
        return Cone(tip, direction, 0.0, empty=True)
    return Cone(tip, direction, max(0.0, half))


def indicator_halfspaces(t: Triangle, order: VisitOrder) -> IndicatorHalfspaces:
    """Bounce and subopt indicator lines for ``order`` in the given pose."""
    uf = _unfold3(t, order)
    return IndicatorHalfspaces(
        bounce_line=Line.from_point_normal(uf.corner_img, uf.u),
        subopt_line=Line.from_point_normal(uf.apex, uf.u),
        bounce_positive_ref=uf.apex,
        subopt_positive_ref=uf.base_vertex,
        unfolded_third=uf.e3u,
    )


def _dedupe(points: list[Point2], tol: float = EXACT_TIE) -> tuple[Point2, ...]:
    out: list[Point2] = []
    for p in points:
        if not out or out[-1].dist(p) > tol:
            out.append(p)
    return tuple(out)


def _cross_line(p: Point2, q: Point2, line: Line) -> Point2:
    """Point of line ``pq`` on ``line``; falls back to ``p`` when pq is parallel."""
    dp, dq = line.signed_dist(p), line.signed_dist(q)
    if abs(dp - dq) <= 1e-15:
        return p
    t = dp / (dp - dq)
    return p + t * (q - p)


def _case_bouncing(uf: _Unfold3, ps: Point2) -> Trajectory:
    n = uf.u.perp()
    proj = ps - n.dot(ps - uf.corner_img) * n
    e = _cross_line(ps, proj, uf.line1)
    f = _cross_line(ps, proj, uf.line2u)
    h = reflect(f, uf.line1)
    g = reflect(reflect(proj, uf.line2u), uf.line1)
    wps = _dedupe([ps, e, h, g])
    return Trajectory(wps, polyline_length(wps), StrategyKind.BOUNCING, uf.order, uf.order.edges)


def _case_degenerate(uf: _Unfold3, ps: Point2) -> Trajectory:
    j = _cross_line(ps, uf.corner_img, uf.line1)
    wps = _dedupe([ps, j, uf.corner])
    return Trajectory(
        wps, polyline_length(wps), StrategyKind.DEGENERATE_VERTEX_BOUNCE, uf.order, uf.order.edges
    )


def _case_subopt(uf: _Unfold3, ps: Point2) -> Trajectory:
    wps = _dedupe([ps, uf.apex, uf.alt_foot])
    return Trajectory(
        wps, polyline_length(wps), StrategyKind.SUBOPT_VERTEX_ALTITUDE, uf.order, uf.order.edges
    )


# Witness builder of each three-edge case, in order of preference on exact
# cost ties: a degenerate bounce through the corner vertex, then a
# three-bounce path, then the vertex-plus-altitude detour.
_CASES = {
    StrategyKind.DEGENERATE_VERTEX_BOUNCE: _case_degenerate,
    StrategyKind.BOUNCING: _case_bouncing,
    StrategyKind.SUBOPT_VERTEX_ALTITUDE: _case_subopt,
}
_KIND_RANK = {kind: rank for rank, kind in enumerate(_CASES)}


class StandardPoint:
    """A start point in the standard form of its triangle, checked to lie
    inside, with the kernel of that standard form.  Each cost family is
    evaluated at the point at most once, in one broadcast, when first read:
    ``edge_dists`` (3, 1), ``ordered_pairs`` (6, 1) and ``orders``, the (6, 1)
    costs and case masks of the ordered three-edge visits.  Each visit
    method reads the cases or order there, builds their witnesses in
    standard form and returns the chosen one in the triangle's pose."""

    def __init__(self, t: Triangle, p):
        std, sim = t.standard()
        self.t, self.p, self.std = t, as_point(p), std
        self.ps = std.require_inside(sim.apply(self.p))
        self.pts = np.array([self.ps])
        self.kernel = TriangleKernel(std)
        self._sim_inv = sim.inverse()

    @cached_property
    def edge_dists(self) -> np.ndarray:
        return self.kernel.edge_family(self.pts)

    @cached_property
    def ordered_pairs(self) -> np.ndarray:
        return self.kernel.ordered2_family(self.pts)

    @cached_property
    def orders(self) -> tuple[np.ndarray, dict]:
        return self.kernel.ordered3_family(self.pts)

    def three_ordered(self, order: VisitOrder) -> Trajectory:
        """Every admissible case is built; the cheapest wins, and among
        those within ``EXACT_TIE`` of it the best-ranked kind."""
        k = _ORDERS.index(order)
        uf = self.kernel.unfolding(order)
        candidates = [_CASES[kind](uf, self.ps) for kind, ok in self.orders[1].items() if ok[k, 0]]
        best = min(c.cost for c in candidates)
        near = [c for c in candidates if c.cost <= best + EXACT_TIE]
        return self._map_back(min(near, key=lambda tr: _KIND_RANK[tr.kind]))

    def two_ordered(self, first: EdgeId, second: EdgeId, tie: bool = False) -> Trajectory:
        tau, cases = self.kernel.ordered2_clamp(self.pts, first, second)
        kind = next(kind for kind, ok in cases.items() if ok[0])
        ps, line1 = self.ps, self.kernel.edge_line(first)
        pivot, far, far_img = self.kernel.pair_unfolding(first, second)
        if kind is StrategyKind.DIRECT_TO_VERTEX:
            wps = _dedupe([ps, pivot])
        elif kind is StrategyKind.DEGENERATE_VERTEX_BOUNCE:
            wps = _dedupe([ps, _cross_line(ps, far_img, line1), far])
        else:
            target = pivot + float(tau[0]) * (far_img - pivot)
            wps = _dedupe([ps, _cross_line(ps, target, line1), reflect(target, line1)])
        return self._map_back(Trajectory(wps, polyline_length(wps), kind, None, (first, second), tie))

    def two_set(self, e1: EdgeId, e2: EdgeId) -> Trajectory:
        e1_first, tie = self.kernel.pair_order(self.pts, self.ordered_pairs, e1, e2)
        return self.two_ordered(*((e1, e2) if e1_first[0] else (e2, e1)), tie=bool(tie[0]))

    def _map_back(self, traj: Trajectory) -> Trajectory:
        """``traj`` in the triangle's pose, its cost the mapped length."""
        wps = tuple(self._sim_inv.apply(w) for w in traj.waypoints)
        return Trajectory(wps, polyline_length(wps), traj.kind, traj.order, traj.edge_sequence, traj.tie)


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
