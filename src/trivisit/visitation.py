"""Optimal visitation of two or three triangle edges from an interior point.

All costs come from reflection unfolding: the optimal multi-bounce path to a
sequence of edges is a straight segment to an iteratively reflected target,
so each ordered cost is either a point-to-segment distance, a point-to-point
distance, or a vertex detour plus an altitude.  Case selection for the
three-edge visit uses two parallel indicator lines perpendicular to the
twice-unfolded last edge: one through the image of the corner shared by the
last two edges (bounce line), one through the vertex shared by the first two
edges (subopt line).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .geom_core import (
    Cone,
    Line,
    Point2,
    Segment,
    Similarity,
    Triangle,
    VertexId,
    bisector_direction,
    closest_point_on_segment,
    polyline_length,
    reflect,
)

# Classification slack for indicator lines and ties, in standard-form scale.
BOUNDARY_TOL = 1e-9
# Cost ties tighter than this are treated as exact when choosing a kind.
EXACT_TIE = 1e-12


class EdgeId(str, Enum):
    """Triangle edges: L is AB, D is BC, R is CA."""

    L = "L"
    D = "D"
    R = "R"

    @property
    def endpoints(self) -> tuple[VertexId, VertexId]:
        return _EDGE_ENDPOINTS[self]

    @property
    def opposite_vertex(self) -> VertexId:
        return _OPPOSITE_VERTEX[self]


_EDGE_ENDPOINTS = {
    EdgeId.L: (VertexId.A, VertexId.B),
    EdgeId.D: (VertexId.B, VertexId.C),
    EdgeId.R: (VertexId.C, VertexId.A),
}
_OPPOSITE_VERTEX = {EdgeId.L: VertexId.C, EdgeId.D: VertexId.A, EdgeId.R: VertexId.B}
_OPPOSITE_EDGE = {vertex: edge for edge, vertex in _OPPOSITE_VERTEX.items()}


def edge_segment(t: Triangle, e: EdgeId) -> Segment:
    va, vb = e.endpoints
    return Segment(t.vertex(va), t.vertex(vb))


def opposite_edge(v: VertexId) -> EdgeId:
    return _OPPOSITE_EDGE[v]


def shared_vertex(e1: EdgeId, e2: EdgeId) -> VertexId:
    common = set(e1.endpoints) & set(e2.endpoints)
    if len(common) != 1:
        raise ValueError(f"edges {e1} and {e2} do not share exactly one vertex")
    return common.pop()


class VisitOrder(str, Enum):
    LRD = "LRD"
    LDR = "LDR"
    RLD = "RLD"
    RDL = "RDL"
    DLR = "DLR"
    DRL = "DRL"

    @property
    def edges(self) -> tuple[EdgeId, EdgeId, EdgeId]:
        return tuple(EdgeId(ch) for ch in self.value)  # type: ignore[return-value]


class StrategyKind(str, Enum):
    BOUNCING = "bouncing"
    DEGENERATE_VERTEX_BOUNCE = "degenerate-vertex-bounce"
    SUBOPT_VERTEX_ALTITUDE = "subopt-vertex-altitude"
    DIRECT_TO_VERTEX = "direct-to-vertex"
    PERPENDICULAR_DROP = "perpendicular-drop"


@dataclass(frozen=True)
class Trajectory:
    """Polyline witness of a visitation; first waypoint is the start."""

    waypoints: tuple[Point2, ...]
    cost: float
    kind: StrategyKind
    order: VisitOrder | None = None
    edge_sequence: tuple[EdgeId, ...] = ()
    tie: bool = False

    def length(self) -> float:
        return polyline_length(self.waypoints)


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


def _map_back(sim_inv: Similarity, traj: Trajectory) -> Trajectory:
    wps = tuple(sim_inv.apply(w) for w in traj.waypoints)
    return replace(traj, waypoints=wps, cost=polyline_length(wps))


def visit_two_ordered(t: Triangle, p: Point2, first: EdgeId, second: EdgeId) -> Trajectory:
    """Cheapest path from ``p`` touching ``first`` then ``second``.

    Cost equals the distance from ``p`` to the image of ``second`` reflected
    across the supporting line of ``first``; projections past either end of
    the image clamp to it (straight run to the shared vertex, or a bounce
    that ends on the far vertex).
    """
    if first == second:
        raise ValueError("ordered two-edge visit needs distinct edges")
    std, sim = t.standard()
    ps = std.require_inside(sim.apply(p))
    traj = _visit_two_ordered_std(std, ps, first, second)
    return _map_back(sim.inverse(), traj)


def _visit_two_ordered_std(std: Triangle, ps: Point2, first: EdgeId, second: EdgeId) -> Trajectory:
    line1 = edge_segment(std, first).line()
    pivot = std.vertex(shared_vertex(first, second))
    far_id = (set(second.endpoints) - {shared_vertex(first, second)}).pop()
    far = std.vertex(far_id)
    far_img = reflect(far, line1)

    d = far_img - pivot
    tau = (ps - pivot).dot(d) / d.dot(d)
    seq = (first, second)
    if tau <= EXACT_TIE:
        wps = _dedupe([ps, pivot])
        return Trajectory(wps, polyline_length(wps), StrategyKind.DIRECT_TO_VERTEX, None, seq)
    if tau >= 1.0 - EXACT_TIE:
        m = _cross_line(ps, far_img, line1)
        wps = _dedupe([ps, m, far])
        return Trajectory(
            wps, polyline_length(wps), StrategyKind.DEGENERATE_VERTEX_BOUNCE, None, seq
        )
    target = pivot + tau * d
    m = _cross_line(ps, target, line1)
    n = reflect(target, line1)
    wps = _dedupe([ps, m, n])
    return Trajectory(wps, polyline_length(wps), StrategyKind.BOUNCING, None, seq)


def visit_two_set(t: Triangle, p: Point2, edges: tuple[EdgeId, EdgeId]) -> Trajectory:
    """Cheapest visit of an unordered pair of edges.

    On a tie (within ``BOUNDARY_TOL`` in standard scale) the reported order
    starts with the edge nearer to ``p`` and the trajectory is flagged.
    """
    e1, e2 = edges
    if e1 == e2:
        raise ValueError("edge pair must be distinct")
    std, sim = t.standard()
    ps = std.require_inside(sim.apply(p))
    t12 = _visit_two_ordered_std(std, ps, e1, e2)
    t21 = _visit_two_ordered_std(std, ps, e2, e1)
    if abs(t12.cost - t21.cost) <= BOUNDARY_TOL:
        d1 = _dist_to_edge(std, ps, e1)
        d2 = _dist_to_edge(std, ps, e2)
        chosen = t12 if d1 <= d2 else t21
        chosen = replace(chosen, tie=True)
    else:
        chosen = t12 if t12.cost < t21.cost else t21
    return _map_back(sim.inverse(), chosen)


def _dist_to_edge(t: Triangle, p: Point2, e: EdgeId) -> float:
    seg = edge_segment(t, e)
    return p.dist(closest_point_on_segment(p, seg))


@dataclass(frozen=True)
class _Unfold3:
    """Constants of one ordered three-edge unfolding."""

    order: VisitOrder
    line1: Line                 # supporting line of the first edge
    line2u: Line                # once-unfolded second edge's line
    apex: Point2                # first-edge / second-edge vertex
    base_vertex: Point2         # first-edge / third-edge vertex
    corner: Point2              # second-edge / third-edge vertex
    corner_img: Point2          # corner reflected across line1; near end of e3u
    far_img: Point2             # base vertex after both reflections; far end of e3u
    u: Point2                   # unit corner_img -> far_img
    sigma_z: float              # orientation of the positive subopt side
    alt_foot: Point2            # foot of the apex on the third edge's line
    third_line: Line

    @property
    def e3u(self) -> Segment:
        return Segment(self.corner_img, self.far_img)

    def line_dist(self, p: Point2) -> float:
        return abs(self.u.perp().dot(p - self.corner_img))

    def t_coord(self, p: Point2) -> float:
        return self.u.dot(p - self.corner_img)

    def subopt_coord(self, p: Point2) -> float:
        return self.sigma_z * self.u.dot(p - self.apex)


def _unfold3(t: Triangle, order: VisitOrder) -> _Unfold3:
    e1, e2, e3 = order.edges
    line1 = edge_segment(t, e1).line()
    apex = t.vertex(shared_vertex(e1, e2))
    base_vertex = t.vertex(shared_vertex(e1, e3))
    corner = t.vertex(shared_vertex(e2, e3))
    corner_img = reflect(corner, line1)
    # Once-unfolded second edge runs from the apex (fixed by the first
    # reflection) to the corner image.
    line2u = Line.from_points(apex, corner_img)
    far_img = reflect(base_vertex, line2u)
    u = (far_img - corner_img).unit()
    sigma_z = math.copysign(1.0, u.dot(base_vertex - apex))
    third_line = edge_segment(t, e3).line()
    alt_foot = Point2(
        apex.x - third_line.signed_dist(apex) * third_line.a,
        apex.y - third_line.signed_dist(apex) * third_line.b,
    )
    return _Unfold3(
        order, line1, line2u, apex, base_vertex, corner, corner_img, far_img, u,
        sigma_z, alt_foot, third_line,
    )


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


# Preference on exact cost ties: a degenerate bounce through the corner
# vertex, then a three-bounce path, then the vertex-plus-altitude detour.
_KIND_RANK = {
    StrategyKind.DEGENERATE_VERTEX_BOUNCE: 0,
    StrategyKind.BOUNCING: 1,
    StrategyKind.SUBOPT_VERTEX_ALTITUDE: 2,
}


def visit_three_ordered(t: Triangle, p: Point2, order: VisitOrder) -> Trajectory:
    """Cheapest path from ``p`` touching all edges in the given order.

    Points within ``BOUNDARY_TOL`` of an indicator line get every adjacent
    candidate evaluated and the cheapest returned; the candidates agree on
    the lines themselves, so classification is never brittle there.
    """
    std, sim = t.standard()
    ps = std.require_inside(sim.apply(p))
    traj = _visit_three_ordered_std(std, ps, order)
    return _map_back(sim.inverse(), traj)


def _visit_three_ordered_std(std: Triangle, ps: Point2, order: VisitOrder) -> Trajectory:
    uf = _unfold3(std, order)
    s_b = uf.t_coord(ps)
    s_z = uf.subopt_coord(ps)

    candidates: list[Trajectory] = []
    if s_z <= BOUNDARY_TOL:
        candidates.append(_case_subopt(uf, ps))
    if s_z >= -BOUNDARY_TOL and s_b <= BOUNDARY_TOL:
        candidates.append(_case_degenerate(uf, ps))
    if s_z >= -BOUNDARY_TOL and s_b >= -BOUNDARY_TOL:
        candidates.append(_case_bouncing(uf, ps))
    best = min(candidates, key=lambda tr: (tr.cost, _KIND_RANK[tr.kind]))
    near = [c for c in candidates if c.cost <= best.cost + EXACT_TIE]
    return min(near, key=lambda tr: _KIND_RANK[tr.kind])
