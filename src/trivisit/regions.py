"""Separator curves and raster maps of optimal-strategy regions.

Region labels come from numeric cost comparison, never from a symbolic
arrangement: a cell is labeled by every strategy within the tie tolerance of
its best cost.  The constructed separator chains (bisector segments, the
two-robot mixed hexagon, the left/right-first equal-cost locus) are
cross-checks: sampled points on them must tie the two strategies they
separate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._kernels import TriangleKernel
from .fleet_costs import largest_angle_vertex
from .geom_core import (
    GeometryError,
    Line,
    Parabola,
    Point2,
    Segment,
    Triangle,
    VertexId,
    bisector_direction,
    foot_of_bisector,
    incenter,
)
from .visitation import BOUNDARY_TOL, EdgeId, VisitOrder, _unfold3, bouncing_subcone, edge_segment, opposite_edge

TIE_TOL = BOUNDARY_TOL      # separator membership slack on standard-form costs
_PIECE_EPS = 1e-9           # pieces shorter than this are dropped


# ---------------------------------------------------------------------------
# separator chains


@dataclass(frozen=True)
class SegmentPiece:
    seg: Segment
    label: str

    @property
    def start(self) -> Point2:
        return self.seg.p0

    @property
    def end(self) -> Point2:
        return self.seg.p1

    def point_at(self, s: float) -> Point2:
        return self.seg.point_at(s)


@dataclass(frozen=True)
class ParabolaArcPiece:
    parabola: Parabola
    u0: float
    u1: float
    label: str

    @property
    def start(self) -> Point2:
        return self.parabola.point_at(self.u0)

    @property
    def end(self) -> Point2:
        return self.parabola.point_at(self.u1)

    def point_at(self, s: float) -> Point2:
        return self.parabola.point_at(self.u0 + s * (self.u1 - self.u0))


@dataclass(frozen=True)
class LinePiece:
    line: Line
    p0: Point2
    p1: Point2
    label: str

    @property
    def start(self) -> Point2:
        return self.p0

    @property
    def end(self) -> Point2:
        return self.p1

    def point_at(self, s: float) -> Point2:
        return Point2(
            self.p0.x + s * (self.p1.x - self.p0.x),
            self.p0.y + s * (self.p1.y - self.p0.y),
        )


ChainPiece = SegmentPiece | ParabolaArcPiece | LinePiece


@dataclass(frozen=True)
class SeparatorChain:
    pieces: tuple[ChainPiece, ...]
    label: str

    def sample(self, count: int) -> list[tuple[Point2, str]]:
        """About ``count`` points spread over the pieces, with piece labels."""
        if not self.pieces:
            return []
        per = max(2, count // len(self.pieces))
        out = []
        for piece in self.pieces:
            for i in range(per):
                s = (i + 0.5) / per
                out.append((piece.point_at(s), piece.label))
        return out

    def max_endpoint_gap(self) -> float:
        gaps = [
            self.pieces[i].end.dist(self.pieces[i + 1].start)
            for i in range(len(self.pieces) - 1)
        ]
        return max(gaps, default=0.0)


# ---------------------------------------------------------------------------
# three-robot regions


@dataclass(frozen=True)
class R3Regions:
    """Bisector feet, incenter, and the classification they induce."""

    triangle: Triangle
    foot_a: Point2        # on BC
    foot_b: Point2        # on CA
    foot_c: Point2        # on AB
    center: Point2

    @property
    def separators(self) -> tuple[Segment, Segment, Segment]:
        return (
            Segment(self.center, self.foot_a),
            Segment(self.center, self.foot_b),
            Segment(self.center, self.foot_c),
        )

    def classify(self, p: Point2) -> tuple[EdgeId, ...]:
        from .fleet_costs import r3

        return r3(self.triangle, p).edges


def r3_regions(t: Triangle) -> R3Regions:
    return R3Regions(
        t,
        foot_of_bisector(t, VertexId.A),
        foot_of_bisector(t, VertexId.B),
        foot_of_bisector(t, VertexId.C),
        incenter(t),
    )


# ---------------------------------------------------------------------------
# two-robot separator


_CCW_NEXT = {VertexId.A: VertexId.B, VertexId.B: VertexId.C, VertexId.C: VertexId.A}


def _edge_with(v1: VertexId, v2: VertexId) -> EdgeId:
    for e in EdgeId:
        if set(e.endpoints) == {v1, v2}:
            return e
    raise AssertionError("no edge for vertex pair")


def _extreme_ray_toward(t: Triangle, foot: Point2, edge: EdgeId, toward: Point2) -> tuple[Point2, Point2]:
    """Extreme ray of the cone at ``foot`` (angle = the opposite vertex's
    angle, bisector perpendicular to ``edge``) tilted toward ``toward``."""
    opp = edge.opposite_vertex
    half = t.angle(opp) / 2.0
    seg = edge_segment(t, edge)
    d = seg.direction
    inward = d.perp()
    # Triangle vertices are counter-clockwise, so the inward normal of each
    # directed edge is the CCW perpendicular.
    ca, sa = math.cos(half), math.sin(half)
    cand = []
    for sign in (1.0, -1.0):
        rx = ca * inward.x - sign * sa * inward.y
        ry = sign * sa * inward.x + ca * inward.y
        cand.append(Point2(rx, ry))
    want = (toward - foot).unit()
    best = max(cand, key=lambda r: r.dot(want))
    return foot, best


def bisector_separator_point(t: Triangle, vertex: VertexId) -> Point2:
    """Meeting point, on the vertex-to-incenter segment, of the extreme cone
    rays raised from the two adjacent bisector feet."""
    v = t.vertex(vertex)
    center = incenter(t)
    bis = Line.from_points(v, center)
    hits = []
    for other in VertexId:
        if other is vertex:
            continue
        edge = _edge_with(vertex, other)
        opp = edge.opposite_vertex
        foot = foot_of_bisector(t, opp)
        origin, ray = _extreme_ray_toward(t, foot, edge, v)
        ray_line = Line.from_points(origin, origin + ray)
        hit = ray_line.intersect(bis)
        if hit is None:
            raise GeometryError("cone ray parallel to the vertex bisector")
        hits.append(hit)
    gap = hits[0].dist(hits[1])
    if gap > 1e-6 * t.base_length:
        raise GeometryError(
            f"cone rays miss a common bisector point (gap {gap:g}); "
            "construction hypotheses violated"
        )
    f = Point2((hits[0].x + hits[1].x) / 2, (hits[0].y + hits[1].y) / 2)
    # F must lie between the vertex and the incenter.
    along = (f - v).dot(center - v) / max((center - v).dot(center - v), 1e-300)
    if not (-1e-9 <= along <= 1.0 + 1e-6):
        raise GeometryError("separator point left the vertex-to-incenter segment")
    return f


def _ray_parabola_point(par: Parabola, origin: Point2, direction: Point2) -> Point2 | None:
    """Point of the focus-anchored ray on the parabola, if any.

    Valid when the ray starts at the focus: along it, distance to the focus
    grows like s while distance to the directrix is affine in s.
    """
    d = direction.unit()
    e0 = abs(par.directrix.signed_dist(origin))
    slope = par.directrix.signed_dist(origin + d) - par.directrix.signed_dist(origin)
    sgn = math.copysign(1.0, par.directrix.signed_dist(origin))
    growth = sgn * slope
    denom = 1.0 - growth
    if denom <= 1e-12:
        return None
    s = e0 / denom
    return origin + s * d


def r2_separator(t: Triangle) -> SeparatorChain:
    """Closed chain outside which the two-robot cost is the distance to the
    opposite edge: bisector feet and separator points, with parabola arcs
    replacing the portions inside each wide-angle bouncing subcone."""
    feet = {
        VertexId.A: foot_of_bisector(t, VertexId.A),   # on BC
        VertexId.B: foot_of_bisector(t, VertexId.B),   # on CA
        VertexId.C: foot_of_bisector(t, VertexId.C),   # on AB
    }
    seps = {v: bisector_separator_point(t, v) for v in VertexId}
    # Walk corner by corner: around vertex V the chain runs from the foot on
    # one incident edge through the separator point to the foot on the other.
    corner_feet = {
        VertexId.B: (feet[VertexId.C], feet[VertexId.A]),
        VertexId.C: (feet[VertexId.A], feet[VertexId.B]),
        VertexId.A: (feet[VertexId.B], feet[VertexId.C]),
    }
    pieces: list[ChainPiece] = []
    for v in (VertexId.B, VertexId.C, VertexId.A):
        enter, leave = corner_feet[v]
        label = f"corner-{v.value}"
        cone = bouncing_subcone(t, v)
        if cone.empty or cone.half_angle <= 1e-12:
            pieces.extend(_corner_segments(enter, seps[v], leave, label))
            continue
        vx = t.vertex(v)
        opp_line = edge_segment(t, opposite_edge(v)).line()
        par = Parabola(vx, opp_line)
        rays = _subcone_extreme_rays(t, v, cone.half_angle)
        xs = []
        for ray in rays:
            hit = _ray_parabola_point(par, vx, ray)
            if hit is None:
                xs = []
                break
            xs.append(hit)
        if len(xs) != 2:
            pieces.extend(_corner_segments(enter, seps[v], leave, label))
            continue
        # Match each arc endpoint with the hexagon side it lies on.
        if _along(enter, seps[v], xs[0]) is None:
            xs.reverse()
        x_in, x_out = xs
        _append_segment(pieces, enter, x_in, label)
        u0, u1 = par.param_of(x_in), par.param_of(x_out)
        if abs(u1 - u0) > _PIECE_EPS:
            pieces.append(ParabolaArcPiece(par, u0, u1, label))
        _append_segment(pieces, x_out, leave, label)
    return SeparatorChain(tuple(pieces), "two-robot separator")


def _corner_segments(enter: Point2, mid: Point2, leave: Point2, label: str) -> list[ChainPiece]:
    out: list[ChainPiece] = []
    _append_segment(out, enter, mid, label)
    _append_segment(out, mid, leave, label)
    return out


def _append_segment(pieces: list[ChainPiece], p0: Point2, p1: Point2, label: str) -> None:
    if p0.dist(p1) > _PIECE_EPS:
        pieces.append(SegmentPiece(Segment(p0, p1), label))


def _along(a: Point2, b: Point2, p: Point2, slack: float = 1e-6) -> float | None:
    """Parameter of ``p`` along segment ab when it lies on it; else None."""
    d = b - a
    denom = d.dot(d)
    if denom <= 1e-300:
        return None
    s = (p - a).dot(d) / denom
    if -slack <= s <= 1.0 + slack and abs(d.cross(p - a)) <= 1e-6 * math.sqrt(denom):
        return s
    return None


def _subcone_extreme_rays(t: Triangle, v: VertexId, half: float) -> tuple[Point2, Point2]:
    bis = bisector_direction(t, v)
    out = []
    for sign in (1.0, -1.0):
        ca, sa = math.cos(half), math.sin(sign * half)
        out.append(Point2(ca * bis.x - sa * bis.y, sa * bis.x + ca * bis.y))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# one-robot left-first / right-first locus


def _orders_for_apex(apex: VertexId) -> tuple[VisitOrder, VisitOrder]:
    nxt = _CCW_NEXT[apex]
    prv = _CCW_NEXT[nxt]
    e_left = _edge_with(apex, nxt)
    e_right = _edge_with(prv, apex)
    e_down = _edge_with(nxt, prv)
    o1 = VisitOrder(e_left.value + e_right.value + e_down.value)
    o2 = VisitOrder(e_right.value + e_left.value + e_down.value)
    return o1, o2


def _inward_gap(t: Triangle, p: Point2) -> float:
    """Smallest signed inward distance to the edge lines; negative outside."""
    gaps = []
    for u, v in ((t.a, t.b), (t.b, t.c), (t.c, t.a)):
        d = (v - u).unit()
        gaps.append(d.cross(p - u))
    return min(gaps)


def r1_lrd_rld_locus(t: Triangle, apex: VertexId | None = None) -> SeparatorChain:
    """Equal-cost locus of the two visit orders that keep the apex's
    opposite edge last: an altitude piece, then possibly a parabola arc and a
    straight piece once one and then both orders degenerate to corner hits."""
    if apex is None:
        apex = largest_angle_vertex(t)
    o1, o2 = _orders_for_apex(apex)
    label = f"{o1.value}={o2.value}"
    uf1 = _unfold3(t, o1)
    uf2 = _unfold3(t, o2)
    v = t.vertex(apex)
    foot = uf1.alt_foot  # both orders share the apex and the last edge
    altitude = Segment(v, foot)

    def bounce_cross(uf) -> float | None:
        # parameter along the altitude where the bounce line is crossed
        t0 = uf.t_coord(v)
        t1 = uf.t_coord(foot)
        if abs(t0 - t1) <= 1e-12:
            return None
        s = t0 / (t0 - t1)
        return s if 1e-9 < s < 1.0 - 1e-9 else None

    crossings = [(bounce_cross(uf), uf, other)
                 for uf, other in ((uf1, uf2), (uf2, uf1))]
    crossings = [(s, uf, other) for s, uf, other in crossings if s is not None]
    if not crossings:
        return SeparatorChain((SegmentPiece(altitude, label),), label)

    s_u, uf_deg, uf_straight = min(crossings, key=lambda c: c[0])
    u_pt = altitude.point_at(s_u)
    pieces: list[ChainPiece] = []
    _append_segment(pieces, v, u_pt, label)

    third_line = Line.from_points(uf_straight.corner_img, uf_straight.far_img)
    if abs(third_line.signed_dist(uf_deg.corner_img)) <= 1e-12:
        # Degenerate parabola (right apex): both unfolded lines coincide and
        # the locus continues straight down the altitude.
        _append_segment(pieces, u_pt, foot, label)
        return SeparatorChain(tuple(pieces), label)
    par = Parabola(uf_deg.corner_img, third_line)
    u0 = par.param_of(u_pt)

    # March along the parabola on the side where the first order stays
    # degenerate, until the second order degenerates too, any case guard
    # flips, or the triangle is left.
    du = altitude.length / 64.0
    probe = 1e-6 * altitude.length
    direction = (
        1.0
        if uf_deg.t_coord(par.point_at(u0 + probe)) < uf_deg.t_coord(par.point_at(u0 - probe))
        else -1.0
    )

    def at(u: float) -> Point2:
        return par.point_at(u)

    guards = (
        ("bounce", lambda u: uf_straight.t_coord(at(u))),
        ("exit", lambda u: _inward_gap(t, at(u))),
        ("restraight", lambda u: -uf_deg.t_coord(at(u))),
        ("subopt", lambda u: min(uf_deg.subopt_coord(at(u)), uf_straight.subopt_coord(at(u)))),
    )
    u_stop, stop_kind = _first_event(u0, du * direction, guards)
    if abs(u_stop - u0) > _PIECE_EPS:
        pieces.append(ParabolaArcPiece(par, u0, u_stop, label))
    w_pt = par.point_at(u_stop)
    if stop_kind == "bounce":
        # Both orders now end on their unfolded corner vertices, so the tail
        # is the perpendicular bisector of the two corner images, clipped to
        # where those degenerate cases keep holding.
        mid = Point2(
            (uf_deg.corner_img.x + uf_straight.corner_img.x) / 2,
            (uf_deg.corner_img.y + uf_straight.corner_img.y) / 2,
        )
        axis = (uf_straight.corner_img - uf_deg.corner_img).perp().unit()
        bis = Line.from_point_normal(mid, (uf_straight.corner_img - uf_deg.corner_img).unit())
        d = axis if axis.dot(w_pt - v) > 0 else -axis
        z = _ray_exit(t, w_pt, d)
        if z is not None and w_pt.dist(z) > _PIECE_EPS:
            span = w_pt.dist(z)

            def seg_at(s: float) -> Point2:
                return Point2(w_pt.x + s * (z.x - w_pt.x), w_pt.y + s * (z.y - w_pt.y))

            line_guards = (
                ("deg", lambda s: -uf_deg.t_coord(seg_at(s))),
                ("deg2", lambda s: -uf_straight.t_coord(seg_at(s))),
                ("subopt", lambda s: min(uf_deg.subopt_coord(seg_at(s)),
                                         uf_straight.subopt_coord(seg_at(s)))),
            )
            s_stop, _ = _first_event(0.0, 1.0 / 64.0, line_guards, stop_at=1.0)
            z_clip = seg_at(s_stop)
            if w_pt.dist(z_clip) > _PIECE_EPS:
                pieces.append(LinePiece(bis, w_pt, z_clip, label))
    return SeparatorChain(tuple(pieces), label)


def _first_event(
    u0: float,
    du: float,
    guards: tuple[tuple[str, Callable[[float], float]], ...],
    stop_at: float | None = None,
) -> tuple[float, str]:
    """First zero crossing of any guard when marching from ``u0`` by ``du``.

    Guards are positive while their case holds; the first one reported at
    ``u0`` itself short-circuits (the piece is empty there).
    """
    u_prev = u0
    prev = [g(u0) for _, g in guards]
    for (name, _), val in zip(guards, prev):
        if val <= abs(du) * 1e-6:
            return u0, name
    for _ in range(4096):
        u = u_prev + du
        if stop_at is not None and (du > 0) == (u > stop_at):
            return stop_at, "end"
        vals = [g(u) for _, g in guards]
        hits = [
            (_bisect(g, u_prev, u), name)
            for (name, g), v_prev, v in zip(guards, prev, vals)
            if v_prev > 0 >= v
        ]
        if hits:
            # earliest crossing along the march direction wins
            return min(hits, key=lambda h: h[0] * math.copysign(1.0, du))
        u_prev, prev = u, vals
    return u_prev, "end"


def _bisect(g: Callable[[float], float], lo: float, hi: float, iters: int = 80) -> float:
    glo = g(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        gm = g(mid)
        if (glo > 0) == (gm > 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return (lo + hi) / 2


def _ray_exit(t: Triangle, origin: Point2, d: Point2) -> Point2 | None:
    best = None
    for u, v in ((t.a, t.b), (t.b, t.c), (t.c, t.a)):
        e = v - u
        denom = d.cross(e)
        if abs(denom) <= 1e-14:
            continue
        s = (u - origin).cross(e) / denom
        r = (u - origin).cross(d) / denom
        if s > 1e-9 and -1e-9 <= r <= 1.0 + 1e-9:
            if best is None or s < best:
                best = s
    if best is None:
        return None
    return origin + best * d


# ---------------------------------------------------------------------------
# raster maps


@dataclass(frozen=True)
class RegionCell:
    i: int
    j: int
    point: Point2
    labels: tuple[str, ...]

    @property
    def tie(self) -> bool:
        return len(self.labels) > 1

    @property
    def label(self) -> str:
        return "+".join(self.labels)


@dataclass(frozen=True)
class RegionMap:
    triangle: Triangle
    n: int
    mode: str
    cells: tuple[RegionCell, ...]

    @property
    def tie_cells(self) -> tuple[RegionCell, ...]:
        return tuple(c for c in self.cells if c.tie)

    @property
    def pitch(self) -> float:
        """Approximate spacing between neighbouring raster points."""
        t = self.triangle
        return max(t.a.dist(t.b), t.b.dist(t.c), t.c.dist(t.a)) / (self.n - 1)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j", "x", "y", "label"])
            for c in self.cells:
                writer.writerow([c.i, c.j, _fmt(c.point.x), _fmt(c.point.y), c.label])

    def to_svg(self, path, chains: Sequence[SeparatorChain] = ()) -> None:
        write_region_svg(path, self, chains)


_MODES = ("r1", "r2", "r3")


def raster_region_map(t: Triangle, n: int = 256, mode: str = "r1") -> RegionMap:
    """Label every barycentric lattice point by its optimal strategy.

    Modes: ``r1`` by optimal visit order(s), ``r2`` by determining partition
    (lone edge plus which robot's cost dominates), ``r3`` by farthest edge.
    """
    if n < 16:
        raise ValueError("raster needs n >= 16")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    kernel = TriangleKernel(t)
    tol = kernel.tol

    a = np.asarray(t.a, float)
    b = np.asarray(t.b, float)
    c = np.asarray(t.c, float)
    idx = [(i, j) for i in range(n) for j in range(n - i)]
    ii = np.array([i for i, _ in idx], float)
    jj = np.array([j for _, j in idx], float)
    wa, wb = ii / (n - 1), jj / (n - 1)
    pts = wa[:, None] * a + wb[:, None] * b + (1.0 - wa - wb)[:, None] * c

    if mode == "r3":
        costs = kernel.r3_all(pts)
        names = [e.value for e in EdgeId]
        labels = _argmax_labels(costs, names, tol)
    elif mode == "r1":
        costs = kernel.r1_all(pts)
        names = [o.value for o in VisitOrder]
        labels = _argmax_labels(-costs, names, tol)
    else:
        singles, pairs, totals = kernel.r2_partitions(pts)
        labels = _r2_labels(singles, pairs, totals, tol)

    cells = tuple(
        RegionCell(int(i), int(j), Point2(float(p[0]), float(p[1])), lab)
        for (i, j), p, lab in zip(idx, pts, labels)
    )
    return RegionMap(t, n, mode, cells)


def _argmax_labels(scores: np.ndarray, names: list[str], tol: float) -> list[tuple[str, ...]]:
    best = scores.max(axis=0)
    keep = scores >= best[None, :] - tol
    return [
        tuple(names[k] for k in range(len(names)) if keep[k, col])
        for col in range(scores.shape[1])
    ]


def _r2_labels(
    singles: np.ndarray, pairs: np.ndarray, totals: np.ndarray, tol: float
) -> list[tuple[str, ...]]:
    names = [e.value for e in EdgeId]
    best = totals.min(axis=0)
    out: list[tuple[str, ...]] = []
    for col in range(totals.shape[1]):
        labels = []
        for k, name in enumerate(names):
            if totals[k, col] > best[col] + tol:
                continue
            gap = singles[k, col] - pairs[k, col]
            if abs(gap) <= tol:
                side = "both"
            else:
                side = "one" if gap > 0 else "two"
            labels.append(f"{name}/{side}")
        out.append(tuple(labels))
    return out


def _fmt(x: float) -> str:
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# SVG emission

_LABEL_COLORS = {
    "LRD": "#4c72b0",
    "LDR": "#dd8452",
    "RLD": "#55a868",
    "RDL": "#c44e52",
    "DLR": "#8172b3",
    "DRL": "#937860",
    "L": "#4c72b0",
    "D": "#55a868",
    "R": "#dd8452",
    "L/one": "#6f94c9",
    "L/two": "#31508c",
    "D/one": "#7cc290",
    "D/two": "#37784b",
    "R/one": "#e5a478",
    "R/two": "#a85f22",
}
_FALLBACK = ("#64b5cd", "#8c8c8c", "#ccb974", "#da8bc3", "#4878d0", "#d65f5f")
_TIE_COLOR = "#bbbbbb"


def _color_for(label: str, palette: dict[str, str]) -> str:
    if label in palette:
        return palette[label]
    color = _FALLBACK[len(palette) % len(_FALLBACK)]
    palette[label] = color
    return color


def write_region_svg(path, region_map: RegionMap, chains: Sequence[SeparatorChain] = ()) -> None:
    """Raster strips colored by label plus stroked separator chains."""
    t = region_map.triangle
    xs = [v.x for v in t.vertices]
    ys = [v.y for v in t.vertices]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    pad = 0.03 * span
    x0, y0 = min(xs) - pad, min(ys) - pad
    scale = 1000.0 / (span + 2 * pad)

    def sx(p: Point2) -> float:
        return (p.x - x0) * scale

    def sy(p: Point2) -> float:
        return 1000.0 - (p.y - y0) * scale

    palette = dict(_LABEL_COLORS)
    stroke_w = max(1.0, region_map.pitch * scale * 1.05)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">',
        '<rect width="1000" height="1000" fill="#ffffff"/>',
    ]
    # Merge equal-label runs along each lattice row into one stroked strip.
    by_row: dict[int, list[RegionCell]] = {}
    for cell in region_map.cells:
        by_row.setdefault(cell.i, []).append(cell)
    for i in sorted(by_row):
        row = sorted(by_row[i], key=lambda c: c.j)
        start = 0
        while start < len(row):
            stop = start
            while stop + 1 < len(row) and row[stop + 1].label == row[start].label:
                stop += 1
            cells = row[start : stop + 1]
            color = _TIE_COLOR if cells[0].tie else _color_for(cells[0].labels[0], palette)
            p, q = cells[0].point, cells[-1].point
            parts.append(
                f'<line x1="{sx(p):.2f}" y1="{sy(p):.2f}" x2="{sx(q):.2f}" y2="{sy(q):.2f}" '
                f'stroke="{color}" stroke-width="{stroke_w:.2f}" stroke-linecap="round"/>'
            )
            start = stop + 1
    # Triangle outline.
    outline = " ".join(f"{sx(v):.2f},{sy(v):.2f}" for v in t.vertices)
    parts.append(f'<polygon points="{outline}" fill="none" stroke="#222222" stroke-width="2"/>')
    # Separator chains.
    for chain in chains:
        for piece in chain.pieces:
            pts = [piece.point_at(s / 32.0) for s in range(33)]
            d = "M " + " L ".join(f"{sx(p):.2f} {sy(p):.2f}" for p in pts)
            parts.append(f'<path d="{d}" fill="none" stroke="#111111" stroke-width="3"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
