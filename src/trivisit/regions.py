"""Separator curves and raster maps of optimal-strategy regions.

Region labels come from numeric cost comparison, never from a symbolic
arrangement: a cell is labeled by every strategy that the triangle's kernel
keeps within the tie tolerance of its best cost.  The constructed separator
chains (bisector segments, the two-robot mixed hexagon, the
left/right-first equal-cost locus) are cross-checks: sampled points on them
must tie the two strategies they separate.  They are built from ``geom_core``
pieces, the kernel's unfolding constants (``TriangleKernel.order_witness``)
and its indicator coordinates (``TriangleKernel.indicators``) alone.

Maps and chains are computed on the triangle's standard form, so that no
similarity changes them: a raster labels the standard form's lattice with
its kernel, and a chain builds and evaluates its pieces there.  Only the
points they hand out (cell points, piece ends, ``point_at`` and ``sample``)
are mapped to the triangle's pose, once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ._kernels import TriangleKernel, barycentric_grid
from .geom_core import (
    EdgeId,
    GeometryError,
    Line,
    Parabola,
    Point2,
    Segment,
    Similarity,
    Triangle,
    VertexId,
    VisitOrder,
    bisector_direction,
    edge_segment,
    foot_of_bisector,
    incenter,
    inward_gap,
    largest_angle_vertex,
    opposite_edge,
)

_PIECE_EPS = 1e-9           # pieces shorter than this many base lengths are dropped


# ---------------------------------------------------------------------------
# separator chains


@dataclass(frozen=True)
class SegmentPiece:
    seg: Segment            # in standard form
    label: str
    pose: Similarity        # from standard form to the triangle's pose

    @property
    def start(self) -> Point2:
        return self.pose.apply(self.seg.p0)

    @property
    def end(self) -> Point2:
        return self.pose.apply(self.seg.p1)

    def point_at(self, s: float) -> Point2:
        return self.pose.apply(self.seg.point_at(s))


@dataclass(frozen=True)
class ParabolaArcPiece:
    parabola: Parabola      # in standard form
    u0: float
    u1: float
    label: str
    pose: Similarity        # from standard form to the triangle's pose

    @property
    def start(self) -> Point2:
        return self.pose.apply(self.parabola.point_at(self.u0))

    @property
    def end(self) -> Point2:
        return self.pose.apply(self.parabola.point_at(self.u1))

    def point_at(self, s: float) -> Point2:
        return self.pose.apply(self.parabola.point_at(self.u0 + s * (self.u1 - self.u0)))


ChainPiece = SegmentPiece | ParabolaArcPiece


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
    """Bisector feet and incenter: the separators of the farthest-edge regions."""

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


def _turned(d: Point2, angle: float) -> Point2:
    """``d`` rotated counter-clockwise by ``angle``."""
    ca, sa = math.cos(angle), math.sin(angle)
    return Point2(ca * d.x - sa * d.y, sa * d.x + ca * d.y)


def _extreme_ray_toward(t: Triangle, edge: EdgeId, vertex: VertexId) -> Point2:
    """Extreme ray of the cone at the bisector foot on ``edge`` (angle = the
    opposite vertex's angle, axis the inward normal of ``edge``) tilted
    toward ``vertex``, one of the edge's endpoints."""
    half = t.angle(edge.opposite_vertex) / 2.0
    # Triangle vertices are counter-clockwise, so the inward normal of each
    # directed edge is the CCW perpendicular, and turning it counter-clockwise
    # tilts it toward the edge's first endpoint.
    d = edge_segment(t, edge).direction.perp()
    return _turned(d, half if edge.endpoints[0] is vertex else -half)


def bisector_separator_point(t: Triangle, vertex: VertexId) -> Point2:
    """Meeting point, on the vertex-to-incenter segment, of the extreme cone
    rays raised from the two adjacent bisector feet."""
    std, sim = t.standard()
    pose = sim.inverse()
    v = std.vertex(vertex)
    center = incenter(std)
    bis = Line.from_points(v, center)
    hits = []
    for edge in EdgeId:
        if vertex not in edge.endpoints:
            continue
        origin = foot_of_bisector(std, edge.opposite_vertex)
        ray = _extreme_ray_toward(std, edge, vertex)
        ray_line = Line.from_points(origin, origin + ray)
        hit = ray_line.intersect(bis)
        if hit is None:
            raise GeometryError("cone ray parallel to the vertex bisector")
        hits.append(hit)
    gap = hits[0].dist(hits[1])
    if gap > 1e-6:
        raise GeometryError(
            f"cone rays miss a common bisector point (gap {gap:g} base lengths); "
            "construction hypotheses violated"
        )
    f = Point2((hits[0].x + hits[1].x) / 2, (hits[0].y + hits[1].y) / 2)
    # F must lie between the vertex and the incenter.
    along = (f - v).dot(center - v) / (center - v).dot(center - v)
    if not (-1e-9 <= along <= 1.0 + 1e-6):
        raise GeometryError("separator point left the vertex-to-incenter segment")
    return pose.apply(f)


def _ray_parabola_point(par: Parabola, origin: Point2, direction: Point2) -> Point2:
    """Point of the focus-anchored ray on the parabola.

    Valid when the ray starts at the focus: along it, distance to the focus
    grows like s while distance to the directrix is affine in s.  A ray of
    ``r2_separator`` leaves its vertex V within V <= 90 deg of the inward
    altitude (the bisector lies within (180 deg - V)/2 of it, and the ray
    within the half-angle (3V - 180 deg)/2 of the bisector), so the distance
    to the directrix does not grow and the ray always meets the parabola.
    """
    d = direction.unit()
    e0 = abs(par.directrix.signed_dist(origin))
    slope = par.directrix.signed_dist(origin + d) - par.directrix.signed_dist(origin)
    sgn = math.copysign(1.0, par.directrix.signed_dist(origin))
    growth = sgn * slope
    s = e0 / (1.0 - growth)
    return origin + s * d


def r2_separator(t: Triangle) -> SeparatorChain:
    """Closed chain outside which the two-robot cost is the distance to the
    opposite edge: bisector feet and separator points, with parabola arcs
    replacing the portions inside each wide-angle bouncing subcone."""
    std, sim = t.standard()
    pose = sim.inverse()
    feet = {
        VertexId.A: foot_of_bisector(std, VertexId.A),   # on BC
        VertexId.B: foot_of_bisector(std, VertexId.B),   # on CA
        VertexId.C: foot_of_bisector(std, VertexId.C),   # on AB
    }
    # a standard form is its own, so these are std's points as they are
    seps = {v: bisector_separator_point(std, v) for v in VertexId}
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
        # Half-angle of the bouncing subcone at v, the starting points whose
        # optimal two-edge visit goes straight to v: 3V - pi about the
        # bisector, a ray at V = pi/3 and empty below.
        half = (3.0 * std.angle(v) - math.pi) / 2.0
        if half <= 1e-12:
            _append_segment(pieces, enter, seps[v], label, pose)
            _append_segment(pieces, seps[v], leave, label, pose)
            continue
        vx = std.vertex(v)
        opp_line = std.edge_line(opposite_edge(v))
        par = Parabola(vx, opp_line)
        bis = bisector_direction(std, v)
        xs = [_ray_parabola_point(par, vx, ray) for ray in (_turned(bis, half), _turned(bis, -half))]
        # Match each arc endpoint with the hexagon side it lies on.
        if _along(enter, seps[v], xs[0]) is None:
            xs.reverse()
        x_in, x_out = xs
        _append_segment(pieces, enter, x_in, label, pose)
        u0, u1 = par.param_of(x_in), par.param_of(x_out)
        if abs(u1 - u0) > _PIECE_EPS:
            pieces.append(ParabolaArcPiece(par, u0, u1, label, pose))
        _append_segment(pieces, x_out, leave, label, pose)
    return SeparatorChain(tuple(pieces), "two-robot separator")


def _append_segment(pieces: list[ChainPiece], p0: Point2, p1: Point2, label: str, pose: Similarity) -> None:
    if p0.dist(p1) > _PIECE_EPS:
        pieces.append(SegmentPiece(Segment(p0, p1), label, pose))


def _along(a: Point2, b: Point2, p: Point2) -> float | None:
    """Parameter of ``p`` along segment ab when it lies on it; else None."""
    d = b - a
    denom = d.dot(d)
    s = (p - a).dot(d) / denom
    if -1e-6 <= s <= 1.0 + 1e-6 and abs(d.cross(p - a)) <= 1e-6 * math.sqrt(denom):
        return s
    return None


# ---------------------------------------------------------------------------
# one-robot left-first / right-first locus


def _orders_for_apex(apex: VertexId) -> tuple[VisitOrder, VisitOrder]:
    # Edges run counter-clockwise, so the apex starts its left edge and ends
    # its right edge.
    e_left, e_right = (next(e for e in EdgeId if e.endpoints[k] is apex) for k in (0, 1))
    e_down = opposite_edge(apex)
    o1 = VisitOrder(e_left.value + e_right.value + e_down.value)
    o2 = VisitOrder(e_right.value + e_left.value + e_down.value)
    return o1, o2


def _indicators(
    kernel: TriangleKernel, order: VisitOrder
) -> tuple[Callable[[Point2], float], Callable[[Point2], float], Point2, Point2]:
    """(bounce, subopt, corner_img, far_img) of ``order``'s unfolding: a
    point's coordinates across the bounce and subopt lines, as the kernel's
    case rules read them (``TriangleKernel.indicators``), and the ends of the
    twice-unfolded last edge (``TriangleKernel.order_witness``)."""
    w = kernel.order_witness(order)
    return (
        lambda p: kernel.indicators(p.x, p.y, order)[0],
        lambda p: kernel.indicators(p.x, p.y, order)[1],
        Point2(*w[2]),
        Point2(*w[7]),
    )


def r1_lrd_rld_locus(t: Triangle, apex: VertexId | None = None) -> SeparatorChain:
    """Equal-cost locus of the two visit orders that keep the apex's
    opposite edge last: an altitude piece, then possibly a parabola arc once
    one order degenerates to a corner hit, and a straight tail once both do,
    which runs on until a case guard flips or the triangle is left (the
    equilateral locus ends at the base midpoint)."""
    std, sim = t.standard()
    pose = sim.inverse()
    if apex is None:
        apex = largest_angle_vertex(std)
    o1, o2 = _orders_for_apex(apex)
    label = f"{o1.value}={o2.value}"
    kernel = TriangleKernel(*std.a)
    v = std.vertex(apex)
    foot = Point2(*kernel.order_witness(o1)[5])  # alt_foot: both orders share the apex and the last edge
    altitude = Segment(v, foot)

    def bounce_cross(bounce) -> float | None:
        # parameter along the altitude where the bounce line is crossed
        t0 = bounce(v)
        t1 = bounce(foot)
        if abs(t0 - t1) <= 1e-12:
            return None
        s = t0 / (t0 - t1)
        return s if 1e-9 < s < 1.0 - 1e-9 else None

    ind1, ind2 = _indicators(kernel, o1), _indicators(kernel, o2)
    crossings = [(bounce_cross(ind[0]), ind, other) for ind, other in ((ind1, ind2), (ind2, ind1))]
    crossings = [c for c in crossings if c[0] is not None]
    if not crossings:
        return SeparatorChain((SegmentPiece(altitude, label, pose),), label)

    # The order whose bounce line the altitude crosses first degenerates to
    # a corner hit there; the other still bounces straight.
    s_u, (bounce_deg, subopt_deg, corner_deg, _), (bounce_st, subopt_st, corner_st, far_st) = min(
        crossings, key=lambda c: c[0]
    )
    u_pt = altitude.point_at(s_u)
    pieces: list[ChainPiece] = []
    _append_segment(pieces, v, u_pt, label, pose)

    third_line = Line.from_points(corner_st, far_st)
    if abs(third_line.signed_dist(corner_deg)) <= 1e-12:
        # Degenerate parabola (right apex): both unfolded lines coincide and
        # the locus continues straight down the altitude.
        _append_segment(pieces, u_pt, foot, label, pose)
        return SeparatorChain(tuple(pieces), label)
    par = Parabola(corner_deg, third_line)
    u0 = par.param_of(u_pt)

    # March along the parabola on the side where the first order stays
    # degenerate, until the second order degenerates too, any case guard
    # flips, or the triangle is left.
    du = altitude.length / 64.0
    probe = 1e-6 * altitude.length
    direction = (
        1.0
        if bounce_deg(par.point_at(u0 + probe)) < bounce_deg(par.point_at(u0 - probe))
        else -1.0
    )

    guards = (
        ("bounce", bounce_st),
        ("exit", lambda p: inward_gap(std, p)),
        ("restraight", lambda p: -bounce_deg(p)),
        ("subopt", lambda p: min(subopt_deg(p), subopt_st(p))),
    )
    u_stop, stop_kind = _first_event(u0, du * direction, par.point_at, guards)
    if abs(u_stop - u0) > _PIECE_EPS:
        pieces.append(ParabolaArcPiece(par, u0, u_stop, label, pose))
    w_pt = par.point_at(u_stop)
    if stop_kind == "bounce":
        # Both orders now end on their unfolded corner vertices, so the tail
        # is the perpendicular bisector of the two corner images, clipped to
        # where those degenerate cases keep holding.
        axis = (corner_st - corner_deg).perp().unit()
        d = axis if axis.dot(w_pt - v) > 0 else -axis
        z = _ray_exit(std, w_pt, d)
        if z is not None and w_pt.dist(z) > _PIECE_EPS:
            def seg_at(s: float) -> Point2:
                return Point2(w_pt.x + s * (z.x - w_pt.x), w_pt.y + s * (z.y - w_pt.y))

            line_guards = (
                ("deg", lambda p: -bounce_deg(p)),
                ("deg2", lambda p: -bounce_st(p)),
                ("subopt", lambda p: min(subopt_deg(p), subopt_st(p))),
            )
            s_stop, _ = _first_event(0.0, 1.0 / 64.0, seg_at, line_guards, stop_at=1.0)
            _append_segment(pieces, w_pt, seg_at(s_stop), label, pose)
    return SeparatorChain(tuple(pieces), label)


def _first_event(
    u0: float,
    du: float,
    point_at: Callable[[float], Point2],
    guards: tuple[tuple[str, Callable[[Point2], float]], ...],
    stop_at: float | None = None,
) -> tuple[float, str]:
    """First zero crossing of any guard when marching from ``u0`` by ``du``
    along ``point_at``, which each step evaluates once for all the guards.

    Guards are positive while their case holds.  One already negative
    beyond the slack at ``u0`` short-circuits (the piece is empty there); one
    that is about zero at ``u0`` is the case boundary the march starts on,
    as the bounce line at a bounce crossing, and does not stop it.
    """
    def values(u: float) -> list[float]:
        p = point_at(u)
        return [g(p) for _, g in guards]

    u_prev = u0
    prev = values(u0)
    for (name, _), val in zip(guards, prev):
        if val < -abs(du) * 1e-6:
            return u0, name
    for _ in range(4096):
        u = u_prev + du
        if stop_at is not None and (du > 0) == (u > stop_at):
            return stop_at, "end"
        vals = values(u)
        hits = [
            (_bisect(lambda x, g=g: g(point_at(x)), u_prev, u), name)
            for (name, g), v_prev, v in zip(guards, prev, vals)
            if v_prev > 0 >= v
        ]
        if hits:
            # earliest crossing along the march direction wins
            return min(hits, key=lambda h: h[0] * math.copysign(1.0, du))
        u_prev, prev = u, vals
    return u_prev, "end"


def _bisect(g: Callable[[float], float], lo: float, hi: float) -> float:
    glo = g(lo)
    for _ in range(80):
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


class RasterCells(Sequence[RegionCell]):
    """The cells of a raster map, held as arrays and built into
    ``RegionCell`` values only when read.

    ``i`` and ``j`` are the lattice indices (i-major, j ascending), ``xy`` the
    (N, 2) points, ``codes`` one integer label code per point and ``table``
    the label tuple of every code.
    """

    def __init__(self, i: np.ndarray, j: np.ndarray, xy: np.ndarray, codes: np.ndarray,
                 table: tuple[tuple[str, ...], ...]):
        self.i, self.j, self.xy, self.codes, self.table = i, j, xy, codes, table

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, k: int) -> RegionCell:
        k = range(len(self))[operator.index(k)]
        x, y = self.xy[k].tolist()
        return RegionCell(int(self.i[k]), int(self.j[k]), Point2(x, y), self.table[self.codes[k]])

    def __iter__(self) -> Iterator[RegionCell]:
        table = self.table
        for i, j, (x, y), code in zip(self.i.tolist(), self.j.tolist(), self.xy.tolist(), self.codes.tolist()):
            yield RegionCell(i, j, Point2(x, y), table[code])

    @property
    def tie(self) -> np.ndarray:
        """Per-cell mask: labelled by more than one strategy."""
        return np.array([len(labels) > 1 for labels in self.table])[self.codes]


@dataclass(frozen=True)
class RegionMap:
    """A labelled raster.  ``cells`` is the ``RasterCells`` array view:
    CSV and SVG emission read its arrays, and ``cells.tie`` marks the
    tied cells."""

    triangle: Triangle
    n: int
    mode: str
    cells: RasterCells

    @property
    def pitch(self) -> float:
        """Approximate spacing between neighbouring raster points."""
        t = self.triangle
        return max(t.a.dist(t.b), t.b.dist(t.c), t.c.dist(t.a)) / (self.n - 1)

    def to_csv(self, path) -> None:
        """Rows ``i,j,x,y,label`` with CRLF line ends, each coordinate
        written byte for byte as Python's ``%.17g`` writes it.

        Coordinates are converted exactly in integer arithmetic: with
        v = m·2^q (m < 2^53) and p = 16 - floor(log10 |v|), the 17
        significant digits are round-half-even(m·5^p·2^(q+p)), the correctly
        rounded conversion ``%.17g`` makes, and are laid out in fixed
        notation without trailing zeros.  Zeros, non-finite values and
        magnitudes outside [2^-13, 2^50) take ``%.17g`` itself, one at a
        time.  Rows are built and written ``_CSV_CHUNK`` at a time, and in
        each chunk a run of bit-equal neighbouring coordinates is converted
        once: in standard form, y is one value per lattice row.
        """
        c = self.cells
        # NUL-padded cells: the comma and CRLF ride on the index and label
        # tables, and compaction deletes the padding
        ints = _byte_table([b"%d," % k for k in range(self.n)])
        labels = _byte_table([("+".join(lab) + "\r\n").encode() for lab in c.table])
        with open(path, "wb") as fh:
            fh.write(b"i,j,x,y,label\r\n")
            for s in range(0, len(c), _CSV_CHUNK):
                part = slice(s, s + _CSV_CHUNK)
                x, y = _format_runs(c.xy[part, 0]), _format_runs(c.xy[part, 1])
                comma = np.full((len(x), 1), ord(","), dtype=np.uint8)
                rows = np.concatenate((ints[c.i[part]], ints[c.j[part]], x, comma, y, comma, labels[c.codes[part]]), axis=1)
                fh.write(rows.tobytes().translate(None, b"\0"))

    def to_svg(self, path, chains: Sequence[SeparatorChain] = ()) -> None:
        """Raster strips colored by label plus stroked separator chains."""
        t = self.triangle
        cells = self.cells
        xs = [v.x for v in t.vertices]
        ys = [v.y for v in t.vertices]
        span = max(max(xs) - min(xs), max(ys) - min(ys))
        pad = 0.03 * span
        x0, y0 = min(xs) - pad, min(ys) - pad
        scale = 1000.0 / (span + 2 * pad)

        def sx(x):
            return (x - x0) * scale

        def sy(y):
            return 1000.0 - (y - y0) * scale

        stroke_w = max(1.0, self.pitch * scale * 1.05)
        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">',
            '<rect width="1000" height="1000" fill="#ffffff"/>',
        ]
        # Merge equal-label runs along each lattice row into one stroked strip.
        # Distinct codes have distinct labels, so a run ends where the code or
        # the row changes.
        cut = np.flatnonzero((np.diff(cells.codes) != 0) | (np.diff(cells.i) != 0)) + 1
        first = np.concatenate(([0], cut))
        last = np.concatenate((cut, [len(cells)])) - 1
        head, tail = cells.xy[first], cells.xy[last]
        runs = zip(cells.codes[first].tolist(), sx(head[:, 0]).tolist(), sy(head[:, 1]).tolist(),
                   sx(tail[:, 0]).tolist(), sy(tail[:, 1]).tolist())
        for code, x1, y1, x2, y2 in runs:
            labels = cells.table[code]
            color = _TIE_COLOR if len(labels) > 1 else _LABEL_COLORS[labels[0]]
            parts.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="{color}" stroke-width="{stroke_w:.2f}" stroke-linecap="round"/>'
            )
        # Triangle outline.
        outline = " ".join(f"{sx(v.x):.2f},{sy(v.y):.2f}" for v in t.vertices)
        parts.append(f'<polygon points="{outline}" fill="none" stroke="#222222" stroke-width="2"/>')
        # Separator chains.
        for chain in chains:
            for piece in chain.pieces:
                pts = [piece.point_at(s / 32.0) for s in range(33)]
                d = "M " + " L ".join(f"{sx(p.x):.2f} {sy(p.y):.2f}" for p in pts)
                parts.append(f'<path d="{d}" fill="none" stroke="#111111" stroke-width="3"/>')
        parts.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(parts))


_MODES = ("r1", "r2", "r3")


def _label_table(names: tuple[str, ...], suffixes: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """Label tuple of every code.  Digit k of a code, in base
    ``len(suffixes)``, is 0 when ``names[k]`` is not optimal and otherwise
    picks the suffix of its label."""
    base = len(suffixes)
    return tuple(
        tuple(name + suffixes[code // base**k % base] for k, name in enumerate(names) if code // base**k % base)
        for code in range(base ** len(names))
    )


# r1 and r3 codes are bitmasks over the orders or edges; an r2 digit says
# whether the lone edge's partition is determined by one robot, two, or both.
_EDGE_NAMES = tuple(e.value for e in EdgeId)
_LABEL_TABLES = {
    "r1": _label_table(tuple(o.value for o in VisitOrder), ("", "")),
    "r2": _label_table(_EDGE_NAMES, ("", "/one", "/two", "/both")),
    "r3": _label_table(_EDGE_NAMES, ("", "")),
}


# Lattice points labelled per kernel pass, so that each pass's (6, block) or
# (9, block) costs and their temporaries stay in cache.  On the 512 map of
# the 50/70 triangle, raster_region_map took 25, 27 and 13 ms in r1, r2 and
# r3, against 47, 45 and 17 ms in one pass over the lattice, and 27-36 ms
# (r1, r2) with blocks of 2,048 or 32,768 points (medians of 14 interleaved
# rounds on a shared 2-core host).
_LABEL_BLOCK = 8192


def _label_codes(kernel: TriangleKernel, pts: np.ndarray, mode: str) -> np.ndarray:
    """Label code of each of ``pts``, indexing ``_LABEL_TABLES[mode]``."""
    if mode == "r1":
        costs = kernel.r1_all(pts)
        return (2 ** np.arange(6)) @ kernel.optimal_orders(costs, costs.min(axis=0))
    if mode == "r2":
        singles, pairs, costs = kernel.r2_partitions(pts)
        return (4 ** np.arange(3)) @ kernel.r2_sides(singles, pairs, costs, costs.min(axis=0))
    dists = kernel.r3_all(pts)
    return (2 ** np.arange(3)) @ kernel.farthest_edges(dists, dists.max(axis=0))


def raster_region_map(t: Triangle, n: int = 256, mode: str = "r1") -> RegionMap:
    """Label every barycentric lattice point by its optimal strategy.

    Modes: ``r1`` by optimal visit order(s), ``r2`` by determining partition
    (lone edge plus which robot's cost dominates), ``r3`` by farthest edge.
    ``n``, the lattice points per side, must be an integer of at least 16.
    """
    n = operator.index(n)
    if n < 16:
        raise ValueError("raster needs n >= 16")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    std, sim = t.standard()
    kernel = TriangleKernel(*std.a)
    pts = barycentric_grid(std, n)
    # the grid's lattice indices, in its i-major, j-ascending order
    i, j = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) <= n - 1)
    codes = np.empty(len(pts), dtype=np.int64)
    for s in range(0, len(pts), _LABEL_BLOCK):
        codes[s:s + _LABEL_BLOCK] = _label_codes(kernel, pts[s:s + _LABEL_BLOCK], mode)
    # mapped in place: new coordinate arrays put a raster run's peak RSS 1-4 MB up
    pts[:, 0], pts[:, 1] = sim.inverse().apply(Point2(pts[:, 0], pts[:, 1]))
    return RegionMap(t, n, mode, RasterCells(i, j, pts, codes, _LABEL_TABLES[mode]))


# ---------------------------------------------------------------------------
# SVG emission

# A colour for every label of ``_LABEL_TABLES``.  An r2 label is its lone
# edge's r3 colour: lighter for ``/one``, darker for ``/two`` and as it is
# for ``/both``.
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
    "L/both": "#4c72b0",
    "D/one": "#7cc290",
    "D/two": "#37784b",
    "D/both": "#55a868",
    "R/one": "#e5a478",
    "R/two": "#a85f22",
    "R/both": "#dd8452",
}
_TIE_COLOR = "#bbbbbb"


# ---------------------------------------------------------------------------
# CSV emission
#
# A CSV chunk is a NUL-padded uint8 row matrix, compacted by deleting the
# NULs.  Its transient arrays take about 0.5 KB per row (some twenty uint64
# columns and a 24-column intp layout index per coordinate, the row matrix
# and its bytes): a 512 map traces 8.2 MB at 16384 rows, against 27.5 MB for
# the object arrays, argument tuple and string of a one-pass ``%`` format.
# Half or twice the chunk was slower.
_CSV_CHUNK = 16384

_G17_WIDTH = 24             # len(b"%.17g" % -2.2250738585072014e-308): every double fits
# |v| in [2^-13, 2^50) prints in fixed notation (1e-4 <= |v| < 1e17), and
# its scaling shift stays within the 1..52 that ``_round_scaled`` admits
_G17_FAST = (2.0 ** -13, 2.0 ** 50)
_POW5 = np.array([5 ** p for p in range(22)], dtype=np.uint64)


def _byte_table(items: Sequence[bytes]) -> np.ndarray:
    """(len, width) uint8 rows of ``items``, NUL-padded to the longest."""
    table = np.array(items, dtype=np.bytes_)
    return table.view(np.uint8).reshape(len(items), table.itemsize)


def _four_digit_words() -> np.ndarray:
    """``b"%04d" % g`` for g < 10000, each as one uint32 word."""
    pairs = _byte_table([b"%02d" % g for g in range(100)])
    words = np.empty((100, 100, 4), dtype=np.uint8)
    words[:, :, :2] = pairs[:, None]
    words[:, :, 2:] = pairs[None, :]
    return words.view(np.uint32).ravel()


def _g17_layouts() -> np.ndarray:
    """Byte positions of every fixed-notation ``%.17g`` string, one row per
    (sign, decimal exponent k in -4..15, fraction digits shown nf in 0..20),
    into a source row of 3 NULs, the 17 digits, '.', '0', '-' and a NUL.
    Each row is a prefix of the string with every fraction digit, NUL-padded;
    with no fraction digit shown the point goes too."""
    digit, dot, zero, minus, nul = 3, 20, 21, 22, 23
    full = np.full((2, 20, _G17_WIDTH), nul, dtype=np.uint8)
    for k in range(-4, 16):
        if k >= 0:
            lay = [digit + d for d in range(k + 1)] + [dot] + [digit + d for d in range(k + 1, 17)]
        else:
            lay = [zero, dot] + [zero] * (-k - 1) + [digit + d for d in range(17)]
        full[0, k + 4, :len(lay)] = lay
        full[1, k + 4, :len(lay) + 1] = [minus] + lay
    neg, k, nf = np.arange(2)[:, None, None], np.arange(-4, 16)[:, None], np.arange(21)
    shown = neg + np.where(k < 0, 2 + nf, np.where(nf == 0, k + 1, k + 2 + nf))
    return np.where(np.arange(_G17_WIDTH) < shown[..., None], full[:, :, None, :], np.uint8(nul)).reshape(-1, _G17_WIDTH)


_G17_LAYOUTS = _g17_layouts()
# Digit sources as uint32 words, so that one store places four digits.
_TOP_DIGIT = np.frombuffer(b"".join(b"\0\0\0%d" % d for d in range(10)), dtype=np.uint32)
_FOUR_DIGITS = _four_digit_words()
_SOURCE_TAIL = np.frombuffer(b".0-\0", dtype=np.uint32)[0]


def _round_scaled(m: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """round-half-even(m·5^p·2^(q+p)) for uint64 m < 2^53, 0 <= p <= 21 and
    1 <= -(q+p) <= 52.  m·5^p < 2^100 is held as hi·2^52 + lo, built from
    26-bit limbs.  Every operand is uint64: NumPy 1.x takes uint64 with
    int64 to float64."""
    u = np.uint64
    mask26 = u(2 ** 26 - 1)
    f = _POW5[p]
    m0, m1, f0, f1 = m & mask26, m >> u(26), f & mask26, f >> u(26)
    mid = m1 * f0 + m0 * f1
    lo = m0 * f0 + ((mid & mask26) << u(26))
    hi = m1 * f1 + (mid >> u(26)) + (lo >> u(52))
    lo &= u(2 ** 52 - 1)
    s = (-(q + p)).astype(np.uint64)
    d = (hi << (u(52) - s)) | (lo >> s)
    rem, half = lo & ((u(1) << s) - u(1)), u(1) << (s - u(1))
    d += (rem > half) | ((rem == half) & (d & u(1)).astype(bool))
    return d


def _format_g17(v: np.ndarray) -> np.ndarray:
    """(len(v), 24) uint8 rows, each ``b"%.17g" % v[k]`` padded with NULs."""
    a = np.abs(v)
    fast = (a >= _G17_FAST[0]) & (a < _G17_FAST[1])
    # the other lanes get a dummy 1.0, so log10 and frexp warn about nothing
    a = np.where(fast, a, 1.0)
    frac, e = np.frexp(a)
    m = (frac * 2.0 ** 53).astype(np.uint64)
    q = e.astype(np.int64) - 53
    p = 16 - np.floor(np.log10(a)).astype(np.int64)
    d = _round_scaled(m, q, p)
    # log10 may miss the exponent by one near a power of ten, and rounding
    # may carry to 10^17; one more pass at the neighbouring p settles both.
    off = (d < np.uint64(10 ** 16)).astype(np.int64) - (d >= np.uint64(10 ** 17))
    redo = np.flatnonzero(off)
    if len(redo):
        p[redo] += off[redo]
        d[redo] = _round_scaled(m[redo], q[redo], p[redo])
    top = d // np.uint64(10 ** 16)
    rest = d - top * np.uint64(10 ** 16)
    hi8 = (rest // np.uint64(10 ** 8)).astype(np.uint32)
    lo8 = (rest - hi8.astype(np.uint64) * np.uint64(10 ** 8)).astype(np.uint32)
    src = np.empty((len(v), 6), dtype=np.uint32)
    src[:, 0] = _TOP_DIGIT[top]
    src[:, 1] = _FOUR_DIGITS[hi8 // 10000]
    src[:, 2] = _FOUR_DIGITS[hi8 % 10000]
    src[:, 3] = _FOUR_DIGITS[lo8 // 10000]
    src[:, 4] = _FOUR_DIGITS[lo8 % 10000]
    src[:, 5] = _SOURCE_TAIL
    src = src.view(np.uint8)
    k = 16 - p
    trailing_zeros = np.argmax(src[:, 19:2:-1] != ord("0"), axis=1)
    nf = np.maximum(16 - k - trailing_zeros, 0)
    at = _G17_LAYOUTS[(np.signbit(v) * 20 + k + 4) * 21 + nf] + np.arange(0, src.size, _G17_WIDTH)[:, None]
    out = src.ravel().take(at)
    slow = np.flatnonzero(~fast)
    if len(slow):
        formatted = np.array([b"%.17g" % x for x in v[slow].tolist()], dtype=f"S{_G17_WIDTH}")
        out[slow] = formatted.view(np.uint8).reshape(len(slow), _G17_WIDTH)
    return out


def _format_runs(v: np.ndarray) -> np.ndarray:
    """``_format_g17(v)``, with each run of bit-equal neighbours in ``v``
    formatted once.  Comparing bits keeps 0.0 and -0.0 apart and NaN with
    NaN.  Where no neighbours repeat, as on most posed maps, nothing is
    gathered."""
    bits = v.view(np.int64)
    new = np.ones(len(v), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    if new.all():
        return _format_g17(v)
    # ``take`` gathers the rows about 3x faster than fancy indexing
    return _format_g17(v[new]).take(np.cumsum(new) - 1, axis=0)
