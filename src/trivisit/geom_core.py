"""Planar primitives for triangle edge visitation.

Plain double-precision geometry: points, normalized implicit lines, segments,
orientation-preserving similarities, non-obtuse triangles with their named
edges and edge visit orders, and parabolas.  Triangles are validated on
construction and normalized to counter-clockwise vertex order; everything
downstream relies on both.  Numerical work is done on standard forms, whose
sides the area gate keeps above 2 * AREA_EPS base lengths, so the primitives
reject only an exactly zero length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple

AREA_EPS = 1e-12             # relative to the longest side squared
ANGLE_SLACK = 1e-12          # right angles from float inputs must pass the gate
ANGLE_SUM_TOL = 1e-9
CONTAINS_TOL = 1e-9
# Further slack, in ulps of M, the largest coordinate magnitude, of
# ``Triangle.contains`` (M over the vertices and the point) and, per unit of
# the shortest side, of the obtuse gate (M over the vertices).  A point
# computed on an edge is off it by rounding of coordinates of size M: over
# 3.9 million points at fractions 0 to 1 along the edges of posed triangles
# (angles down to 1e-6 deg, scale 1e-3..1e3, up to 1e4 scales from the
# origin) the 26,833 that CONTAINS_TOL alone rejected lay at most 1.4 ulps
# of M outside.  Rounding a vertex by an ulp of M turns the angles at the
# shortest side by up to ulp(M)/shortest: over 144,000 posed right triangles
# (the thin angle 1e-6 to 45 deg, scale 1e-9..1e9, up to 1e4 scales from
# the origin) the largest angle exceeded pi/2 by at most 4.9 ulp(M)/shortest,
# and over the tests' pose sampler by 1.15.  A 90.001 deg angle is still
# rejected unless M is above 1e10 shortest sides.
CONTAINS_ULPS = 8


class GeometryError(ValueError):
    """Invalid geometric input."""


class DegenerateTriangleError(GeometryError):
    pass


class ObtuseTriangleError(GeometryError):
    pass


class OutsideTriangleError(GeometryError):
    pass


class Point2(NamedTuple):
    x: float
    y: float

    def __add__(self, other: "Point2") -> "Point2":  # type: ignore[override]
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Point2":  # type: ignore[override]
        return Point2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __neg__(self) -> "Point2":
        return Point2(-self.x, -self.y)

    def dot(self, other: "Point2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def unit(self) -> "Point2":
        n = self.norm()
        if n == 0.0:
            raise GeometryError("cannot normalize a zero vector")
        return Point2(self.x / n, self.y / n)

    def perp(self) -> "Point2":
        """Counter-clockwise quarter turn."""
        return Point2(-self.y, self.x)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


def as_point(p) -> Point2:
    # Always coerce: numpy scalars inside a Point2 would broadcast tuple
    # arithmetic into arrays.
    return Point2(float(p[0]), float(p[1]))


class VertexId(str, Enum):
    A = "A"
    B = "B"
    C = "C"


@dataclass(frozen=True)
class Line:
    """Implicit line a*x + b*y + c = 0 with a**2 + b**2 = 1.

    With the normalization, ``signed_dist`` is a true signed distance.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        n = math.hypot(self.a, self.b)
        if abs(n - 1.0) > 1e-12:
            if n == 0.0:
                raise GeometryError("degenerate line")
            object.__setattr__(self, "a", self.a / n)
            object.__setattr__(self, "b", self.b / n)
            object.__setattr__(self, "c", self.c / n)

    @classmethod
    def from_points(cls, p: Point2, q: Point2) -> "Line":
        return cls(*line_through(*p, *q)[:3])

    def signed_dist(self, p: Point2) -> float:
        return self.a * p.x + self.b * p.y + self.c

    def intersect(self, other: "Line") -> Point2 | None:
        det = self.a * other.b - self.b * other.a
        if abs(det) <= 1e-14:
            return None
        x = (self.b * other.c - self.c * other.b) / det
        y = (self.c * other.a - self.a * other.c) / det
        return Point2(x, y)


class FloatOps:
    """What ``line_through`` and ``_kernels.triangle_row`` apply beyond
    + - * /, on plain floats: ``hypot`` and ``copysign`` from ``math``,
    ``any``, whether a comparison holds, and ``where``, the value that it
    picks.  ``_kernels`` gives the same four on (T,) float64 columns, so one
    formula serves both.  The class itself is the namespace: its attributes
    are read as fast as ``math``'s."""

    hypot = math.hypot
    copysign = math.copysign
    any = bool

    def where(cond, x, y):
        return x if cond else y


def line_through(px, py, qx, qy, ops=FloatOps) -> tuple:
    """(a, b, c, length) of ``Line.from_points`` of the two points, and their
    distance: plain floats with ``FloatOps``, or (T,) columns from coordinate
    columns with the kernel's column operations."""
    dx, dy = qx - px, qy - py
    n = ops.hypot(dx, dy)
    if ops.any(n == 0.0):
        raise GeometryError("line through coincident points")
    a, b = -dy / n, dx / n
    c = -(a * px + b * py)
    m = ops.hypot(a, b)
    off = abs(m - 1.0) > 1e-12
    if ops.any(off):
        a, b, c = ops.where(off, a / m, a), ops.where(off, b / m, b), ops.where(off, c / m, c)
    return a, b, c, n


@dataclass(frozen=True)
class Segment:
    p0: Point2
    p1: Point2

    def __post_init__(self):
        if self.p0 == self.p1:
            raise GeometryError("degenerate segment")

    @property
    def length(self) -> float:
        return self.p0.dist(self.p1)

    @property
    def direction(self) -> Point2:
        return (self.p1 - self.p0).unit()

    def point_at(self, t: float) -> Point2:
        return Point2(
            self.p0.x + t * (self.p1.x - self.p0.x),
            self.p0.y + t * (self.p1.y - self.p0.y),
        )

    def line(self) -> Line:
        return Line.from_points(self.p0, self.p1)


@dataclass(frozen=True)
class Similarity:
    """Orientation-preserving map x -> scale * R(rotation) * x + translation."""

    rotation: float
    scale: float
    translation: Point2

    def __post_init__(self):
        if not self.scale > 0:
            raise GeometryError("similarity scale must be positive")
        object.__setattr__(self, "_turn", (math.cos(self.rotation), math.sin(self.rotation)))

    def apply(self, p) -> Point2:
        """The image of ``p``, any (x, y) pair."""
        (x, y), (c, s), k, (tx, ty) = p, self._turn, self.scale, self.translation
        return Point2(k * (c * x - s * y) + tx, k * (s * x + c * y) + ty)

    def inverse(self) -> "Similarity":
        c, s = math.cos(-self.rotation), math.sin(-self.rotation)
        k = 1.0 / self.scale
        tx = -k * (c * self.translation.x - s * self.translation.y)
        ty = -k * (s * self.translation.x + c * self.translation.y)
        return Similarity(-self.rotation, k, Point2(tx, ty))


_VERTEX_ATTR = {VertexId.A: "a", VertexId.B: "b", VertexId.C: "c"}


class Triangle:
    """Non-obtuse triangle; vertex order normalized to counter-clockwise."""

    def __init__(self, a, b, c):
        # Plain floats, in the operations of ``Point2`` arithmetic.
        a, b, c = as_point(a), as_point(b), as_point(c)
        if not (a.is_finite() and b.is_finite() and c.is_finite()):
            raise GeometryError("non-finite vertex coordinates")
        (ax, ay), (bx, by), (cx, cy) = a, b, c
        abx, aby, acx, acy, bcx, bcy = bx - ax, by - ay, cx - ax, cy - ay, cx - bx, cy - by
        # The gates square differences scaled by 2^-k, which is exact for
        # normal numbers (Blue 1978), so they decide alike at every scale.
        k = max(math.frexp(max(abs(abx), abs(aby), abs(acx), abs(acy), abs(bcx), abs(bcy)))[1], -1021)
        self._prescale = f = math.ldexp(1.0, -k)
        abx, aby, acx, acy, bcx, bcy = abx * f, aby * f, acx * f, acy * f, bcx * f, bcy * f
        area2 = abx * acy - aby * acx
        sides2 = (abx * abx + aby * aby, bcx * bcx + bcy * bcy, acx * acx + acy * acy)
        if abs(area2) / 2 <= AREA_EPS * max(sides2):
            raise DegenerateTriangleError(f"triangle area {abs(area2) / 2 / f / f:g} below threshold")
        if area2 < 0:
            b, c, abx, aby, acx, acy, bcx, bcy = c, b, acx, acy, abx, aby, -bcx, -bcy
        self.a, self.b, self.c = a, b, c
        self.angle_a = _corner_angle(abx, aby, acx, acy)
        self.angle_b = _corner_angle(bcx, bcy, -abx, -aby)
        self.angle_c = _corner_angle(-acx, -acy, -bcx, -bcy)
        m = max(abs(ax), abs(ay), abs(bx), abs(by), abs(cx), abs(cy))
        # The turn of an angle at the shortest side that rounding by an ulp of M causes.
        self._ulp_turn = math.ulp(m) * f / math.sqrt(min(sides2))
        if max(self.angle_a, self.angle_b, self.angle_c) > math.pi / 2 + max(ANGLE_SLACK, CONTAINS_ULPS * self._ulp_turn):
            raise ObtuseTriangleError(
                "obtuse triangle: angles (deg) = "
                f"{math.degrees(self.angle_a):.6f}, {math.degrees(self.angle_b):.6f}, "
                f"{math.degrees(self.angle_c):.6f}"
            )
        if abs(self.angle_a + self.angle_b + self.angle_c - math.pi) > ANGLE_SUM_TOL:
            raise GeometryError("angle sum differs from pi beyond tolerance")

    def __repr__(self):
        return f"Triangle({tuple(self.a)}, {tuple(self.b)}, {tuple(self.c)})"

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2]:
        return (self.a, self.b, self.c)

    def vertex(self, v: VertexId) -> Point2:
        return getattr(self, _VERTEX_ATTR[v])

    def angle(self, v: VertexId) -> float:
        return {VertexId.A: self.angle_a, VertexId.B: self.angle_b, VertexId.C: self.angle_c}[v]

    @property
    def base_length(self) -> float:
        """Length of edge BC (the unit edge in standard form)."""
        return self.b.dist(self.c)

    def contains(self, p: Point2) -> bool:
        """Membership with an absolute slack of ``CONTAINS_TOL`` in standard-form
        scale, or of ``CONTAINS_ULPS`` ulps of the largest coordinate
        magnitude if that is larger.  A non-finite point lies outside."""
        px, py = as_point(p)
        if not (math.isfinite(px) and math.isfinite(py)):
            return False
        (ax, ay), (bx, by), (cx, cy), f = self.a, self.b, self.c, self._prescale
        m = max(abs(ax), abs(ay), abs(bx), abs(by), abs(cx), abs(cy), abs(px), abs(py))
        slack = max(CONTAINS_TOL * self.base_length, CONTAINS_ULPS * math.ulp(m)) * f
        for ux, uy, vx, vy in ((ax, ay, bx, by), (bx, by, cx, cy), (cx, cy, ax, ay)):
            dx, dy = (vx - ux) * f, (vy - uy) * f
            # Scaled as the gates are; a point too far off to scale is outside.
            if not dx * ((py - uy) * f) - dy * ((px - ux) * f) >= -slack * math.hypot(dx, dy):
                return False
        return True

    def require_inside(self, p: Point2) -> Point2:
        p = as_point(p)
        if not self.contains(p):
            raise OutsideTriangleError(f"point {tuple(p)} lies outside the triangle")
        return p

    @cached_property
    def _standard(self) -> tuple["Triangle", Similarity]:
        d = self.c - self.b
        theta = -math.atan2(d.y, d.x)
        scale = 1.0 / d.norm()
        rot = Similarity(theta, scale, Point2(0.0, 0.0))
        shift = rot.apply(self.b)
        sim = Similarity(theta, scale, Point2(-shift.x, -shift.y))
        a_std = sim.apply(self.a)
        # Rounding can leave a pose, and its image, obtuse by more than the
        # kernel's unfoldings bear (on thin right triangles they find paths as
        # short as the short side).  The gate let the pose through, so it is no
        # more obtuse than moving a vertex by CONTAINS_ULPS ulps of M makes it:
        # the apex moves out of the circle on BC and into the strip over BC.
        x, y = a_std.x, abs(a_std.y)
        angles = (math.atan2(y, x), math.atan2(y, 1.0 - x), math.atan2(y, y * y - x * (1.0 - x)))
        if max(angles) > math.pi / 2 + ANGLE_SLACK:
            d = math.hypot(x - 0.5, y)
            if d < 0.5:
                x, y = 0.5 + (x - 0.5) * (0.5 / d), y * (0.5 / d)
            x = min(max(x, 0.0), 1.0)
        std = Triangle(Point2(x, y), Point2(0.0, 0.0), Point2(1.0, 0.0))
        return std, sim

    def standard(self) -> tuple["Triangle", Similarity]:
        """Standard analytic form: B=(0,0), C=(1,0), A=(p,q) with q>0."""
        return self._standard

    @cached_property
    def _edge_lines(self) -> dict["EdgeId", Line]:
        return {e: edge_segment(self, e).line() for e in EdgeId}

    def edge_line(self, e: "EdgeId") -> Line:
        return self._edge_lines[e]


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
    if e1 is e2:
        raise ValueError(f"edges {e1} and {e2} do not share exactly one vertex")
    return _SHARED_VERTEX[e1, e2]


_SHARED_VERTEX = {
    (e1, e2): (set(e1.endpoints) & set(e2.endpoints)).pop() for e1 in EdgeId for e2 in EdgeId if e1 is not e2
}


class VisitOrder(str, Enum):
    LRD = "LRD"
    LDR = "LDR"
    RLD = "RLD"
    RDL = "RDL"
    DLR = "DLR"
    DRL = "DRL"

    @property
    def edges(self) -> tuple[EdgeId, EdgeId, EdgeId]:
        return _ORDER_EDGES[self]


_ORDER_EDGES = {order: tuple(EdgeId(ch) for ch in order.value) for order in VisitOrder}


_ANGLE_TIE = 1e-12


def largest_angle_vertex(t: Triangle) -> VertexId:
    """Vertex of the largest angle; ties resolve by label priority A > B > C."""
    best = max(t.angle(v) for v in VertexId)
    for v in VertexId:
        if best - t.angle(v) <= _ANGLE_TIE:
            return v
    raise AssertionError("unreachable")


def altitude_midpoint(t: Triangle, v: VertexId) -> Point2:
    """Midpoint of the altitude dropped from ``v`` onto its opposite edge."""
    apex = t.vertex(v)
    foot = project(apex, t.edge_line(opposite_edge(v)))
    return Point2((apex.x + foot.x) / 2, (apex.y + foot.y) / 2)


def _corner_angle(ux: float, uy: float, wx: float, wy: float) -> float:
    """Angle between the sides (ux, uy) and (wx, wy) of a corner."""
    return math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)


def vertex_from_angles(ang_b: float, ang_c: float) -> Point2:
    """Apex A=(p,q) of the standard-form triangle with given base angles.

    p = cos(B) sin(C) / sin(B+C),  q = sin(B) sin(C) / sin(B+C).
    """
    if not (0.0 < ang_b <= math.pi / 2 + ANGLE_SLACK):
        raise GeometryError(f"angle B out of range: {ang_b!r}")
    if not (0.0 < ang_c <= math.pi / 2 + ANGLE_SLACK):
        raise GeometryError(f"angle C out of range: {ang_c!r}")
    s = ang_b + ang_c
    if s >= math.pi - ANGLE_SLACK:
        raise DegenerateTriangleError("apex angle collapses to zero")
    if s < math.pi / 2 - ANGLE_SLACK:
        raise ObtuseTriangleError("apex angle exceeds a right angle")
    return Point2(
        math.cos(ang_b) * math.sin(ang_c) / math.sin(s),
        math.sin(ang_b) * math.sin(ang_c) / math.sin(s),
    )


def triangle_from_angles(ang_b: float, ang_c: float) -> Triangle:
    """Standard-form triangle with the given angles at B and C."""
    return Triangle(vertex_from_angles(ang_b, ang_c), Point2(0.0, 0.0), Point2(1.0, 0.0))


def incenter(t: Triangle) -> Point2:
    """Point equidistant from all three edges."""
    std, sim = t.standard()
    p, q = std.a
    gamma = math.hypot(p, q)           # ||AB|| in standard form
    beta = math.hypot(p - 1.0, q)      # ||AC||
    i_std = Point2((gamma - beta + 1.0) / 2, q / (1.0 + beta + gamma))
    return sim.inverse().apply(i_std)


def reflect_xy(x: float, y: float, a: float, b: float, c: float) -> tuple[float, float]:
    """``reflect`` of the point (x, y) across the line (a, b, c), in plain floats."""
    d = a * x + b * y + c
    return x - 2 * d * a, y - 2 * d * b


def reflect(p: Point2, line: Line) -> Point2:
    return Point2(*reflect_xy(p.x, p.y, line.a, line.b, line.c))


def project(p: Point2, line: Line) -> Point2:
    d = line.signed_dist(p)
    return Point2(p.x - d * line.a, p.y - d * line.b)


def nearest_on_segment(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> tuple[float, float, float]:
    """(x, y, distance) of the point of segment (ax, ay)-(bx, by) nearest to
    (px, py).  Plain floats: no ``Segment`` and so no minimum length.  The
    projection's differences are scaled by 2^-k, as ``Triangle``'s gates
    scale theirs, so its squares neither underflow nor overflow."""
    dx, dy = bx - ax, by - ay
    f = math.ldexp(1.0, -max(math.frexp(max(abs(dx), abs(dy)))[1], -1021))
    sx, sy = dx * f, dy * f
    t = ((px - ax) * f * sx + (py - ay) * f * sy) / (sx * sx + sy * sy)
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = ax + t * dx, ay + t * dy
    return qx, qy, math.hypot(px - qx, py - qy)


def dist_point_segment(p: Point2, seg: Segment) -> float:
    return nearest_on_segment(p.x, p.y, *seg.p0, *seg.p1)[2]


def inward_gap(t: Triangle, p) -> float:
    """Smallest signed distance from ``p``, any (x, y) pair, to the edge
    lines of ``t``: positive inside, negative outside."""
    px, py = p
    gaps = []
    for (ux, uy), (vx, vy) in ((t.a, t.b), (t.b, t.c), (t.c, t.a)):
        dx, dy = vx - ux, vy - uy
        n = math.hypot(dx, dy)
        gaps.append(dx / n * (py - uy) - dy / n * (px - ux))
    return min(gaps)


def foot_of_bisector(t: Triangle, vertex: VertexId) -> Point2:
    """Intersection of the internal bisector at ``vertex`` with the opposite edge."""
    v = t.vertex(vertex)
    u1, u2 = (t.vertex(u) for u in opposite_edge(vertex).endpoints)
    w1, w2 = v.dist(u1), v.dist(u2)
    return u1 + (w1 / (w1 + w2)) * (u2 - u1)


def bisector_direction(t: Triangle, vertex: VertexId) -> Point2:
    """Unit direction of the internal angle bisector at ``vertex``."""
    v = t.vertex(vertex)
    u1, u2 = (t.vertex(u) for u in opposite_edge(vertex).endpoints)
    return ((u1 - v).unit() + (u2 - v).unit()).unit()


@dataclass(frozen=True)
class Parabola:
    """Locus of points equidistant from ``focus`` and ``directrix``."""

    focus: Point2
    directrix: Line

    def __post_init__(self):
        if self.directrix.signed_dist(self.focus) == 0.0:
            raise GeometryError("parabola focus lies on the directrix")

    @cached_property
    def _frame(self) -> tuple[Point2, Point2, Point2, float]:
        """(origin on directrix, ex along directrix, ey toward focus, focal
        dist), computed once: a locus march reads it at every step."""
        d = self.directrix.signed_dist(self.focus)
        origin = project(self.focus, self.directrix)
        ey = (self.focus - origin).unit()
        ex = Point2(ey.y, -ey.x)
        return origin, ex, ey, abs(d)

    def point_at(self, u: float) -> Point2:
        origin, ex, ey, f = self._frame
        return origin + u * ex + ((u * u + f * f) / (2 * f)) * ey

    def param_of(self, p: Point2) -> float:
        origin, ex, _, _ = self._frame
        return (p - origin).dot(ex)


def polyline_length(points: Iterable[Point2]) -> float:
    """Sum of the leg lengths, each as ``Point2.dist`` gives it; the points
    may be any (x, y) pairs."""
    pts = list(points)
    return sum(math.hypot(p[0] - q[0], p[1] - q[1]) for p, q in zip(pts, pts[1:]))
