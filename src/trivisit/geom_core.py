"""Planar primitives for triangle edge visitation.

Plain double-precision geometry: points, normalized implicit lines, segments,
orientation-preserving similarities, non-obtuse triangles, cones and
parabolas.  Triangles are validated on construction and normalized to
counter-clockwise vertex order; everything downstream relies on both.
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
SEGMENT_EPS = 1e-12
CONTAINS_TOL = 1e-9


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
        if n <= SEGMENT_EPS:
            raise GeometryError("cannot normalize a near-zero vector")
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
            if n <= SEGMENT_EPS:
                raise GeometryError("degenerate line")
            object.__setattr__(self, "a", self.a / n)
            object.__setattr__(self, "b", self.b / n)
            object.__setattr__(self, "c", self.c / n)

    @classmethod
    def from_points(cls, p: Point2, q: Point2) -> "Line":
        d = q - p
        n = d.norm()
        if n <= SEGMENT_EPS:
            raise GeometryError("line through coincident points")
        a, b = -d.y / n, d.x / n
        return cls(a, b, -(a * p.x + b * p.y))

    @classmethod
    def from_point_normal(cls, p: Point2, normal: Point2) -> "Line":
        n = normal.unit()
        return cls(n.x, n.y, -(n.x * p.x + n.y * p.y))

    @property
    def normal(self) -> Point2:
        return Point2(self.a, self.b)

    @property
    def direction(self) -> Point2:
        return Point2(-self.b, self.a)

    def signed_dist(self, p: Point2) -> float:
        return self.a * p.x + self.b * p.y + self.c

    def intersect(self, other: "Line") -> Point2 | None:
        det = self.a * other.b - self.b * other.a
        if abs(det) <= 1e-14:
            return None
        x = (self.b * other.c - self.c * other.b) / det
        y = (self.c * other.a - self.a * other.c) / det
        return Point2(x, y)


@dataclass(frozen=True)
class Segment:
    p0: Point2
    p1: Point2

    def __post_init__(self):
        if self.p0.dist(self.p1) <= SEGMENT_EPS:
            raise GeometryError("degenerate segment")

    @property
    def length(self) -> float:
        return self.p0.dist(self.p1)

    @property
    def direction(self) -> Point2:
        return (self.p1 - self.p0).unit()

    @property
    def midpoint(self) -> Point2:
        return Point2((self.p0.x + self.p1.x) / 2, (self.p0.y + self.p1.y) / 2)

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

    def apply(self, p: Point2) -> Point2:
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        return Point2(
            self.scale * (c * p.x - s * p.y) + self.translation.x,
            self.scale * (s * p.x + c * p.y) + self.translation.y,
        )

    def inverse(self) -> "Similarity":
        c, s = math.cos(-self.rotation), math.sin(-self.rotation)
        k = 1.0 / self.scale
        tx = -k * (c * self.translation.x - s * self.translation.y)
        ty = -k * (s * self.translation.x + c * self.translation.y)
        return Similarity(-self.rotation, k, Point2(tx, ty))

    def compose(self, other: "Similarity") -> "Similarity":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        return Similarity(
            self.rotation + other.rotation,
            self.scale * other.scale,
            self.apply(other.translation),
        )

    def is_identity(self, tol: float = 1e-12) -> bool:
        return (
            abs(math.sin(self.rotation)) <= tol
            and math.cos(self.rotation) >= 0
            and abs(self.scale - 1.0) <= tol
            and abs(self.translation.x) <= tol
            and abs(self.translation.y) <= tol
        )


class Triangle:
    """Non-obtuse triangle; vertex order normalized to counter-clockwise."""

    def __init__(self, a, b, c):
        a, b, c = as_point(a), as_point(b), as_point(c)
        if not (a.is_finite() and b.is_finite() and c.is_finite()):
            raise GeometryError("non-finite vertex coordinates")
        area2 = (b - a).cross(c - a)
        longest2 = max((b - a).dot(b - a), (c - b).dot(c - b), (a - c).dot(a - c))
        if abs(area2) / 2 <= AREA_EPS * longest2:
            raise DegenerateTriangleError(f"triangle area {abs(area2)/2:g} below threshold")
        if area2 < 0:
            b, c = c, b
        self.a, self.b, self.c = a, b, c
        self.angle_a = _corner_angle(a, b, c)
        self.angle_b = _corner_angle(b, c, a)
        self.angle_c = _corner_angle(c, a, b)
        gate = math.pi / 2 + ANGLE_SLACK
        if max(self.angle_a, self.angle_b, self.angle_c) > gate:
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
        return {VertexId.A: self.a, VertexId.B: self.b, VertexId.C: self.c}[v]

    def angle(self, v: VertexId) -> float:
        return {VertexId.A: self.angle_a, VertexId.B: self.angle_b, VertexId.C: self.angle_c}[v]

    @property
    def area(self) -> float:
        return (self.b - self.a).cross(self.c - self.a) / 2

    @property
    def base_length(self) -> float:
        """Length of edge BC (the unit edge in standard form)."""
        return self.b.dist(self.c)

    def contains(self, p: Point2, tol: float = CONTAINS_TOL) -> bool:
        """Membership with an absolute slack of ``tol`` in standard-form scale."""
        p = as_point(p)
        slack = tol * self.base_length
        for u, v in ((self.a, self.b), (self.b, self.c), (self.c, self.a)):
            d = v - u
            if d.cross(p - u) < -slack * d.norm():
                return False
        return True

    def require_inside(self, p: Point2, tol: float = CONTAINS_TOL) -> Point2:
        p = as_point(p)
        if not self.contains(p, tol):
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
        std = Triangle(Point2(a_std.x, abs(a_std.y)), Point2(0.0, 0.0), Point2(1.0, 0.0))
        return std, sim

    def standard(self) -> tuple["Triangle", Similarity]:
        """Standard analytic form: B=(0,0), C=(1,0), A=(p,q) with q>0."""
        return self._standard


def _corner_angle(v: Point2, p: Point2, q: Point2) -> float:
    u, w = p - v, q - v
    return math.atan2(abs(u.cross(w)), u.dot(w))


def standard_form(t: Triangle) -> tuple[Triangle, Similarity]:
    """Similarity image with B=(0,0), C=(1,0); costs scale by ``sim.scale``."""
    return t.standard()


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


def reflect(p: Point2, line: Line) -> Point2:
    d = line.signed_dist(p)
    return Point2(p.x - 2 * d * line.a, p.y - 2 * d * line.b)


def project(p: Point2, line: Line) -> Point2:
    d = line.signed_dist(p)
    return Point2(p.x - d * line.a, p.y - d * line.b)


def dist_point_segment(p: Point2, seg: Segment) -> float:
    d = seg.p1 - seg.p0
    t = (p - seg.p0).dot(d) / d.dot(d)
    t = min(1.0, max(0.0, t))
    return p.dist(seg.point_at(t))


def closest_point_on_segment(p: Point2, seg: Segment) -> Point2:
    d = seg.p1 - seg.p0
    t = (p - seg.p0).dot(d) / d.dot(d)
    return seg.point_at(min(1.0, max(0.0, t)))


def foot_of_bisector(t: Triangle, vertex: VertexId) -> Point2:
    """Intersection of the internal bisector at ``vertex`` with the opposite edge."""
    v = t.vertex(vertex)
    u1, u2 = _opposite_edge_endpoints(t, vertex)
    w1, w2 = v.dist(u1), v.dist(u2)
    return u1 + (w1 / (w1 + w2)) * (u2 - u1)


def _opposite_edge_endpoints(t: Triangle, vertex: VertexId) -> tuple[Point2, Point2]:
    if vertex is VertexId.A:
        return t.b, t.c
    if vertex is VertexId.B:
        return t.c, t.a
    return t.a, t.b


def bisector_direction(t: Triangle, vertex: VertexId) -> Point2:
    """Unit direction of the internal angle bisector at ``vertex``."""
    v = t.vertex(vertex)
    u1, u2 = _opposite_edge_endpoints(t, vertex)
    return ((u1 - v).unit() + (u2 - v).unit()).unit()


@dataclass(frozen=True)
class Cone:
    """Circular cone in the plane; ``half_angle`` 0 encodes a ray.

    The degenerate empty cone gets its own flag rather than a negative
    half-angle, because zero half-angle is a real (ray) case.
    """

    tip: Point2
    direction: Point2
    half_angle: float
    empty: bool = False

    def __post_init__(self):
        if not self.empty:
            if not (0.0 <= self.half_angle <= math.pi / 2 + 1e-12):
                raise GeometryError("cone half-angle out of [0, pi/2]")
            n = self.direction.norm()
            if abs(n - 1.0) > 1e-9:
                object.__setattr__(self, "direction", self.direction.unit())

    def contains(self, p: Point2, tol: float = 1e-9) -> bool:
        if self.empty:
            return False
        v = p - self.tip
        n = v.norm()
        if n <= SEGMENT_EPS:
            return True
        cosang = max(-1.0, min(1.0, v.dot(self.direction) / n))
        return math.acos(cosang) <= self.half_angle + tol


@dataclass(frozen=True)
class Parabola:
    """Locus of points equidistant from ``focus`` and ``directrix``."""

    focus: Point2
    directrix: Line

    def __post_init__(self):
        if abs(self.directrix.signed_dist(self.focus)) <= 1e-12:
            raise GeometryError("parabola focus lies on the directrix")

    @property
    def _frame(self) -> tuple[Point2, Point2, Point2, float]:
        """(origin on directrix, ex along directrix, ey toward focus, focal dist)."""
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

    def gap(self, p: Point2) -> float:
        """||p - focus|| - dist(p, directrix); zero on the parabola."""
        return p.dist(self.focus) - abs(self.directrix.signed_dist(p))


def polyline_length(points: Iterable[Point2]) -> float:
    pts = list(points)
    return sum(pts[i].dist(pts[i + 1]) for i in range(len(pts) - 1))
