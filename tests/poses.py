"""Hypothesis strategies for posed instances: a shape in standard form, a
point of it, and a pose (a similarity, optionally after the mirror x -> -x).

Each strategy draws one byte string and reads its parameters from it in
turn (``_Draws``): a Hypothesis draw costs about 60 us, and one draw per
parameter made the tier-1 suite about a third slower.  Shrinking the string
moves every parameter towards the low end of its range.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from hypothesis import strategies as st

from trivisit.geom_core import (
    EdgeId, Point2, Similarity, Triangle, VertexId, altitude_midpoint, incenter, triangle_from_angles,
)

THIN = 1e-6            # degrees: the thinnest apex drawn, and the least angle of any shape
NUDGE_ULPS = 8         # Triangle.contains allows CONTAINS_ULPS = 8 of them
_LARGEST_EXP = 1000    # every posed coordinate is below 2^1000
_SMALLEST_EXP = -880   # and every side at least 2^-880, so coordinates keep 53 bits

EQ = triangle_from_angles(math.pi / 3, math.pi / 3)
RI = triangle_from_angles(math.pi / 4, math.pi / 4)
# (B, C) in degrees: shapes whose special points tie costs, orders or edges.
TIE_SHAPES = [(60, 60), (45, 45), (45, 90), (90, 45), (70, 55), (30, 80), (85, 85), (50, 70)]
# The incenter, an altitude midpoint, a vertex, an edge point (at 0, 1/2, 1
# or a drawn fraction) and an interior point from three weights.
KINDS = ("incenter", "altitude", "vertex", "edge", "interior")
# The ranges of tests whose bounds are absolute: angles of at least 1 deg,
# scale 0.2 to 5 and up to 50 base lengths off the origin, which covers
# +-10 in absolute units at every such scale.
PLAIN = {"shape": {"least": 1.0}, "scale": (math.log10(0.2), math.log10(5.0)), "binary": 0, "shift": 50.0}
_VERTICES, _EDGES = tuple(VertexId), tuple(EdgeId)


def shape(apex: float, split: float, at: VertexId = VertexId.A, least: float = THIN) -> Triangle:
    """The standard-form triangle with ``apex`` degrees at ``at``, and the
    other two angles, in the order A, B, C after ``at``, 90 - s * apex and
    90 - (1 - s) * apex: every non-obtuse triangle, for a split s in [0, 1].
    The split is first mapped linearly onto the range that keeps every angle
    at least ``least`` degrees, which leaves it unchanged when
    ``apex <= 90 - least``."""
    lo, hi = max(0.0, 1.0 - (90.0 - least) / apex), min(1.0, (90.0 - least) / apex)
    s, thin = lo + split * (hi - lo), math.radians(apex)
    first, second = math.pi / 2 - s * thin, math.pi / 2 - (1 - s) * thin
    b, c = {VertexId.A: (first, second), VertexId.B: (thin, first), VertexId.C: (second, thin)}[at]
    return triangle_from_angles(b, c)


def special_points(std: Triangle) -> list[Point2]:
    """The incenter, the altitude midpoints, the vertices and the edge midpoints."""
    mids = [(u + v) * 0.5 for u, v in ((std.a, std.b), (std.b, std.c), (std.c, std.a))]
    return [incenter(std), *(altitude_midpoint(std, v) for v in VertexId), *std.vertices, *mids]


class Pose(NamedTuple):
    """x -> -x if ``mirror``, then rotation, scale ``10**u * 2**k`` and a
    translation of ``shift`` base lengths (times the scale)."""

    rotation: float
    u: float
    k: int
    shift: Point2 = Point2(0.0, 0.0)
    mirror: bool = False

    @property
    def scale(self) -> float:
        return math.ldexp(10.0 ** self.u, self.k)

    def __call__(self, p) -> Point2:
        x, y = p
        return Similarity(self.rotation, self.scale, self.shift * self.scale).apply(Point2(-x if self.mirror else x, y))

    def triangle(self, std: Triangle) -> Triangle:
        return Triangle(*map(self, std.vertices))


class _Draws:
    """Parameters read in turn from a drawn byte string.  A range's first
    byte picks its low end (below 8), its high end (248 and above) or the
    value that the next 7 bytes give, so that the ends are drawn often."""

    def __init__(self, data: bytes):
        self.data, self.at = data, 0

    def choice(self, options):
        self.at += 1
        return options[self.data[self.at - 1] % len(options)]

    def uniform(self, span) -> float:
        """A float of the (lo, hi) range ``span``, or ``span`` itself."""
        if not isinstance(span, tuple):
            return span
        (lo, hi), end = span, self.choice(range(256))
        if 8 <= end < 248:
            self.at += 7
            return lo + (hi - lo) * (int.from_bytes(self.data[self.at - 7:self.at], "little") / 2.0 ** 56)
        return lo if end < 8 else hi

    def integer(self, lo: int, hi: int) -> int:
        return min(hi, math.floor(self.uniform((lo, hi + 1.0))))

    def shape(self, apex=None, at=None, least: float = THIN) -> Triangle:
        if apex is None:
            apex = min(10.0 ** self.uniform((math.log10(least), math.log10(90.0))), 90.0)
        return shape(apex, self.uniform((0.0, 1.0)), self.choice(_VERTICES) if at is None else at, least)

    def point(self, std: Triangle, kinds) -> Point2:
        kind = self.choice(kinds)
        if kind == "incenter":
            return incenter(std)
        if kind == "altitude":
            return altitude_midpoint(std, self.choice(_VERTICES))
        if kind == "vertex":
            return std.vertex(self.choice(_VERTICES))
        if kind == "edge":
            u, v = (std.vertex(x) for x in self.choice(_EDGES).endpoints)
            return u + self.choice((0.0, 0.5, 1.0, self.uniform((0.0, 1.0)))) * (v - u)
        if kind == "interior":
            w = [self.uniform((0.0, 1.0)) for _ in range(3)]
            total = sum(w) or 1.0
            return (w[0] / total) * std.a + (w[1] / total) * std.b + (w[2] / total) * std.c
        assert kind == "near-vertex", kind
        a, b, c = self.choice(((std.a, std.b, std.c), (std.b, std.c, std.a), (std.c, std.a, std.b)))
        u, v = (self.uniform((0.0, 1.0)) * 10.0 ** self.uniform((-9.0, -1.0)) for _ in range(2))
        return a + u * (b - a) + v * (c - a)

    def pose(self, std: Triangle, scale=(-3.0, 3.0), binary=(-1000, 1000), shift=1e4,
             rotation=(0.0, 2 * math.pi), mirror=False) -> Pose:
        u, k = self.uniform(scale), binary if isinstance(binary, int) else self.integer(*binary)
        off = Point2(self.uniform((-shift, shift)), self.uniform((-shift, shift))) if shift else Point2(0.0, 0.0)
        reach = 10.0 ** u * (max(abs(x) for v in std.vertices for x in v) + abs(off.x) + abs(off.y))
        shortest = 10.0 ** u * min(std.a.dist(std.b), std.b.dist(std.c), std.c.dist(std.a))
        k = min(max(k, _SMALLEST_EXP + 1 - math.frexp(shortest)[1]), _LARGEST_EXP - math.frexp(reach)[1])
        return Pose(self.uniform(rotation), u, k, off, self.choice((False, True)) if mirror is None else mirror)


def _decoded(size: int, read, n: int | None) -> st.SearchStrategy:
    """``read`` of a ``_Draws`` of ``size`` drawn bytes or, if ``n`` is
    given, a list of ``n`` of them read from one drawn string.  A list
    strategy would repeat its items, as Hypothesis reuses drawn values;
    here only the first example, all zero bytes, has its items alike."""
    if n is None:
        return st.binary(min_size=size, max_size=size).map(lambda data: read(_Draws(data)))
    return st.binary(min_size=n * size, max_size=n * size).map(
        lambda data: [read(_Draws(data[i * size:(i + 1) * size])) for i in range(n)])


def triangles(shape=None, n=None, **parts) -> st.SearchStrategy[Triangle]:
    """Posed triangles: a shape and a pose, as for ``instances``."""
    def read(draws: _Draws) -> Triangle:
        std = shape if isinstance(shape, Triangle) else draws.shape(**(shape or {}))
        return draws.pose(std, **parts).triangle(std)

    return _decoded(80, read, n)


class Instance(NamedTuple):
    """A standard-form shape ``std`` and point ``p``, and their images
    ``t`` and ``q`` under ``pose``."""

    std: Triangle
    p: Point2
    pose: Pose
    t: Triangle
    q: Point2

    def at(self, k: int) -> "Instance":
        """The instance re-posed at binary exponent ``k``, nudge included:
        every coordinate times 2^(k - self.pose.k)."""
        q = Point2(*(math.ldexp(x, k - self.pose.k) for x in self.q))
        return instance(self.std, self.p, self.pose._replace(k=k), q)


def instance(std: Triangle, p: Point2, pose: Pose, q: Point2 | None = None) -> Instance:
    """``std`` and ``p`` under ``pose``; ``q`` stands for the posed point if given."""
    return Instance(std, p, pose, pose.triangle(std), pose(p) if q is None else q)


def instances(shape=None, kinds=KINDS, nudge=False, n=None, **parts) -> st.SearchStrategy[Instance]:
    """A shape, a point and a pose.  ``shape`` is a standard-form
    ``Triangle`` or a dict of ``apex``, ``at`` and ``least`` (the least
    angle in degrees), each drawn if left out.  The point is of one of
    ``kinds``: those of ``KINDS`` or "near-vertex", a vertex moved along
    both of its sides by fractions r * 10^U(-9, -1).  In ``parts``,
    ``scale`` gives u, ``binary`` gives k and ``rotation`` the angle, each
    as a value or a (lo, hi) range; the translation is drawn up to ``shift``
    base lengths along each axis, and ``mirror`` is a bool, or None to draw
    it.  k is then clamped so that every posed coordinate stays below 2^1000
    and every side at least 2^-880.  ``nudge``, a bool or None to draw it,
    moves the posed point by up to ``NUDGE_ULPS`` ulps of the largest posed
    coordinate along each axis.  With ``n``, lists of ``n`` instances: one
    example checks a batch, for the speed of the loops this replaces."""
    def read(draws: _Draws) -> Instance:
        std = shape if isinstance(shape, Triangle) else draws.shape(**(shape or {}))
        inst = instance(std, draws.point(std, kinds), draws.pose(std, **parts))
        if not (draws.choice((False, True)) if nudge is None else nudge):
            return inst
        ulp = math.ulp(max(abs(x) for v in (*inst.t.vertices, inst.q) for x in v))
        return inst._replace(q=Point2(*(x + draws.integer(-NUDGE_ULPS, NUDGE_ULPS) * ulp for x in inst.q)))

    return _decoded(136, read, n)
