"""Vectorized costs, and every case and optimum decision, over arrays of
points, for one triangle or a stack of triangles.

A kernel built from one ``Triangle`` takes points of shape (N, 2) and returns
costs of shape (N,).  A kernel built from a sequence of T triangles stacks
every constant along a leading triangle axis; it takes points of shape
(T, N, 2), row t belonging to triangle t, and returns costs of shape (T, N).

The kernel is the only code that compares costs or indicator coordinates
with the classification slack ``BOUNDARY_TOL``: it picks the admissible
unfolding cases of an ordered three-edge visit, the clamp of an ordered
two-edge visit, the cheaper order of an edge pair, and the optimal orders
(R1), kept partitions with their determining side (R2) and farthest edges
(R3).  Raster maps and ratio maximization read its costs and masks directly;
``visitation`` and ``fleet_costs`` evaluate a kernel of the standard-form
triangle at one point and build witnesses only for what it marks admissible
or optimal.  Costs are in each triangle's own scale, and the slack scales
with the base edge.

Every constant comes from ``triangle_row``: one flat list of plain floats per
triangle, computed with ``math`` in the operation order of the ``geom_core``
objects, so that it equals what ``Line``, ``reflect``, ``project`` and
``Point2.unit`` give bit for bit.  A kernel cuts its tables from those rows,
and ``_Unfold3`` views for witnesses are built from a row only for the orders
asked for.  The tables are not built with NumPy array code: a vectorized
builder is several times slower on one triangle, which is what ``eval``
builds per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .geom_core import (
    SEGMENT_EPS,
    EdgeId,
    GeometryError,
    Line,
    Point2,
    Segment,
    Triangle,
    VertexId,
    VisitOrder,
    shared_vertex,
)

# Classification slack for indicator lines and ties, in standard-form scale.
BOUNDARY_TOL = 1e-9
# Cost ties tighter than this are treated as exact when choosing a kind.
EXACT_TIE = 1e-12

# The nearer edge on a pair tie is decided by distances that differ only in
# rounding, so they come from math.hypot, like every scalar distance here.
_py_hypot = np.frompyfunc(math.hypot, 2, 1)

_ORDERS = tuple(VisitOrder)
_EDGES = tuple(EdgeId)
_VERTICES = tuple(VertexId)
_PAIRS = tuple((first, second) for first in _EDGES for second in _EDGES if second is not first)
_PAIR_INDEX = {pair: i for i, pair in enumerate(_PAIRS)}

# Layout of a triangle row (``triangle_row``), by offset.  Edges go in EdgeId
# order, ordered pairs in ``_PAIRS`` order and visit orders in VisitOrder
# order; a segment row is p0x, p0y, dx, dy, dx*dx + dy*dy.
_ROW_LINES = 0                                  # a, b, c of each edge's line
_ROW_LENGTHS = _ROW_LINES + 3 * len(_EDGES)     # each edge's length
_ROW_SEGS = _ROW_LENGTHS + len(_EDGES)          # each edge's segment row
_ROW_PAIRS = _ROW_SEGS + 5 * len(_EDGES)        # segment row pivot -> far image of each pair
_ROW_FARS = _ROW_PAIRS + 5 * len(_PAIRS)        # x, y of each pair's far image
_ROW_UNFOLDS = _ROW_FARS + 2 * len(_PAIRS)      # corner_img, u, apex, sigma_z, altitude per order
_ROW_WITNESS = _ROW_UNFOLDS + 8 * len(_ORDERS)  # line2u a, b, c, far_img, alt_foot per order
ROW_WIDTH = _ROW_WITNESS + 7 * len(_ORDERS)
# Where each edge's line (a, b, c) and length and each vertex (x, y) sit; an
# edge's segment row starts at its first endpoint, so L's holds A, D's B and
# R's C.
ROW_LINE = {e: _ROW_LINES + 3 * k for k, e in enumerate(_EDGES)}
ROW_LENGTH = {e: _ROW_LENGTHS + k for k, e in enumerate(_EDGES)}
ROW_VERTEX = {e.endpoints[0]: _ROW_SEGS + 5 * k for k, e in enumerate(_EDGES)}
ROW_SCALE = ROW_LENGTH[EdgeId.D]


def _other_end(e: EdgeId, v: VertexId) -> VertexId:
    return e.endpoints[1] if e.endpoints[0] is v else e.endpoints[0]


# Vertex and edge indices behind each row section.
_EDGE_ENDS = tuple(tuple(_VERTICES.index(v) for v in e.endpoints) for e in _EDGES)
_PAIR_ENDS = tuple(
    (_EDGES.index(first), _VERTICES.index(shared_vertex(first, second)),
     _VERTICES.index(_other_end(second, shared_vertex(first, second))))
    for first, second in _PAIRS
)
_ORDER_ENDS = tuple(
    (_EDGES.index(e1), _EDGES.index(e3), *(_VERTICES.index(shared_vertex(*es)) for es in ((e1, e2), (e1, e3), (e2, e3))))
    for e1, e2, e3 in (o.edges for o in _ORDERS)
)


class StrategyKind(str, Enum):
    BOUNCING = "bouncing"
    DEGENERATE_VERTEX_BOUNCE = "degenerate-vertex-bounce"
    SUBOPT_VERTEX_ALTITUDE = "subopt-vertex-altitude"
    DIRECT_TO_VERTEX = "direct-to-vertex"
    PERPENDICULAR_DROP = "perpendicular-drop"


def _line_through(px: float, py: float, qx: float, qy: float) -> tuple[float, float, float, float]:
    """(a, b, c, length) as ``Line.from_points`` computes them."""
    dx, dy = qx - px, qy - py
    n = math.hypot(dx, dy)
    if n <= SEGMENT_EPS:
        raise GeometryError("line through coincident points")
    a, b = -dy / n, dx / n
    c = -(a * px + b * py)
    m = math.hypot(a, b)
    if abs(m - 1.0) > 1e-12:
        a, b, c = a / m, b / m, c / m
    return a, b, c, n


def triangle_row(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> list[float]:
    """Every kernel and witness constant of the triangle with vertices A, B,
    C, as one flat list of ``ROW_WIDTH`` plain floats in the ``_ROW_*``
    layout.  Each value follows the operation order of ``Line.from_points``,
    ``reflect``, ``project`` and ``Point2.unit``, so it equals the one those
    give bit for bit."""
    xs, ys = (ax, bx, cx), (ay, by, cy)
    lines, lengths, segs = [], [], []
    for i, j in _EDGE_ENDS:
        px, py, qx, qy = xs[i], ys[i], xs[j], ys[j]
        a, b, c, n = _line_through(px, py, qx, qy)
        dx, dy = qx - px, qy - py
        lines += (a, b, c)
        lengths.append(n)
        segs += (px, py, dx, dy, dx * dx + dy * dy)
    pairs, fars = [], []
    for k, pivot, far in _PAIR_ENDS:
        a, b, c = lines[3 * k:3 * k + 3]
        x, y = xs[far], ys[far]
        d = a * x + b * y + c
        fx, fy = x - 2 * d * a, y - 2 * d * b
        px, py = xs[pivot], ys[pivot]
        dx, dy = fx - px, fy - py
        pairs += (px, py, dx, dy, dx * dx + dy * dy)
        fars += (fx, fy)
    unfolds, witness = [], []
    for k1, k3, apex, base, corner in _ORDER_ENDS:
        apx, apy, bvx, bvy = xs[apex], ys[apex], xs[base], ys[base]
        # The corner reflected across the first edge's line ...
        a, b, c = lines[3 * k1:3 * k1 + 3]
        x, y = xs[corner], ys[corner]
        d = a * x + b * y + c
        cix, ciy = x - 2 * d * a, y - 2 * d * b
        # ... and the base vertex across the once-unfolded second edge, which
        # runs from the apex to the corner image.
        a2, b2, c2, _ = _line_through(apx, apy, cix, ciy)
        d = a2 * bvx + b2 * bvy + c2
        fix, fiy = bvx - 2 * d * a2, bvy - 2 * d * b2
        vx, vy = fix - cix, fiy - ciy
        n = math.hypot(vx, vy)
        if n <= SEGMENT_EPS:
            raise GeometryError("cannot normalize a near-zero vector")
        ux, uy = vx / n, vy / n
        sigma_z = math.copysign(1.0, ux * (bvx - apx) + uy * (bvy - apy))
        # Foot of the apex on the third edge's line.
        a, b, c = lines[3 * k3:3 * k3 + 3]
        d = a * apx + b * apy + c
        ftx, fty = apx - d * a, apy - d * b
        unfolds += (cix, ciy, ux, uy, apx, apy, sigma_z, math.hypot(apx - ftx, apy - fty))
        witness += (a2, b2, c2, fix, fiy, ftx, fty)
    return lines + lengths + segs + pairs + fars + unfolds + witness


def _row_of(t: Triangle) -> list[float]:
    return triangle_row(*t.a, *t.b, *t.c)


def _point(row, at: int) -> Point2:
    return Point2(row[at], row[at + 1])


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

    @classmethod
    def from_row(cls, row, order: VisitOrder) -> "_Unfold3":
        """The view of ``order``'s unfolding in a triangle row."""
        e1, e2, e3 = order.edges
        k = _ORDERS.index(order)
        cix, ciy, ux, uy, apx, apy, sigma_z, _ = row[_ROW_UNFOLDS + 8 * k:_ROW_UNFOLDS + 8 * k + 8]
        a2, b2, c2, fix, fiy, ftx, fty = row[_ROW_WITNESS + 7 * k:_ROW_WITNESS + 7 * k + 7]
        return cls(
            order, Line(*row[ROW_LINE[e1]:ROW_LINE[e1] + 3]), Line(a2, b2, c2), Point2(apx, apy),
            _point(row, ROW_VERTEX[shared_vertex(e1, e3)]), _point(row, ROW_VERTEX[shared_vertex(e2, e3)]),
            Point2(cix, ciy), Point2(fix, fiy), Point2(ux, uy), sigma_z, Point2(ftx, fty),
        )

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
    return _Unfold3.from_row(_row_of(t), order)


def _ordered3_cases(pts: np.ndarray, table, tol) -> tuple[np.ndarray, dict]:
    """(cost, cases) of the ordered three-edge visits whose unfolding
    constants (corner_img, u, apex, sigma_z, altitude) are ``table``:
    ``cases`` maps each unfolding case to the mask where it is admissible,
    within ``tol`` of its side of the subopt and bounce lines, and the cost
    is the minimum over the admissible cases.  Each field of ``table``
    broadcasts against the point coordinates: a float or a (T, 1) column for
    one order, a (6, 1) or (6, T, 1) array for all six."""
    cx, cy, ux, uy, ax, ay, sigma_z, alt = table
    x, y = pts[..., 0], pts[..., 1]
    rx, ry = x - cx, y - cy
    qx, qy = x - ax, y - ay
    s_b = rx * ux + ry * uy
    s_z = sigma_z * (qx * ux + qy * uy)
    past_subopt = s_z >= -tol
    cases = {
        StrategyKind.SUBOPT_VERTEX_ALTITUDE: s_z <= tol,
        StrategyKind.DEGENERATE_VERTEX_BOUNCE: past_subopt & (s_b <= tol),
        StrategyKind.BOUNCING: past_subopt & (s_b >= -tol),
    }
    # One case cost at a time, so that few full-size arrays are alive.
    cost = np.where(cases[StrategyKind.SUBOPT_VERTEX_ALTITUDE], np.hypot(qx, qy) + alt, np.inf)
    cost = np.minimum(cost, np.where(cases[StrategyKind.DEGENERATE_VERTEX_BOUNCE], np.hypot(rx, ry), np.inf))
    cost = np.minimum(cost, np.where(cases[StrategyKind.BOUNCING], np.abs(rx * -uy + ry * ux), np.inf))
    return cost, cases


# The orders (first, second) and (second, first) of the pair of edges left by
# each lone edge, as indices into ``_PAIRS``, in EdgeId order of the lone edge.
_LONE_PAIRS = tuple(
    (_PAIR_INDEX[(first, second)], _PAIR_INDEX[(second, first)])
    for first, second in ([e for e in _EDGES if e is not lone] for lone in _EDGES)
)


def partitions(singles: np.ndarray, ordered2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(singles, pairs, costs) of the three R2 partitions, each (3, ...)
    indexed by the lone edge, from the (3, ...) edge distances ``singles``
    and ``ordered2(k)``, the cost of the ordered pair ``_PAIRS[k]``: a pair
    costs the cheaper of its two orders, a partition the larger of its two
    robots' costs."""
    pairs = np.array([np.minimum(ordered2(i), ordered2(j)) for i, j in _LONE_PAIRS])
    return singles, pairs, np.maximum(singles, pairs)


class TriangleKernel:
    """Triangle rows plus array evaluators.

    ``rows`` holds one ``triangle_row`` per triangle: a list of one row for
    a single-triangle kernel, a (T, ROW_WIDTH) array for a stack.  Each table
    is cut from them, so each constant is a float for a single-triangle
    kernel and a (T, 1) column for a stacked one, and the same code
    broadcasts over (N,) and (T, N) coordinate arrays.
    """

    def __init__(self, t: Triangle | Sequence[Triangle]):
        if isinstance(t, Triangle):
            # One triangle keeps its rows of floats, which unpack far faster
            # than array rows on few points.
            row = _row_of(t)
            self.rows = [row]

            def table(at: int, count: int, width: int):
                return [row[i:i + width] for i in range(at, at + count * width, width)]

            flat = np.array(row, dtype=float)

            def family(at: int, count: int, width: int):
                return flat[at:at + count * width].reshape(count, width).T[..., None]

            # Each family's table as one (width, count, 1) array, so that a
            # field unpacks into a (count, 1) column, one row per member.
            self._seg_family = family(_ROW_SEGS, len(_EDGES), 5)
            self._pair_family = family(_ROW_PAIRS, len(_PAIRS), 5)
            self._unfold_family = family(_ROW_UNFOLDS, len(_ORDERS), 8)
            self.scale = row[ROW_SCALE]
        else:
            # A stack goes (T, count * width) -> (count, width, T, 1) so that
            # table[i] unpacks into (T, 1) columns.
            self.rows = rows = np.array([_row_of(s) for s in t], dtype=float)

            def table(at: int, count: int, width: int):
                return rows[:, at:at + count * width].reshape(-1, count, width).transpose(1, 2, 0)[..., None]

            self.scale = rows[:, ROW_SCALE, None]
        self._segs = table(_ROW_SEGS, len(_EDGES), 5)
        self._pairs = table(_ROW_PAIRS, len(_PAIRS), 5)
        self._unfolds = table(_ROW_UNFOLDS, len(_ORDERS), 8)
        self.tol = BOUNDARY_TOL * self.scale

    # -- witness constants of a single-triangle kernel -------------------

    def unfolding(self, order: VisitOrder) -> _Unfold3:
        return _Unfold3.from_row(self.rows[0], order)

    def edge_line(self, e: EdgeId) -> Line:
        return Line(*self.rows[0][ROW_LINE[e]:ROW_LINE[e] + 3])

    def pair_unfolding(self, first: EdgeId, second: EdgeId) -> tuple[Point2, Point2, Point2]:
        """(pivot, far, far_img) of the visit of ``first`` then ``second``:
        their shared vertex, the other end of ``second``, and its reflection
        across ``first``'s line."""
        row, pivot = self.rows[0], shared_vertex(first, second)
        return (
            _point(row, ROW_VERTEX[pivot]), _point(row, ROW_VERTEX[_other_end(second, pivot)]),
            _point(row, _ROW_FARS + 2 * _PAIR_INDEX[(first, second)]),
        )

    # -- primitives ----------------------------------------------------

    @staticmethod
    def _seg_param(pts: np.ndarray, key) -> np.ndarray:
        p0x, p0y, dx, dy, dd = key
        return ((pts[..., 0] - p0x) * dx + (pts[..., 1] - p0y) * dy) / dd

    @classmethod
    def _seg_offset(cls, pts: np.ndarray, key) -> tuple[np.ndarray, np.ndarray]:
        p0x, p0y, dx, dy, _ = key
        t = cls._seg_param(pts, key)
        np.clip(t, 0.0, 1.0, out=t)
        return pts[..., 0] - (p0x + t * dx), pts[..., 1] - (p0y + t * dy)

    @classmethod
    def _seg_dist(cls, pts: np.ndarray, key) -> np.ndarray:
        return np.hypot(*cls._seg_offset(pts, key))

    def edge_dist(self, pts: np.ndarray, e: EdgeId) -> np.ndarray:
        return self._seg_dist(pts, self._segs[_EDGES.index(e)])

    def ordered2(self, pts: np.ndarray, first: EdgeId, second: EdgeId) -> np.ndarray:
        return self._seg_dist(pts, self._pairs[_PAIR_INDEX[(first, second)]])

    def ordered2_clamp(self, pts: np.ndarray, first: EdgeId, second: EdgeId) -> tuple[np.ndarray, dict]:
        """(tau, cases) of the visit of ``first`` then ``second``: the point's
        unclamped foot on ``second`` reflected across ``first`` (0 at the
        shared vertex, 1 at the far vertex's image), and the mask of each
        kind: a run to the vertex or a bounce ending on the far vertex within
        ``EXACT_TIE`` of either end, a bounce between."""
        tau = self._seg_param(pts, self._pairs[_PAIR_INDEX[(first, second)]])
        to_vertex = tau <= EXACT_TIE
        to_far = ~to_vertex & (tau >= 1.0 - EXACT_TIE)
        return tau, {
            StrategyKind.DIRECT_TO_VERTEX: to_vertex,
            StrategyKind.DEGENERATE_VERTEX_BOUNCE: to_far,
            StrategyKind.BOUNCING: ~(to_vertex | to_far),
        }

    def pair_order(self, pts: np.ndarray, ordered2: np.ndarray, e1: EdgeId, e2: EdgeId) -> tuple[np.ndarray, np.ndarray]:
        """(e1_first, tie): whether the cheaper visit of the pair touches
        ``e1`` first, and whether both orders are within tol, in which case
        the nearer edge goes first (``e1`` when equally near).  ``ordered2``
        holds the costs at ``pts`` of the ordered pairs (``ordered2_family``)."""
        c12, c21 = ordered2[_PAIR_INDEX[(e1, e2)]], ordered2[_PAIR_INDEX[(e2, e1)]]
        tie = np.abs(c12 - c21) <= self.tol
        e1_first = c12 < c21
        if tie.any():
            d1, d2 = (_py_hypot(*self._seg_offset(pts, self._segs[_EDGES.index(e)])).astype(float) for e in (e1, e2))
            e1_first = np.where(tie, d1 <= d2, e1_first)
        return e1_first, tie

    def ordered3_cases(self, pts: np.ndarray, order: VisitOrder) -> tuple[np.ndarray, dict]:
        """(cost, cases) of ``order`` (see ``_ordered3_cases``)."""
        return _ordered3_cases(pts, self._unfolds[_ORDERS.index(order)], self.tol)

    def ordered3(self, pts: np.ndarray, order: VisitOrder) -> np.ndarray:
        return self.ordered3_cases(pts, order)[0]

    # -- one broadcast per cost family, on a single-triangle kernel --------
    #
    # Each family method evaluates every member of a family in one
    # broadcast, over a leading axis: (3, N) edge distances in EdgeId order,
    # (6, N) ordered pair costs in ``_PAIRS`` order, and (6, N) ordered
    # three-edge costs and case masks in VisitOrder order.  At one point
    # (``eval``) each ufunc call costs about 1 us whatever its size, so one
    # broadcast per family is several times faster than a loop over its
    # members.  On many points (rasters, sweeps, ratio maxima) the fleet-cost
    # methods below loop over the members instead, through the same
    # arithmetic: a broadcast there makes every temporary up to six times
    # larger.  A prototype that broadcast the array methods too raised the
    # peak RSS of the ``raster`` benchmark from about 87 to 118-120 MB and
    # cut ``sweep`` throughput by about 19% (2-core host).

    def edge_family(self, pts: np.ndarray) -> np.ndarray:
        return self._seg_dist(pts, self._seg_family)

    def ordered2_family(self, pts: np.ndarray) -> np.ndarray:
        return self._seg_dist(pts, self._pair_family)

    def ordered3_family(self, pts: np.ndarray) -> tuple[np.ndarray, dict]:
        return _ordered3_cases(pts, self._unfold_family, self.tol)

    # -- fleet costs ----------------------------------------------------

    def r3(self, pts: np.ndarray) -> np.ndarray:
        return np.maximum.reduce([self.edge_dist(pts, e) for e in _EDGES])

    def r3_all(self, pts: np.ndarray) -> np.ndarray:
        """(3, ...) distances in EdgeId declaration order."""
        return np.array([self.edge_dist(pts, e) for e in _EDGES])

    def farthest_edges(self, dists: np.ndarray) -> np.ndarray:
        """(3, ...) mask of the edges within tol of the largest of ``dists``
        (from ``r3_all``, or the singles of ``r2_partitions``)."""
        return dists >= dists.max(axis=0) - self.tol

    def r2_partitions(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(singles, pairs, costs), each (3, ...), indexed by the lone edge."""
        return partitions(self.r3_all(pts), lambda k: self._seg_dist(pts, self._pairs[k]))

    def r2_sides(self, singles: np.ndarray, pairs: np.ndarray, costs: np.ndarray) -> np.ndarray:
        """(3, ...) code per lone edge, from ``r2_partitions``: 0 unless its
        partition is within tol of the best, else which cost determines it:
        1 the drop, 2 the pair visit, 3 both within tol."""
        gap = singles - pairs
        side = np.where(np.abs(gap) <= self.tol, 3, np.where(gap > 0, 1, 2))
        return np.where(costs > costs.min(axis=0) + self.tol, 0, side)

    def r2(self, pts: np.ndarray) -> np.ndarray:
        return self.r2_partitions(pts)[2].min(axis=0)

    def r1_all(self, pts: np.ndarray) -> np.ndarray:
        """(6, ...) ordered-visit costs in VisitOrder declaration order."""
        return np.array([self.ordered3(pts, o) for o in _ORDERS])

    def optimal_orders(self, costs: np.ndarray) -> np.ndarray:
        """(6, ...) mask of the orders within tol of the cheapest of
        ``costs`` (from ``r1_all``)."""
        return costs <= costs.min(axis=0) + self.tol

    def r1(self, pts: np.ndarray) -> np.ndarray:
        return self.r1_all(pts).min(axis=0)

    def cost(self, pts: np.ndarray, robots: int) -> np.ndarray:
        if robots == 1:
            return self.r1(pts)
        if robots == 2:
            return self.r2(pts)
        if robots == 3:
            return self.r3(pts)
        raise ValueError(f"fleet size must be 1, 2 or 3, got {robots!r}")


def barycentric_grid(t: Triangle | Sequence[Triangle], n: int, include_vertices: bool = True) -> np.ndarray:
    """Cartesian points of the n-per-side barycentric lattice: (N, 2) for one
    triangle, (T, N, 2) for a sequence of T triangles."""
    if n < 2:
        raise ValueError("grid needs at least 2 points per side")
    if isinstance(t, Triangle):
        verts = np.asarray(t.vertices, dtype=float)
    else:
        verts = np.array([tri.vertices for tri in t], dtype=float)
    a, b, c = (verts[..., None, k, :] for k in range(3))
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    keep = ii + jj <= n - 1
    i = ii[keep].astype(float)
    j = jj[keep].astype(float)
    wa = i / (n - 1)
    wb = j / (n - 1)
    wc = 1.0 - wa - wb
    if not include_vertices:
        interior = (wa <= 1.0 - 1e-12) & (wb <= 1.0 - 1e-12) & (wc <= 1.0 - 1e-12)
        wa, wb, wc = wa[interior], wb[interior], wc[interior]
    return wa[:, None] * a + wb[:, None] * b + wc[:, None] * c


def points_array(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    return arr

