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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .geom_core import (
    EdgeId,
    Line,
    Point2,
    Segment,
    Triangle,
    VisitOrder,
    project,
    reflect,
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
_PAIRS = tuple((first, second) for first in _EDGES for second in _EDGES if second is not first)
_PAIR_INDEX = {pair: i for i, pair in enumerate(_PAIRS)}


class StrategyKind(str, Enum):
    BOUNCING = "bouncing"
    DEGENERATE_VERTEX_BOUNCE = "degenerate-vertex-bounce"
    SUBOPT_VERTEX_ALTITUDE = "subopt-vertex-altitude"
    DIRECT_TO_VERTEX = "direct-to-vertex"
    PERPENDICULAR_DROP = "perpendicular-drop"


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
    line1 = t.edge_line(e1)
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
    return _Unfold3(
        order, line1, line2u, apex, base_vertex, corner, corner_img, far_img, u,
        sigma_z, project(apex, t.edge_line(e3)),
    )


def _segment_row(p0, p1) -> list[float]:
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    return [p0[0], p0[1], dx, dy, dx * dx + dy * dy]


def _unfold2(t: Triangle, first: EdgeId, second: EdgeId) -> tuple[Point2, Point2, Point2]:
    """(pivot, far, far_img) of the visit of ``first`` then ``second``: their
    shared vertex, the other end of ``second``, and its reflection across
    ``first``."""
    pivot_id = shared_vertex(first, second)
    far = t.vertex((set(second.endpoints) - {pivot_id}).pop())
    return t.vertex(pivot_id), far, reflect(far, t.edge_line(first))


def _constants(t: Triangle, unfolds: Sequence[_Unfold3]) -> dict[str, list]:
    """Per-triangle constants as plain floats, one list of rows per table."""
    segs = [_segment_row(*(t.vertex(v) for v in e.endpoints)) for e in _EDGES]
    # Reflected target segment for each ordered pair (first, second).
    pairs = []
    for first, second in _PAIRS:
        pivot, _, far_img = _unfold2(t, first, second)
        pairs.append(_segment_row(pivot, far_img))
    # Ordered three-edge visit constants.
    unfold_rows = [
        [uf.corner_img.x, uf.corner_img.y, uf.u.x, uf.u.y, uf.apex.x, uf.apex.y, uf.sigma_z, uf.apex.dist(uf.alt_foot)]
        for uf in unfolds
    ]
    return {"segs": segs, "pairs": pairs, "unfolds": unfold_rows, "scale": [t.base_length]}


class TriangleKernel:
    """Precomputed unfolding constants plus array evaluators.

    Each constant is a float for a single-triangle kernel and a (T, 1)
    column for a stacked one, so the same code broadcasts over (N,) and
    (T, N) coordinate arrays.
    """

    def __init__(self, t: Triangle | Sequence[Triangle]):
        single = isinstance(t, Triangle)
        per = []
        for tri in (t,) if single else t:
            unfolds = tuple(_unfold3(tri, order) for order in _ORDERS)
            per.append(_constants(tri, unfolds))
        # Witnesses are built from a one-triangle kernel's unfoldings; a
        # stack does not keep them.
        self.unfoldings = dict(zip(_ORDERS, unfolds)) if single else None

        def table(key: str):
            # One triangle keeps its rows of floats, which unpack far faster
            # than array rows on few points.  A stack goes (T, rows, cols) ->
            # (rows, cols, T, 1) so that row[i] unpacks into (T, 1) columns.
            if single:
                return per[0][key]
            return np.moveaxis(np.array([c[key] for c in per], dtype=float), 0, -1)[..., None]

        self._segs = table("segs")
        self._pairs = table("pairs")
        self._unfolds = table("unfolds")
        self.scale = table("scale")[0]
        self.tol = BOUNDARY_TOL * self.scale

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

    def pair(self, pts: np.ndarray, e1: EdgeId, e2: EdgeId) -> np.ndarray:
        return np.minimum(self.ordered2(pts, e1, e2), self.ordered2(pts, e2, e1))

    def pair_order(self, pts: np.ndarray, e1: EdgeId, e2: EdgeId) -> tuple[np.ndarray, np.ndarray]:
        """(e1_first, tie): whether the cheaper visit of the pair touches
        ``e1`` first, and whether both orders are within tol, in which case
        the nearer edge goes first (``e1`` when equally near)."""
        c12, c21 = self.ordered2(pts, e1, e2), self.ordered2(pts, e2, e1)
        tie = np.abs(c12 - c21) <= self.tol
        e1_first = c12 < c21
        if tie.any():
            d1, d2 = (_py_hypot(*self._seg_offset(pts, self._segs[_EDGES.index(e)])).astype(float) for e in (e1, e2))
            e1_first = np.where(tie, d1 <= d2, e1_first)
        return e1_first, tie

    def ordered3_cases(self, pts: np.ndarray, order: VisitOrder) -> tuple[np.ndarray, dict]:
        """(cost, cases): ``cases`` maps each unfolding case to the mask where
        it is admissible, within tol of its side of the subopt and bounce
        lines, and the cost is the minimum over the admissible cases."""
        cx, cy, ux, uy, ax, ay, sigma_z, alt = self._unfolds[_ORDERS.index(order)]
        x, y = pts[..., 0], pts[..., 1]
        rx, ry = x - cx, y - cy
        qx, qy = x - ax, y - ay
        s_b = rx * ux + ry * uy
        s_z = sigma_z * (qx * ux + qy * uy)
        tol = self.tol
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

    def ordered3(self, pts: np.ndarray, order: VisitOrder) -> np.ndarray:
        return self.ordered3_cases(pts, order)[0]

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
        singles, pairs = [], []
        for lone in _EDGES:
            rest = [e for e in _EDGES if e is not lone]
            singles.append(self.edge_dist(pts, lone))
            pairs.append(self.pair(pts, rest[0], rest[1]))
        s = np.array(singles)
        d = np.array(pairs)
        return s, d, np.maximum(s, d)

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

