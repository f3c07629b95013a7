"""Vectorized cost evaluation over arrays of points, for one triangle or a
stack of triangles.

A kernel built from one ``Triangle`` takes points of shape (N, 2) and returns
costs of shape (N,).  A kernel built from a sequence of T triangles stacks
every constant along a leading triangle axis; it takes points of shape
(T, N, 2), row t belonging to triangle t, and returns costs of shape (T, N).

The constants come from the scalar constructions in ``visitation`` (edge
segments, reflections, ``_unfold3``), and the evaluators mirror the scalar
ones exactly (same constructions, same tolerance bands) but without
witnesses, for raster classification and ratio maximization.  Costs are in
each triangle's own scale; classification slacks scale with the base edge
like the scalar path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geom_core import Triangle, reflect
from .visitation import BOUNDARY_TOL, EdgeId, VisitOrder, _unfold3, edge_segment, shared_vertex

_ORDERS = tuple(VisitOrder)
_EDGES = tuple(EdgeId)
_PAIRS = tuple((first, second) for first in _EDGES for second in _EDGES if second is not first)
_PAIR_INDEX = {pair: i for i, pair in enumerate(_PAIRS)}


def _segment_row(p0, p1) -> list[float]:
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    return [p0[0], p0[1], dx, dy, dx * dx + dy * dy]


def _constants(t: Triangle) -> dict[str, list]:
    """Per-triangle constants as plain floats, one list of rows per table."""
    segments = [edge_segment(t, e) for e in _EDGES]
    segs = [_segment_row(seg.p0, seg.p1) for seg in segments]
    # Reflected target segment for each ordered pair (first, second).
    lines = {e: seg.line() for e, seg in zip(_EDGES, segments)}
    pairs = []
    for first, second in _PAIRS:
        pivot_id = shared_vertex(first, second)
        far = t.vertex((set(second.endpoints) - {pivot_id}).pop())
        pairs.append(_segment_row(t.vertex(pivot_id), reflect(far, lines[first])))
    # Ordered three-edge visit constants.
    unfolds = []
    for order in _ORDERS:
        uf = _unfold3(t, order)
        unfolds.append([
            uf.corner_img.x, uf.corner_img.y, uf.u.x, uf.u.y,
            uf.apex.x, uf.apex.y, uf.sigma_z, uf.apex.dist(uf.alt_foot),
        ])
    # Barycentric frame: vertex rows A, B, C and the inverse of [B-A, C-A].
    a, b, c = t.vertices
    m00, m01, m10, m11 = b.x - a.x, c.x - a.x, b.y - a.y, c.y - a.y
    det = m00 * m11 - m01 * m10
    frame = [[a.x, a.y], [b.x, b.y], [c.x, c.y], [m11 / det, -m01 / det], [-m10 / det, m00 / det]]
    return {"segs": segs, "pairs": pairs, "unfolds": unfolds, "frame": frame, "scale": [t.base_length]}


class TriangleKernel:
    """Precomputed unfolding constants plus array evaluators.

    Each constant is a float for a single-triangle kernel and a (T, 1)
    column for a stacked one, so the same code broadcasts over (N,) and
    (T, N) coordinate arrays.
    """

    def __init__(self, t: Triangle | Sequence[Triangle]):
        single = isinstance(t, Triangle)
        per = [_constants(tri) for tri in ((t,) if single else t)]

        def table(key: str) -> np.ndarray:
            # (T, rows, cols) -> (rows, cols) for one triangle, or
            # (rows, cols, T, 1) so that row[i] unpacks into (T, 1) columns.
            arr = np.array([c[key] for c in per], dtype=float)
            return arr[0] if single else np.moveaxis(arr, 0, -1)[..., None]

        self._segs = table("segs")
        self._pairs = table("pairs")
        self._unfolds = table("unfolds")
        self._frame = table("frame")
        self.scale = table("scale")[0]
        self.tol = BOUNDARY_TOL * self.scale

    @property
    def vertices(self) -> np.ndarray:
        """Rows A, B, C: (3, 2) floats, or (3, 2, T, 1) columns when stacked."""
        return self._frame[:3]

    # -- primitives ----------------------------------------------------

    @staticmethod
    def _seg_dist(pts: np.ndarray, key) -> np.ndarray:
        p0x, p0y, dx, dy, dd = key
        x, y = pts[..., 0], pts[..., 1]
        t = ((x - p0x) * dx + (y - p0y) * dy) / dd
        np.clip(t, 0.0, 1.0, out=t)
        return np.hypot(x - (p0x + t * dx), y - (p0y + t * dy))

    def edge_dist(self, pts: np.ndarray, e: EdgeId) -> np.ndarray:
        return self._seg_dist(pts, self._segs[_EDGES.index(e)])

    def ordered2(self, pts: np.ndarray, first: EdgeId, second: EdgeId) -> np.ndarray:
        return self._seg_dist(pts, self._pairs[_PAIR_INDEX[(first, second)]])

    def pair(self, pts: np.ndarray, e1: EdgeId, e2: EdgeId) -> np.ndarray:
        return np.minimum(self.ordered2(pts, e1, e2), self.ordered2(pts, e2, e1))

    def ordered3(self, pts: np.ndarray, order: VisitOrder) -> np.ndarray:
        cx, cy, ux, uy, ax, ay, sigma_z, alt = self._unfolds[_ORDERS.index(order)]
        x, y = pts[..., 0], pts[..., 1]
        rx, ry = x - cx, y - cy
        s_b = rx * ux + ry * uy
        s_z = sigma_z * ((x - ax) * ux + (y - ay) * uy)
        cost_a = np.abs(rx * -uy + ry * ux)
        cost_b = np.hypot(rx, ry)
        cost_c = np.hypot(x - ax, y - ay) + alt
        tol = self.tol
        cost = np.where(s_z < -tol, cost_c, np.where(s_b < -tol, cost_b, cost_a))
        near_z = np.abs(s_z) <= tol
        if near_z.any():
            cost = np.where(near_z, np.minimum(cost, cost_c), cost)
        near_b = (np.abs(s_b) <= tol) & (s_z >= -tol)
        if near_b.any():
            cost = np.where(near_b, np.minimum(cost, np.minimum(cost_a, cost_b)), cost)
        return cost

    # -- fleet costs ----------------------------------------------------

    def r3(self, pts: np.ndarray) -> np.ndarray:
        return np.maximum.reduce([self.edge_dist(pts, e) for e in _EDGES])

    def r3_all(self, pts: np.ndarray) -> np.ndarray:
        """(3, ...) distances in EdgeId declaration order."""
        return np.stack([self.edge_dist(pts, e) for e in _EDGES])

    def r2_partitions(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(singles, pairs, costs), each (3, ...), indexed by the lone edge."""
        singles, pairs = [], []
        for lone in _EDGES:
            rest = [e for e in _EDGES if e is not lone]
            singles.append(self.edge_dist(pts, lone))
            pairs.append(self.pair(pts, rest[0], rest[1]))
        s = np.stack(singles)
        d = np.stack(pairs)
        return s, d, np.maximum(s, d)

    def r2(self, pts: np.ndarray) -> np.ndarray:
        return self.r2_partitions(pts)[2].min(axis=0)

    def r1_all(self, pts: np.ndarray) -> np.ndarray:
        """(6, ...) ordered-visit costs in VisitOrder declaration order."""
        return np.stack([self.ordered3(pts, o) for o in _ORDERS])

    def r1(self, pts: np.ndarray) -> np.ndarray:
        return self.r1_all(pts).min(axis=0)

    def ratio(self, pts: np.ndarray, n: int, m: int) -> np.ndarray:
        return self.cost(pts, n) / self.cost(pts, m)

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


def project_into(k: TriangleKernel, pts: np.ndarray) -> np.ndarray:
    """Clamp points into the closed triangle(s) of ``k`` by barycentric
    truncation; points already inside are returned unchanged.

    Takes and returns the kernel's point shape: (N, 2), or (T, N, 2) for a
    stacked kernel.
    """
    (ax, ay), b, c, (i00, i01), (i10, i11) = k._frame
    px, py = pts[..., 0] - ax, pts[..., 1] - ay
    lam1 = i00 * px + i01 * py
    lam2 = i10 * px + i11 * py
    w = np.stack([1.0 - lam1 - lam2, lam1, lam2])
    inside = (w >= 0.0).all(axis=0)
    if inside.all():
        return pts
    np.clip(w, 0.0, None, out=w)
    w /= w.sum(axis=0)
    out = np.stack([w[0] * ax + w[1] * b[0] + w[2] * c[0], w[0] * ay + w[1] * b[1] + w[2] * c[1]], axis=-1)
    return np.where(inside[..., None], pts, out)
