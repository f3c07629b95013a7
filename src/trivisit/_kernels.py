"""Vectorized costs, and every case and optimum decision, over arrays of
points, for one triangle or a stack of triangles.

A kernel is given the apex A = (p, q) of a standard-form triangle, whose B
and C are (0, 0) and (1, 0), and nothing else.  Two floats give the kernel
of one triangle, which takes points of shape (N, 2) and returns costs of
shape (N,).  Two (T,) columns give a stack of T triangles, every constant
along a leading triangle axis; it takes points of shape (T, N, 2), row t
belonging to triangle t, and returns costs of shape (T, N).

The kernel is the only code that compares costs or indicator coordinates
with the classification slack ``BOUNDARY_TOL``: it picks the admissible
unfolding cases of an ordered three-edge visit, the clamp of an ordered
two-edge visit, the cheaper order of an edge pair, and the optimal orders
(R1), kept partitions with their determining side (R2) and farthest edges
(R3).  Raster maps and ratio maximization read its costs and masks directly;
``visitation`` and ``fleet_costs`` evaluate a kernel of the standard-form
triangle at one point and build witnesses only for what it marks admissible
or optimal.  Since a kernel is given a standard form's apex, its base is
the unit: costs are in base lengths, so every rule reads the constant
``BOUNDARY_TOL`` as its slack, and no kernel carries one of its own.
Callers map points into standard form (``Triangle.standard``) and scale
costs back to the pose.

Two tables hold every cost: the segment table, whose nine members are the
three edges and the six ordered edge pairs, and the unfolding table of the
six ordered three-edge visits.  ``segs_all`` gives all nine, ``r3_all`` the
edges' three and ``r1_all`` the six orders, each in one NumPy broadcast over
its members; ``r2_partitions`` reads its singles and pairs from one
``segs_all`` pass.  Each family is one formula of operators only over one
member's constants, ``_seg_dist`` (the clamp and the norm) or
``_ordered3_cases`` (the three case costs), which reads what it applies
beyond operators from a namespace: ``_ArrayOps`` runs it once over a whole
table, and ``_PointOps`` once per member on the plain floats of one row.
So one point (x, y) costs ``segs_all`` and ``r1_all`` on the row of a
single-triangle kernel of floats, with no NumPy array
(``visitation.StandardPoint``), and such a kernel cuts its tables from the
row only when an array evaluator first reads them.

Each decision rule (the unfolding cases, the farthest edges, R2's kept
partitions with their sides, the optimal orders) is one expression of
operators only, which serves arrays and plain floats alike; the caller
passes in the largest or least cost.  At one point the decisions are made on
plain floats: the costs of its two evaluations, and for the one order whose
witness is built the unfolding cases (``order_cases``), so no array carries
case masks.

At one point a family's cost is its ``hypot`` calls, each a NumPy call on
two floats (about 1 us, against some 50 ns for a float operator), and the
Python overhead of the formula per member; at array scale it is mostly libm
``hypot``: on a stack of 9,632 points one ``hypot`` takes about 170 us
against about 6 us for a subtract or a multiply.  So the three-edge body
takes each case's ``hypot`` only where, or when, that case is admissible,
and nothing loops over a trailing coordinate axis of length 2.

Every constant comes from ``triangle_row``: one flat row per triangle, its
lines from ``line_through`` (the formula of ``Line``) and the rest in the
operation order of ``reflect``, ``project`` and ``Point2.unit``, so that it
equals what those give bit for bit.  The row's layout (the ``_ROW_*`` offsets)
is private to this module: a kernel cuts its tables from the rows, and every
other module reads a row only through a kernel method.  A single-triangle
kernel hands the witnesses of one point, and the R1 locus of ``regions``,
their constants as plain floats read from its row: ``order_witness`` for an
ordered three-edge visit, with the point's indicator coordinates
(``indicators``), and ``pair_witness`` for an ordered two-edge visit, with
the clamp decided at the point.  It decides the order of a pair there
on plain floats too (``pair_order``), with the operations of the array
code.  A stacked kernel of standard-form triangles gives the ratio
maximizer its seeds (``seeds``) and the sweep its side lengths
(``side_lengths``), and repeats its triangles row by row for the boxes of
the ratio certifier (``repeat``).  A kernel of two floats, or
of columns of one, builds its row on plain floats: that is what ``eval``
builds per point, and an array pass costs as much as a dozen float rows.  A
stack of two or more builds all its rows in one array pass of the same
formula over its apex columns and the base's constant ones (``_ColumnOps``),
each entry the float row's bit for bit.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property

import numpy as np

from .geom_core import (
    EdgeId,
    FloatOps,
    Triangle,
    VertexId,
    VisitOrder,
    line_through,
    nearest_on_segment,
    opposite_edge,
    shared_vertex,
)

# Classification slack for indicator lines and ties, in base lengths.
BOUNDARY_TOL = 1e-9
# Cost ties tighter than this are treated as exact when choosing a kind.
EXACT_TIE = 1e-12

_ORDERS = tuple(VisitOrder)
_EDGES = tuple(EdgeId)
_VERTICES = tuple(VertexId)
_PAIRS = tuple((first, second) for first in _EDGES for second in _EDGES if second is not first)
# The nine members of the segment table, a segment row each: the edges (a
# point's cost is its distance to the edge), then the ordered pairs (the
# distance to the second edge's image across the first).
_SEG_INDEX = {member: i for i, member in enumerate(_EDGES + _PAIRS)}

# Layout of a triangle row (``triangle_row``), by offset.  Edges go in EdgeId
# order, ordered pairs in ``_PAIRS`` order and visit orders in VisitOrder
# order; a segment row is p0x, p0y, dx, dy, dx*dx + dy*dy.  The pairs' rows
# follow the edges' directly, so the nine rows are one segment table.
_ROW_LINES = 0                                  # a, b, c of each edge's line
_ROW_LENGTHS = _ROW_LINES + 3 * len(_EDGES)     # each edge's length
_ROW_SEGS = _ROW_LENGTHS + len(_EDGES)          # each edge's segment row
_ROW_PAIRS = _ROW_SEGS + 5 * len(_EDGES)        # segment row pivot -> far image of each pair
_ROW_FARS = _ROW_PAIRS + 5 * len(_PAIRS)        # x, y of each pair's far image
_ROW_UNFOLDS = _ROW_FARS + 2 * len(_PAIRS)      # corner_img, u, apex, sigma_z, altitude per order
_ROW_WITNESS = _ROW_UNFOLDS + 8 * len(_ORDERS)  # line2u a, b, c, far_img, alt_foot per order
# Where each edge's line (a, b, c) and length and each vertex (x, y) sit; an
# edge's segment row starts at its first endpoint, so L's holds A, D's B and
# R's C.
_ROW_LINE = {e: _ROW_LINES + 3 * k for k, e in enumerate(_EDGES)}
_ROW_LENGTH = {e: _ROW_LENGTHS + k for k, e in enumerate(_EDGES)}
_ROW_VERTEX = {e.endpoints[0]: _ROW_SEGS + 5 * k for k, e in enumerate(_EDGES)}


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


def _hypot_columns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``math.hypot`` of each entry of two (T,) columns: ``np.hypot`` rounds
    some inputs differently (12,309 of 2M random pairs)."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, count=len(x))


class _ColumnOps:
    """``FloatOps`` on (T,) float64 columns, for ``line_through`` and
    ``triangle_row``: NumPy's + - * / round as Python's do, and ``copysign``
    and ``where`` only pick signs and values, so every entry equals the
    float formula's on that triangle bit for bit."""

    hypot = _hypot_columns
    copysign = np.copysign
    any = np.ndarray.any
    where = np.where


def triangle_row(ax, ay, bx, by, cx, cy, ops=FloatOps) -> list:
    """Every kernel and witness constant of the triangle with vertices A, B,
    C, as one flat list in the ``_ROW_*`` layout: plain floats, or with
    ``_ColumnOps`` one (T,) column per entry from (T,) vertex columns, a
    stack's rows in one pass.  Its lines come from ``line_through`` and
    every other value follows the operation order of ``reflect``,
    ``project`` and ``Point2.unit``, so it equals the one those give bit for
    bit.  Every length it divides by is a side's, or a side's image under
    reflections, which keep it, and the area gate keeps every side of a
    triangle above zero."""
    xs, ys = (ax, bx, cx), (ay, by, cy)
    lines, lengths, segs = [], [], []
    for i, j in _EDGE_ENDS:
        px, py, qx, qy = xs[i], ys[i], xs[j], ys[j]
        a, b, c, n = line_through(px, py, qx, qy, ops)
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
        a2, b2, c2, _ = line_through(apx, apy, cix, ciy, ops)
        d = a2 * bvx + b2 * bvy + c2
        fix, fiy = bvx - 2 * d * a2, bvy - 2 * d * b2
        vx, vy = fix - cix, fiy - ciy
        n = ops.hypot(vx, vy)
        ux, uy = vx / n, vy / n
        sigma_z = ops.copysign(1.0, ux * (bvx - apx) + uy * (bvy - apy))
        # Foot of the apex on the third edge's line.
        a, b, c = lines[3 * k3:3 * k3 + 3]
        d = a * apx + b * apy + c
        ftx, fty = apx - d * a, apy - d * b
        unfolds += (cix, ciy, ux, uy, apx, apy, sigma_z, ops.hypot(apx - ftx, apy - fty))
        witness += (a2, b2, c2, fix, fiy, ftx, fty)
    return lines + lengths + segs + pairs + fars + unfolds + witness


# Row offset and width of each field of ``TriangleKernel.order_witness``, and
# the row offsets that ``TriangleKernel.pair_witness`` reads: the pair's
# segment row (which starts at the pivot), its first edge's line, its far
# vertex and that vertex's image.
_ORDER_WITNESS = {
    order: (
        (_ROW_LINE[e1], 3), (_ROW_WITNESS + 7 * k, 3), (_ROW_UNFOLDS + 8 * k, 2), (_ROW_UNFOLDS + 8 * k + 2, 2),
        (_ROW_UNFOLDS + 8 * k + 4, 2), (_ROW_WITNESS + 7 * k + 5, 2), (_ROW_VERTEX[shared_vertex(e2, e3)], 2),
        (_ROW_WITNESS + 7 * k + 3, 2), (_ROW_UNFOLDS + 8 * k + 6, 1),
    )
    for k, (order, (e1, e2, e3)) in enumerate((o, o.edges) for o in _ORDERS)
}
_PAIR_WITNESS = {
    (first, second): (
        _ROW_PAIRS + 5 * j, _ROW_LINE[first], _ROW_VERTEX[_other_end(second, shared_vertex(first, second))],
        _ROW_FARS + 2 * j,
    )
    for j, (first, second) in enumerate(_PAIRS)
}


def _unfold_coords(x, y, table) -> tuple:
    """(rx, ry, qx, qy, s_b, s_z) of the point (x, y) against the unfolding
    constants (corner_img, u, apex, sigma_z, ...) ``table``: r runs from the
    corner image and q from the apex to the point, and s_b and s_z are its
    coordinates across the bounce and subopt lines.  Only operators are
    applied, so the one expression serves arrays (``_ordered3_cases``) and
    the plain floats of one point (``TriangleKernel.indicators``) alike."""
    cx, cy, ux, uy, ax, ay, sigma_z, _ = table
    rx, ry = x - cx, y - cy
    qx, qy = x - ax, y - ay
    return rx, ry, qx, qy, rx * ux + ry * uy, sigma_z * (qx * ux + qy * uy)


# The unfolding cases in the order of ``_unfold_masks``.
_CASE_KINDS = (
    StrategyKind.SUBOPT_VERTEX_ALTITUDE, StrategyKind.DEGENERATE_VERTEX_BOUNCE, StrategyKind.BOUNCING,
)


def _unfold_masks(s_b, s_z) -> tuple:
    """Whether each unfolding case of ``_CASE_KINDS`` is admissible at the
    indicator coordinates s_b and s_z (``_unfold_coords``), within
    ``BOUNDARY_TOL`` of its side of the subopt and bounce lines."""
    past_subopt = s_z >= -BOUNDARY_TOL
    return s_z <= BOUNDARY_TOL, past_subopt & (s_b <= BOUNDARY_TOL), past_subopt & (s_b >= -BOUNDARY_TOL)


def _unfold_cases(s_b, s_z) -> dict:
    """Each unfolding case mapped to whether ``_unfold_masks`` admits it."""
    return dict(zip(_CASE_KINDS, _unfold_masks(s_b, s_z)))


class _ArrayOps:
    """What ``_seg_dist`` and ``_ordered3_cases`` apply beyond operators, on
    the arrays of a table and of point coordinates: ``clamp`` to [0, 1] and
    ``minimum``, each in place on a fresh array, ``hypot`` and ``abs``, and
    ``masked``, ``f`` of the arguments where ``mask`` holds and inf
    elsewhere, which calls ``f`` only there (``where=``)."""

    hypot = np.hypot
    abs = np.abs

    def clamp(t):
        return np.clip(t, 0.0, 1.0, out=t)

    def minimum(a, b):
        return np.minimum(a, b, out=a)

    def masked(f, mask, *args):
        return f(*args, out=np.full(mask.shape, np.inf), where=mask)


class _PointOps:
    """The operations of ``_ArrayOps`` on the plain floats of one member at
    one point.  ``hypot`` is NumPy's, on two floats: it rounds as the array
    code does, and ``math.hypot`` does not (``_hypot_columns``).  ``clamp``
    keeps the sign of a zero, which ``np.clip`` may not; the distance does
    not depend on it, since a zero t only moves the sign of a zero argument
    of ``hypot``.  ``masked`` calls ``f`` only when the case is
    admissible."""

    abs = abs
    minimum = min

    def hypot(x, y):
        return float(np.hypot(x, y))

    def clamp(t):
        return 0.0 if t < 0.0 else 1.0 if t > 1.0 else t

    def masked(f, mask, *args):
        return f(*args) if mask else math.inf


def _seg_dist(x, y, seg, ops):
    """Distance from the point (x, y) to the segment whose row (p0x, p0y,
    dx, dy, dx*dx + dy*dy) is ``seg``: its foot's parameter clamped to [0,
    1], then the norm.  With ``_ArrayOps`` each field of ``seg`` is a
    (count, 1) or (count, T, 1) array, which broadcasts against (N,) or (T,
    N) coordinates; with ``_PointOps`` all are plain floats."""
    p0x, p0y, dx, dy, dd = seg
    t = ops.clamp(((x - p0x) * dx + (y - p0y) * dy) / dd)
    return ops.hypot(x - (p0x + t * dx), y - (p0y + t * dy))


def _ordered3_cases(x, y, table, ops):
    """Costs at the point (x, y) of the ordered three-edge visits whose
    unfolding constants (corner_img, u, apex, sigma_z, altitude) are
    ``table``: the minimum over the unfolding cases that ``_unfold_masks``
    admits.  With ``_ArrayOps`` each field of ``table`` is a (6, 1) or (6,
    T, 1) array, which broadcasts against (N,) or (T, N) coordinates; with
    ``_PointOps`` all are plain floats of one order."""
    rx, ry, qx, qy, s_b, s_z = _unfold_coords(x, y, table)
    subopt, degenerate, bouncing = _unfold_masks(s_b, s_z)
    # Each case cost only where the case is admissible, inf elsewhere: at
    # array scale one ``hypot`` costs as much as 25 or more subtracts, and
    # over the 24-per-side lattices of the 5 deg cells the subopt case is
    # admissible at 16% of order-points and the degenerate case at 52%; at
    # one point a ``hypot`` is a NumPy call.  inf + alt is inf, so the
    # subopt cost takes its altitude unmasked.
    ux, uy, alt = table[2], table[3], table[7]
    cost = ops.masked(ops.hypot, subopt, qx, qy)
    cost += alt
    cost = ops.minimum(cost, ops.masked(ops.hypot, degenerate, rx, ry))
    return ops.minimum(cost, ops.masked(ops.abs, bouncing, ry * ux - rx * uy))


# The orders (first, second) and (second, first) of the pair of edges left by
# each lone edge, as indices into the segment table, in EdgeId order of the
# lone edge; ``r2_partitions`` indexes with the first orders and the second
# orders as two lists.
_LONE_PAIRS = tuple(
    (_SEG_INDEX[(first, second)], _SEG_INDEX[(second, first)])
    for first, second in ([e for e in _EDGES if e is not lone] for lone in _EDGES)
)
_LONE_FIRST, _LONE_SECOND = (list(orders) for orders in zip(*_LONE_PAIRS))
# Where each member's constants sit in a triangle row: the nine segment rows,
# and the six orders' unfolding constants.
_SEG_MEMBERS = tuple((at, at + 5) for at in range(_ROW_SEGS, _ROW_FARS, 5))
_UNFOLD_MEMBERS = tuple((at, at + 8) for at in range(_ROW_UNFOLDS, _ROW_WITNESS, 8))


class TriangleKernel:
    """Triangle rows of the standard-form triangles of apexes (p, q), plus
    the array evaluators of their two cost tables, and the decision rules
    that read the costs.

    Like ``line_through``, it takes floats or columns.  ``rows`` holds one
    ``triangle_row`` per triangle: a list of one row of plain floats for the
    single-triangle kernel of floats p and q, for the witness views, and a
    (T, row width) array for a stack of (T,) columns, from one array pass
    over them when it holds two or more triangles.  Each table is one (width,
    count, ...) array cut from the rows, so ``table[:, k]`` unpacks into the
    fields of member k and ``table`` into those of every member: (1,) or
    (count, 1) arrays for one triangle, (T, 1) or (count, T, 1) for a stack,
    which broadcast against (N,) and (T, N) coordinate arrays.  A table is
    built when an array evaluator first reads it, so a single-triangle
    kernel evaluated only at a point (x, y), on the plain floats of its row,
    builds no NumPy array.
    """

    def __init__(self, p, q):
        if isinstance(p, float):
            self.rows = [triangle_row(p, q, 0.0, 0.0, 1.0, 0.0)]
        else:
            p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
            if len(p) < 2:
                self.rows = np.array([triangle_row(x, y, 0.0, 0.0, 1.0, 0.0) for x, y in zip(p.tolist(), q.tolist())])
            else:
                # One array pass of the row formula over the stack's apex
                # columns; its fixed cost is that of about a dozen float
                # rows.  The area gate keeps an apex below 5e11 base
                # lengths, so no entry comes near overflow.
                zeros = np.zeros_like(p)
                self.rows = np.array(triangle_row(p, q, zeros, zeros, zeros + 1.0, zeros, ops=_ColumnOps)).T

    @cached_property
    def _segs(self) -> np.ndarray:
        return self._table(_ROW_SEGS, len(_SEG_INDEX), 5)

    @cached_property
    def _unfolds(self) -> np.ndarray:
        return self._table(_ROW_UNFOLDS, len(_ORDERS), 8)

    def _table(self, at: int, count: int, width: int) -> np.ndarray:
        """The (width, count, ...) table of ``count`` members of ``width``
        fields each, from row offset ``at``.  .T rather than np.moveaxis,
        which costs about 6 us more per table."""
        flat = np.array(self.rows[0]) if isinstance(self.rows, list) else self.rows
        r = flat[..., at:at + count * width]
        return r.reshape(r.shape[:-1] + (count, width)).T[..., None]

    def repeat(self, counts: np.ndarray) -> TriangleKernel:
        """The stacked kernel in which this stack's triangle t comes
        ``counts[t]`` times in a row, for one point per row: the ratio
        certifier's boxes, grouped by triangle.  Only the two cost tables
        are built, so the new kernel evaluates costs but has no rows (no
        seeds or witnesses).  Each field comes out contiguous, which fancy
        indexing would not give: it puts the row axis outermost, and with one
        point per row that stride made every cost several times slower.
        Repeating from a contiguous copy of the tables, not from the strided
        view of the rows, takes about 40% less time."""
        k = object.__new__(TriangleKernel)
        k.rows = None
        k._segs, k._unfolds = (
            np.repeat(np.ascontiguousarray(table), counts, axis=2) for table in (self._segs, self._unfolds)
        )
        return k

    # -- a single-triangle kernel at one point, on plain floats ----------

    def order_witness(self, order: VisitOrder) -> tuple[list[float], ...]:
        """(line1, line2u, corner_img, u, apex, alt_foot, corner, far_img,
        [sigma_z]) of ``order``'s unfolding: line1 is the first edge's line,
        line2u the once-unfolded second edge's line, corner_img and far_img
        the ends of the twice-unfolded third edge, u the unit vector from the
        one to the other, apex the vertex of the first two edges, alt_foot its
        foot on the third edge's line, corner the vertex of the last two edges
        and sigma_z the orientation of the positive subopt side.  The lines
        are [a, b, c] and the points and ``u`` [x, y].  The witnesses read
        the first seven fields; the R1 locus of ``regions`` reads the bounce
        and subopt lines (corner_img, u, apex, sigma_z), alt_foot and
        far_img."""
        row = self.rows[0]
        return tuple(row[at:at + width] for at, width in _ORDER_WITNESS[order])

    def pair_witness(self, x: float, y: float, first: EdgeId, second: EdgeId) -> tuple:
        """(kind, tau, line1, pivot, far, far_img) of the visit of ``first``
        then ``second`` from the point (x, y), in plain floats: line1 is
        ``first``'s line [a, b, c], pivot the shared vertex, far the other
        end of ``second`` and far_img its reflection across line1, each
        [x, y].  tau is the point's unclamped foot on ``second`` reflected
        across ``first`` (0 at pivot, 1 at far_img), with the operations of
        ``_seg_dist`` before its clamp; the kind is a run to the vertex or a
        bounce ending on the far vertex within ``EXACT_TIE`` of either end, a
        bounce between."""
        row = self.rows[0]
        seg, line1, far, far_img = _PAIR_WITNESS[first, second]
        p0x, p0y, dx, dy, dd = row[seg:seg + 5]
        tau = ((x - p0x) * dx + (y - p0y) * dy) / dd
        if tau <= EXACT_TIE:
            kind = StrategyKind.DIRECT_TO_VERTEX
        elif tau >= 1.0 - EXACT_TIE:
            kind = StrategyKind.DEGENERATE_VERTEX_BOUNCE
        else:
            kind = StrategyKind.BOUNCING
        return kind, tau, row[line1:line1 + 3], [p0x, p0y], row[far:far + 2], row[far_img:far_img + 2]

    def indicators(self, x: float, y: float, order: VisitOrder) -> tuple[float, float]:
        """(s_b, s_z) of the point (x, y) for ``order`` on a single-triangle
        kernel, its coordinates across the bounce and subopt lines, by
        ``_unfold_coords`` on the row's plain floats."""
        at = _ROW_UNFOLDS + 8 * _ORDERS.index(order)
        return _unfold_coords(x, y, self.rows[0][at:at + 8])[4:]

    def order_cases(self, x: float, y: float, order: VisitOrder) -> dict:
        """The unfolding cases of ``order`` at the point (x, y) of a
        single-triangle kernel, each mapped to whether it is admissible there,
        decided on its ``indicators`` by ``_unfold_cases``, the rule of the
        array code."""
        return _unfold_cases(*self.indicators(x, y, order))

    def pair_order(self, x: float, y: float, segs: list[float], e1: EdgeId, e2: EdgeId) -> tuple[bool, bool]:
        """(e1_first, tie) at the point (x, y) of a single-triangle kernel:
        whether the cheaper visit of the pair touches ``e1`` first, and
        whether both orders are within tol, in which case the nearer edge
        goes first (``e1`` when equally near).  ``segs`` holds the nine
        segment costs at the point (``segs_all``) as plain floats."""
        c12, c21 = segs[_SEG_INDEX[(e1, e2)]], segs[_SEG_INDEX[(e2, e1)]]
        if not abs(c12 - c21) <= BOUNDARY_TOL:
            return c12 < c21, False
        row = self.rows[0]
        d1, d2 = (
            nearest_on_segment(x, y, *row[_ROW_VERTEX[a]:_ROW_VERTEX[a] + 2],
                               *row[_ROW_VERTEX[b]:_ROW_VERTEX[b] + 2])[2]
            for a, b in (e1.endpoints, e2.endpoints)
        )
        return d1 <= d2, True

    # -- a stacked kernel of standard-form triangles ---------------------

    def seeds(self) -> np.ndarray:
        """(T, 4, 2) seeds of a stacked kernel of standard-form triangles:
        the incenter, then the altitude midpoints from A, B and C.

        Only ``+ - * /`` are applied to the rows, which NumPy rounds exactly
        as Python does, so each seed equals ``incenter`` or
        ``altitude_midpoint`` bit for bit.  The incenter uses the standard
        form's B = (0, 0) and C = (1, 0), with the rows' lengths of AB and
        AC."""
        rows = self.rows
        q = rows[:, _ROW_VERTEX[VertexId.A] + 1]
        ab, ac = rows[:, _ROW_LENGTH[EdgeId.L]], rows[:, _ROW_LENGTH[EdgeId.R]]
        seeds = [((ab - ac + 1.0) / 2, q / (1.0 + ac + ab))]
        for v in _VERTICES:
            x, y = rows[:, _ROW_VERTEX[v]], rows[:, _ROW_VERTEX[v] + 1]
            at = _ROW_LINE[opposite_edge(v)]
            a, b, c = rows[:, at], rows[:, at + 1], rows[:, at + 2]
            d = a * x + b * y + c
            seeds.append(((x + (x - d * a)) / 2, (y + (y - d * b)) / 2))
        return np.stack([np.stack(xy, axis=-1) for xy in seeds], axis=1)

    def side_lengths(self) -> np.ndarray:
        """(T, 3) lengths of the sides opposite A, B and C of a stacked
        kernel's triangles, as its rows hold them: ``math.hypot`` of a side's
        coordinate differences, which is the same bits taken from either
        end."""
        return self.rows[:, [_ROW_LENGTH[opposite_edge(v)] for v in _VERTICES]]

    # -- the evaluators ----------------------------------------------------
    #
    # ``segs_all`` and ``r1_all`` take an array of points, or one point (x,
    # y) of plain floats on a single-triangle kernel of floats, as the
    # constructor takes columns or floats.  An array goes through each
    # family's formula once, over its table (``_ArrayOps``); a point goes
    # through it once per member, on that member's constants in the row
    # (``_PointOps``), and gets a list of plain floats.

    def _at_point(self, formula, point, members) -> list[float]:
        x, y = point
        row = self.rows[0]
        return [formula(x, y, row[at:to], _PointOps) for at, to in members]

    def segs_all(self, pts):
        """(9, ...) costs of the nine members of the segment table: the three
        point-to-edge distances in EdgeId order, then the six ordered two-edge
        visits in ``_PAIRS`` order."""
        if isinstance(pts, tuple):
            return self._at_point(_seg_dist, pts, _SEG_MEMBERS)
        return _seg_dist(pts[..., 0], pts[..., 1], self._segs, _ArrayOps)

    def r3_all(self, pts: np.ndarray) -> np.ndarray:
        """(3, ...) point-to-edge distances in EdgeId declaration order: the
        edges' members of the segment table only, so that R3 alone does not
        pay for the pairs."""
        return _seg_dist(pts[..., 0], pts[..., 1], self._segs[:, :len(_EDGES)], _ArrayOps)

    def r1_all(self, pts):
        """(6, ...) ordered three-edge visit costs in VisitOrder declaration
        order."""
        if isinstance(pts, tuple):
            return self._at_point(_ordered3_cases, pts, _UNFOLD_MEMBERS)
        return _ordered3_cases(pts[..., 0], pts[..., 1], self._unfolds, _ArrayOps)

    def r2_partitions(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(singles, pairs, costs), each (3, ...), indexed by the lone edge:
        a pair costs the cheaper of its two orders, a partition the larger of
        its two robots' costs.  Singles and pairs are read from one
        ``segs_all`` pass, which is faster than a call per member at one
        point, on a sweep chunk and on a raster block alike."""
        segs = self.segs_all(pts)
        singles = segs[:len(_EDGES)]
        pairs = np.minimum(segs[_LONE_FIRST], segs[_LONE_SECOND])
        return singles, pairs, np.maximum(singles, pairs)

    # -- one decision rule each, for arrays and for plain floats ---------
    #
    # Only operators, so that one expression serves (count, ...) arrays of
    # costs and the plain floats of one member at one point; the caller
    # passes the largest or least cost over the members.

    def farthest_edges(self, dists, largest):
        """Whether each of ``dists`` (from ``r3_all``, or the singles of
        ``r2_partitions``) is within tol of ``largest``, their largest."""
        return dists >= largest - BOUNDARY_TOL

    def r2_sides(self, singles, pairs, costs, least):
        """Code per lone edge, from ``r2_partitions``: 0 unless its partition
        is within tol of ``least``, the cheapest of ``costs``, else which
        cost determines it: 1 the drop, 2 the pair visit, 3 both within tol."""
        gap = singles - pairs
        return ((gap >= -BOUNDARY_TOL) + 2 * (gap <= BOUNDARY_TOL)) * (costs <= least + BOUNDARY_TOL)

    def optimal_orders(self, costs, least):
        """Whether each of ``costs`` (from ``r1_all``) is within tol of
        ``least``, their cheapest."""
        return costs <= least + BOUNDARY_TOL

    def costs(self, pts: np.ndarray, *robots: int) -> list[np.ndarray]:
        """R1, R2 or R3 at ``pts`` for each fleet size in ``robots``, in
        order, with each family evaluated once: when R2 is asked for, R3 is
        read from the singles of ``r2_partitions``, the first three members
        of its ``segs_all`` pass."""
        for r in robots:
            if r not in (1, 2, 3):
                raise ValueError(f"fleet size must be 1, 2 or 3, got {r!r}")
        by_size = {}
        if 1 in robots:
            by_size[1] = self.r1_all(pts).min(axis=0)
        if 2 in robots:
            singles, _, r2 = self.r2_partitions(pts)
            by_size[2] = r2.min(axis=0)
        elif 3 in robots:
            singles = self.r3_all(pts)
        if 3 in robots:
            by_size[3] = singles.max(axis=0)
        return [by_size[r] for r in robots]


def barycentric_grid(t: Triangle, n: int) -> np.ndarray:
    """Cartesian points of the n-per-side barycentric lattice of ``t``, (N, 2),
    vertices included."""
    if n < 2:
        raise ValueError("grid needs at least 2 points per side")
    verts = np.asarray(t.vertices, dtype=float)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    keep = ii + jj <= n - 1
    i = ii[keep].astype(float)
    j = jj[keep].astype(float)
    wa = i / (n - 1)
    wb = j / (n - 1)
    wc = 1.0 - wa - wb
    # wa*A + wb*B + wc*C one coordinate at a time, the same operations in the
    # same order: a ufunc over a trailing axis of length 2 is several times
    # slower per element.
    out = np.empty(wa.shape + (2,))
    for d in range(2):
        a, b, c = (verts[k, d, None] for k in range(3))
        np.add(wa * a + wb * b, wc * c, out=out[:, d])
    return out
