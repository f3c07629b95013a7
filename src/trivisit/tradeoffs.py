"""Worst-case fleet-size ratio maximization and triangle-space sweeps.

For one triangle, ``max_ratio`` maximizes R_n/R_m over starting points as
the best of the seeds: the incenter and the three altitude midpoints, where
the paper places the maximizers of the three ratio pairs.
``sweep_triangles`` does the same over an angle grid and tracks the running
infimum and supremum; infima are limits over degenerating shapes, so they
are reported as approached, never attained.  Both evaluate ``_maximize`` on
a stacked kernel, which gives (argmax x, argmax y, R_n, R_m) as columns:
``max_ratio`` on a batch of one triangle, ``sweep_triangles`` on chunks of
one cell per triangle, the one with A >= B >= C.  The seeds come from the
kernel (``TriangleKernel.seeds``), with the arithmetic of ``incenter`` and
``altitude_midpoint``.

A sweep is a few array passes from its grid to its rows: one over the
integer (i, j) lattice (``_sweep_cells``), the kernels of its computed
cells, and one that fills every row from its computed row
(``_sweep_columns``), whose columns become the rows.

``certify_max_ratio`` proves that a triangle's maximum is at most the
seeds' value plus a slack delta, by a Lipschitz
branch-and-bound over sub-triangles; criterion 14 of ``verify`` runs it on
every computed cell of the 1 deg sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._kernels import BOUNDARY_TOL, TriangleKernel
from .geom_core import Point2, Triangle, vertex_from_angles

_PAIRS = ((1, 2), (1, 3), (2, 3))
# Sweep cells per stacked kernel.  A kernel of two or more triangles builds
# its rows in one array pass whose fixed cost is about a dozen one-triangle
# rows, so every computed cell of a 5 or 1 deg sweep shares one kernel; 1,024
# rows of 159 floats are 1.3 MB, which bounds the memory of a finer sweep's
# batch.  The columns that fill the rows span the whole grid, and they are
# freed before the rows are built (``_sweep_columns``).
_CHUNK = 1024
# Most angles per axis of a sweep grid, floor(90 / step), which admits every
# step of 0.09 deg or more.  A grid has about half the square of its angle
# count in rows, and a row holds some 490 bytes, 600 at peak: 1,000 angles
# make some 500,000 rows, 245 MB kept and 300 MB at peak.  The 0.1 deg grid
# has 900 angles and 406,288 rows, for which a fresh process kept 191 MB of
# RSS and peaked 234 MB above its start.  The check comes before the angle
# list, whose length a tiny step would make unbounded.
_MAX_SWEEP_ANGLES = 1000


def ratio_at(t: Triangle, p: Point2, n: int, m: int) -> float:
    """R_n / R_m at one starting point, evaluated in standard form."""
    _check_pair(n, m)
    std, sim = t.standard()
    rn, rm = TriangleKernel(*std.a).costs(np.array([sim.apply(t.require_inside(p))]), n, m)
    return float(rn[0] / rm[0])


def _check_pair(n: int, m: int) -> None:
    if (n, m) not in _PAIRS:
        raise ValueError(f"ratio pair must be one of {_PAIRS}, got ({n}, {m})")


@dataclass(frozen=True)
class RatioReport:
    pair: tuple[int, int]
    ratio: float
    argmax: Point2              # standard-form coordinates
    rn: float
    rm: float


def max_ratio(t: Triangle, n: int, m: int) -> RatioReport:
    """Maximize R_n/R_m over the closed triangle: the best of the seeds,
    computed as the sweep computes its rows (``_maximize``).

    The ratio is the seeds' value, so a lower bound on the maximum, and the
    maximum to within the slack of ``verify._CERT_DELTA`` wherever
    ``certify_max_ratio`` proves it: on every computed cell of the 1 deg
    sweep (criterion 14 of ``verify``), and, in the tests, on the thin
    isosceles triangles of criterion 7.
    """
    _check_pair(n, m)
    p, q = t.standard()[0].a
    [x], [y], [rn], [rm] = (c.tolist() for c in _maximize(TriangleKernel([p], [q]), n, m))
    return RatioReport((n, m), rn / rm, Point2(x, y), rn, rm)


def _maximize(k: TriangleKernel, n: int, m: int) -> tuple[np.ndarray, ...]:
    """(argmax x, argmax y, R_n, R_m) columns of the best seed of each
    triangle of the stacked kernel ``k`` of standard forms.

    One stacked kernel evaluates every triangle's seeds.  Row i of every
    array belongs to triangle i, so each triangle's result does not depend
    on the others in the batch.
    """
    pts = k.seeds()
    rn, rm = k.costs(pts, n, m)
    t, at = np.arange(len(rn)), np.argmax(rn / rm, axis=1)
    return pts[t, at, 0], pts[t, at, 1], rn[t, at], rm[t, at]


# Forward error of the kernel's cost at a box centroid, by fleet size, in
# base lengths: how far R1, R2 or R3 of the exact centroid may lie from the
# kernel's float value there.  R1 takes the least of the unfolding cases
# admitted within ``BOUNDARY_TOL`` of their guard lines, which are parallel
# lines, and a case admitted that far past its line costs at most
# 2 * BOUNDARY_TOL less than the true one: both costs are 1-Lipschitz and
# meet on the line.  R2 and R3 make no such choice in their costs.  The
# 1e-12 covers float rounding of the costs and the drift of the centroids,
# one rounding per level: under 1e-14, since past about 55 levels the
# splits fall below float spacing, every kept box keeps its four children
# and the box cap stops the triangle within a dozen more.  At 6,000 sampled
# centroids of the 5 deg certificates the kernel was within 1.2e-16 of
# ``oracle_costs`` for R2 and R3, and within 9.7e-12 for R1, where the
# oracle's golden sections stop; with the case slack at 0 no R1 moved at
# any of their 1.3M centroids.
COST_ERROR = {1: 2 * BOUNDARY_TOL + 1e-12, 2: 1e-12, 3: 1e-12}
_BOX_CAP = 2_000_000   # boxes evaluated per triangle before it is given up
_BOX_CHUNK = 16384     # boxes per kernel call: bounds the repeated tables
_CERT_GROUP = 32       # triangles certified together: bounds the boxes of a level


@dataclass(frozen=True)
class RatioCertificate:
    """Branch-and-bound verdict on max R_n/R_m over one closed triangle.

    ``status`` is ``certified`` when every box was dropped, so that ``upper``
    is at most ``lower`` + delta; ``refuted`` when a box centroid's ratio
    exceeds ``lower`` + delta, and ``witness`` is that centroid (the one
    with the largest ratio, standard-form coordinates); ``uncertified`` when
    the triangle reached the box cap first.  ``upper`` bounds the maximum in
    every case: it is the largest bound over the dropped boxes and those
    still open when the triangle stopped.
    """

    pair: tuple[int, int]
    status: str
    lower: float
    upper: float
    boxes: int
    witness: Point2 | None


def certify_max_ratio(
    p: Sequence[float], q: Sequence[float], n: int, m: int, delta: float,
) -> list[RatioCertificate]:
    """Prove max R_n/R_m <= lower + ``delta`` over each closed standard-form
    triangle, whose apexes are (p[i], q[i]), by a Lipschitz branch-and-bound
    (Piyavskii 1972, Shubert 1972).

    The lower bounds are the seeds' values, computed as the sweep computes
    its rows (``_maximize``).  R1, R2 and R3 are each 1-Lipschitz in P, so
    on a box (a sub-triangle) with centroid c and centroid-to-vertex radius h

        R_n/R_m <= (R_n(c) + e_n + h) / (R_m(c) - e_m - h)

    wherever the denominator is positive, with e the kernel's forward error
    (``COST_ERROR``).  From the whole triangle, a box is dropped when this
    bound is at most lower + delta; each kept box splits into four at its
    edge midpoints.  ``_CERT_GROUP`` triangles run together, and each level's
    open boxes of all of them are evaluated ``_BOX_CHUNK`` at a time on the
    kernel repeated per box (``TriangleKernel.repeat``).

    A box is its centroid and an orientation s = +-1: at level k each box is
    its root triangle scaled by 2^-k about its centroid, turned by 180 deg
    when s = -1.  With the root's centroid-to-vertex offsets o_i, the corner
    children of a box at c are centered at c + s 2^-(k+1) o_i, and the
    middle child at c with s negated.
    """
    _check_pair(n, m)
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    _, _, rn, rm = _maximize(TriangleKernel(p, q), n, m)
    lowers = rn / rm
    out = []
    for lo in range(0, len(p), _CERT_GROUP):
        at = slice(lo, lo + _CERT_GROUP)
        out += _branch_and_bound(p[at], q[at], n, m, delta, lowers[at])
    return out


def _branch_and_bound(
    p: np.ndarray, q: np.ndarray, n: int, m: int, delta: float, lowers: Sequence[float],
) -> list[RatioCertificate]:
    """``certify_max_ratio`` on one group of triangles, all at once."""
    lower = np.array(lowers, dtype=float)
    cut = lower + delta
    en, em = COST_ERROR[n], COST_ERROR[m]
    kernel = TriangleKernel(p, q)
    verts = np.zeros((len(p), 3, 2))
    verts[:, 0, 0], verts[:, 0, 1], verts[:, 2, 0] = p, q, 1.0  # A = (p, q), B = (0, 0), C = (1, 0)
    center = (verts[:, 0] + verts[:, 1] + verts[:, 2]) / 3
    offsets = verts - center[:, None, :]
    radius = np.hypot(offsets[..., 0], offsets[..., 1]).max(axis=1)
    count = len(p)
    upper = np.full(count, -np.inf)
    boxes = np.zeros(count, dtype=np.int64)
    refuted, stopped = np.zeros(count, dtype=bool), np.zeros(count, dtype=bool)
    witness = [None] * count
    cell, c, s, parent = np.arange(count), center, np.ones(count), np.full(count, np.inf)
    level = 0
    while cell.size:
        # A triangle that would pass the cap stops with its open boxes'
        # parent bounds.
        level_boxes = np.bincount(cell, minlength=count)
        full = boxes + level_boxes > _BOX_CAP
        if full.any():
            stop = full[cell]
            _fold_max(upper, cell[stop], parent[stop])
            stopped |= full
            cell, c, s, parent = cell[~stop], c[~stop], s[~stop], parent[~stop]
            level_boxes[full] = 0
        boxes += level_boxes
        rn, rm = np.empty(len(cell)), np.empty(len(cell))
        for lo in range(0, len(cell), _BOX_CHUNK):
            at = slice(lo, lo + _BOX_CHUNK)
            stack = kernel.repeat(np.bincount(cell[at], minlength=count))
            rn[at], rm[at] = (v[:, 0] for v in stack.costs(c[at, None, :], n, m))
        # The boxes are grouped by triangle, so per-triangle values repeat
        # into per-box ones.
        scale = math.ldexp(1.0, -level)
        h = np.repeat(radius * scale, level_boxes)
        limit = np.repeat(cut, level_boxes)
        ratio = rn / rm
        den = rm - em - h
        bound = np.divide(rn + en + h, den, out=np.full(len(cell), np.inf), where=den > 0)
        keep = bound > limit
        over = ratio > limit
        if over.any():
            # A refuted triangle stops: all its boxes count as dropped.
            for t in np.unique(cell[over]).tolist():
                mine = np.flatnonzero(over & (cell == t))
                best = mine[np.argmax(ratio[mine])]
                witness[t] = Point2(float(c[best, 0]), float(c[best, 1]))
            refuted[cell[over]] = True
            keep &= ~refuted[cell]
        _fold_max(upper, cell, np.where(keep, -np.inf, bound))
        # Each box's four children in a row, so that the boxes stay grouped
        # by triangle, as ``TriangleKernel.repeat`` lays out its rows.
        kept = np.flatnonzero(keep)
        kc, kcen, ks = cell[kept], c[kept], s[kept]
        corners = kcen[:, None, :] + offsets[kc] * (ks * (scale / 2))[:, None, None]
        cell = np.repeat(kc, 4)
        c = np.concatenate([corners, kcen[:, None, :]], axis=1).reshape(-1, 2)
        s = (ks[:, None] * [1.0, 1.0, 1.0, -1.0]).reshape(-1)
        parent = np.repeat(bound[kept], 4)
        level += 1
    status = np.where(refuted, "refuted", np.where(stopped, "uncertified", "certified"))
    return [
        RatioCertificate((n, m), str(status[t]), float(lower[t]), float(upper[t]), int(boxes[t]), witness[t])
        for t in range(count)
    ]


def _fold_max(out: np.ndarray, cell: np.ndarray, values: np.ndarray) -> None:
    """out[t] = max(out[t], every value of triangle t), for boxes grouped by
    triangle (``cell`` sorted)."""
    if cell.size:
        start = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        at = cell[start]
        out[at] = np.maximum(out[at], np.maximum.reduceat(values, start))


_SHAPE_TOL = 0.51  # degrees


def describe_shape(angles_deg: tuple[float, float, float]) -> str:
    """Coarse shape classification of an angle triple, in degrees."""
    s = sorted(angles_deg, reverse=True)
    if all(abs(a - 60.0) <= _SHAPE_TOL for a in s):
        return "equilateral"
    if abs(s[0] - 90.0) <= _SHAPE_TOL and abs(s[1] - 45.0) <= _SHAPE_TOL:
        return "right isosceles"
    two_equal = abs(s[0] - s[1]) <= _SHAPE_TOL or abs(s[1] - s[2]) <= _SHAPE_TOL
    if two_equal and s[2] <= 15.0:
        return "thin isosceles"
    if abs(s[0] - 90.0) <= _SHAPE_TOL:
        return "right"
    if two_equal:
        return "isosceles"
    return "scalene"


@dataclass(frozen=True)
class SweepRow:
    b_deg: float
    c_deg: float
    ratio: float
    argmax: Point2
    rn: float
    rm: float

    @property
    def angles_deg(self) -> tuple[float, float, float]:
        return (180.0 - self.b_deg - self.c_deg, self.b_deg, self.c_deg)


_SHAPE_PRIORITY = {
    "equilateral": 0,
    "right isosceles": 1,
    "thin isosceles": 2,
    "right": 3,
    "isosceles": 4,
    "scalene": 5,
}

_EXTREME_TIE = 1e-9


def _canonical_extreme(rows, value: float) -> SweepRow:
    # Extreme ratios sit on plateaus (every right triangle attains the
    # (1,2) sup and the (2,3) inf), so among tied cells report the most
    # symmetric witness shape deterministically.
    tied = [r for r in rows if abs(r.ratio - value) <= _EXTREME_TIE]
    return min(tied, key=lambda r: (_SHAPE_PRIORITY[describe_shape(r.angles_deg)], r.b_deg, r.c_deg))


@dataclass(frozen=True)
class SweepResult:
    pair: tuple[int, int]
    step_deg: float
    eps_apex_deg: float
    rows: tuple[SweepRow, ...]

    @property
    def sup_row(self) -> SweepRow:
        return _canonical_extreme(self.rows, max(r.ratio for r in self.rows))

    @property
    def inf_row(self) -> SweepRow:
        return _canonical_extreme(self.rows, min(r.ratio for r in self.rows))

    def summary(self) -> dict:
        sup, inf = self.sup_row, self.inf_row
        return {
            "pair": list(self.pair),
            "step_deg": self.step_deg,
            "eps_apex_deg": self.eps_apex_deg,
            "cells": len(self.rows),
            "sup": {
                "value": sup.ratio,
                "b_deg": sup.b_deg,
                "c_deg": sup.c_deg,
                "shape": describe_shape(sup.angles_deg),
            },
            "inf": {
                "value": inf.ratio,
                "b_deg": inf.b_deg,
                "c_deg": inf.c_deg,
                "shape": describe_shape(inf.angles_deg),
                "attained": False,
            },
        }


class _SweepGrid(NamedTuple):
    """A sweep's grid in row order, as integer columns (``_sweep_cells``)."""

    i: np.ndarray         # (R,) angle B of each row's cell, in steps
    j: np.ndarray         # (R,) angle C of each row's cell, in steps
    computed: np.ndarray  # (T,) the rows that are computed, one per triangle, in row order
    source: np.ndarray    # (R,) each row's triangle, as an index into ``computed``
    vertex: np.ndarray    # (R, 3) which vertex of that triangle's computed row is the row's A, B and C

    def computed_cells(self) -> list[tuple[int, int]]:
        """The (i, j) of each computed cell, in row order."""
        return list(zip(self.i[self.computed].tolist(), self.j[self.computed].tolist()))


# The ``vertex`` of a row with B >= C by how many of its B and C its A is
# below: the inverse of the order that sorts its angles descending, A, B, C
# on ties, (A, B, C), (B, A, C) and (B, C, A).
_RELABELS = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])


def _sweep_cells(step_deg: float, eps_apex_deg: float) -> _SweepGrid:
    """The sweep's grid in row order: each cell (i, j), whose angles B and C
    are i * step and j * step, with the computed cell whose row gives its
    row, in one NumPy pass over the (i, j) lattice.

    Each of B and C is above the smallest angle and at most 90.  When 180 is
    a whole number K of steps, A is k = K - i - j steps, and a cell is kept
    when k * step is above the smallest angle and 2k <= K.  A cell with
    B >= C then reads the cell of the two smaller of (k, i, j), in
    descending order: itself when k >= i >= j.  Its ``vertex`` says which
    vertex of that cell's triangle each of its own A, B and C is.  On other
    grids, as at 7 deg, a cell is kept when eps < 180 - (B + C) <= 90, and
    each cell with B >= C is its own.  A cell with B < C reads its mirror
    (j, i), with the mirror's vertices."""
    ks = np.arange(1, math.floor(90.0 / step_deg) + 1)
    steps = ks[(eps_apex_deg < ks * step_deg) & (ks * step_deg <= 90.0)]
    i, j = steps[:, None], steps[None, :]
    whole = round(180.0 / step_deg)
    exact = whole * step_deg == 180.0
    if exact:
        keep = (2 * (whole - i - j) <= whole) & (eps_apex_deg < (whole - i - j) * step_deg)
    else:
        a_deg = 180.0 - (i * step_deg + j * step_deg)
        keep = (eps_apex_deg < a_deg) & (a_deg <= 90.0)
    at_i, at_j = np.nonzero(keep)
    i, j = steps[at_i], steps[at_j]
    big, small = np.maximum(i, j), np.minimum(i, j)  # the row's cell with B >= C
    if exact:
        k = whole - i - j
        below = (k < big).astype(np.intp) + (k < small)
        src_i, src_j = np.clip(k, small, big), np.minimum(k, small)
    else:
        below = np.zeros(len(i), dtype=np.intp)
        src_i, src_j = big, small
    computed = np.flatnonzero((i >= j) & (below == 0))
    index = np.zeros((len(ks) + 1, len(ks) + 1), dtype=np.intp)
    index[i[computed], j[computed]] = np.arange(len(computed))
    return _SweepGrid(i, j, computed, index[src_i, src_j], _RELABELS[below])


def sweep_triangles(n: int, m: int, step_deg: float = 1.0, eps_apex_deg: float = 0.5) -> SweepResult:
    """Per-triangle maximum of R_n/R_m over the (angle B, angle C) grid.

    Each computed cell's row is the best of its seeds, the incenter and the
    three altitude midpoints, with no sampled grid: criterion 14 of
    ``verify`` proves, with ``certify_max_ratio`` on every computed cell of
    the 1 deg grid, that no point of the triangle beats that value by more
    than its delta.  The 1 deg grid holds every cell that the 5, 4 and 2
    deg sweeps compute.  The sweep runs no certificate itself, which would
    cost far more than the sweep.

    Cells are independent, and R_n/R_m is a property of the triangle, not
    of its labels, so one cell per triangle is computed: the one with the
    apex at the largest angle and B >= C.  One rule on integer indices
    (``_sweep_cells``) decides the grid, the cell that gives each row and
    how its vertices map onto that cell's.  The computed cells run on one
    thread in chunks of up to ``_CHUNK`` cells, in cell order, each chunk on
    one stacked kernel (``_maximize``), whose rows are built in one array
    pass: every computed cell of a 5 or 1 deg sweep is one chunk.  Each
    triangle's row does not depend on the others in its chunk, so results
    do not depend on the chunk size, which bounds the memory of a batch.

    Every row is then filled from its triangle's computed row in one array
    pass over the grid.  A row with B >= C is the computed row relabeled:
    its standard form has the base opposite its own A, so its costs are the
    computed ones divided by that side's length, which the kernel holds
    (``TriangleKernel.side_lengths``), and its argmax is the computed one
    under the similarity that takes its B and C to (0, 0) and (1, 0),
    reflected when the relabeling reverses the orientation.  A computed row
    relabels itself by the identity, bit for bit.  A row with B < C is its
    mirror's row with the argmax reflected in standard form, x -> 1 - x,
    which leaves every cost unchanged, so mirror rows are equal by
    construction and every row has its mirror.  A grid whose step is a
    multiple of a finer one's is its subset by index, (i, j) at 5 deg being
    (5i, 5j) at 1 deg, with angles equal bit for bit at whole-degree steps.
    Angles are floats whatever the type of ``step_deg``.
    """
    _check_pair(n, m)
    if isinstance(step_deg, bool) or not (math.isfinite(step_deg) and step_deg > 0):
        raise ValueError(f"sweep step must be a finite positive number of degrees, got {step_deg!r}")
    if 90.0 / step_deg >= _MAX_SWEEP_ANGLES + 1:  # floor(90 / step) above the bound, or overflowing
        raise ValueError(
            f"sweep step {step_deg!r} gives more than {_MAX_SWEEP_ANGLES} angles per axis; use 0.09 degrees or more"
        )
    if isinstance(eps_apex_deg, bool) or not (math.isfinite(eps_apex_deg) and eps_apex_deg >= 0):
        raise ValueError(f"sweep smallest angle must be a finite non-negative number of degrees, got {eps_apex_deg!r}")
    step_deg, eps_apex_deg = float(step_deg), float(eps_apex_deg)
    b, c, ratio, x, y, rn, rm = (col.tolist() for col in _sweep_columns(n, m, step_deg, eps_apex_deg))
    return SweepResult((n, m), step_deg, eps_apex_deg, tuple(map(SweepRow, b, c, ratio, map(Point2, x, y), rn, rm)))


def _sweep_columns(n: int, m: int, step_deg: float, eps_apex_deg: float) -> tuple[np.ndarray, ...]:
    """(B, C, ratio, argmax x, argmax y, R_n, R_m) of every row of the sweep,
    one (R,) column each, in row order: the computed rows' kernels, then one
    array pass that fills every row from its triangle's computed row.  Its
    temporaries are gone once it returns, before the rows are built."""
    grid = _sweep_cells(step_deg, eps_apex_deg)
    if not len(grid.i):
        raise ValueError(f"sweep grid has no cell at step {step_deg!r} with smallest angle above {eps_apex_deg!r}")
    apexes = np.array([
        vertex_from_angles(math.radians(i * step_deg), math.radians(j * step_deg)) for i, j in grid.computed_cells()
    ])
    found = []
    for lo in range(0, len(apexes), _CHUNK):
        k = TriangleKernel(*apexes[lo:lo + _CHUNK].T)
        found.append((*_maximize(k, n, m), k.side_lengths()))
    x, y, rn, rm, sides = (np.concatenate(col) for col in zip(*found))
    # Each row's A, B and C among its computed triangle's vertices, A = (p, q),
    # B = (0, 0) and C = (1, 0).
    s, v = grid.source, grid.vertex
    verts = np.zeros((len(apexes), 3, 2))
    verts[:, 0], verts[:, 2, 0] = apexes, 1.0
    (ax, ay), (bx, by), (cx, cy) = verts[s[:, None], v].transpose(1, 2, 0)
    side = sides[s, v[:, 0]]
    dx, dy, ux, uy = cx - bx, cy - by, x[s] - bx, y[s] - by
    dd = dx * dx + dy * dy
    turn = np.copysign(1.0, dx * (ay - by) - dy * (ax - bx))
    rn, rm = rn[s] / side, rm[s] / side
    x = (ux * dx + uy * dy) / dd
    mirror = grid.i < grid.j
    x[mirror] = 1.0 - x[mirror]
    y = turn * (dx * uy - dy * ux) / dd
    return grid.i * step_deg, grid.j * step_deg, rn / rm, x, y, rn, rm
