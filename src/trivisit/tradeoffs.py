"""Worst-case fleet-size ratio maximization and triangle-space sweeps.

For one triangle, ``max_ratio`` maximizes R_n/R_m over starting points with
a barycentric grid plus derivative-free pattern refinement, always seeding
the incenter and the three altitude midpoints (the extremal points for the
three ratio pairs).  ``sweep_triangles`` repeats that over an angle grid and
tracks the running infimum and supremum; infima are limits over degenerating
shapes, so they are reported as approached, never attained.  Both run the
same lockstep search (``_maximize``) over a stacked kernel: ``max_ratio`` on
a batch of one triangle, ``sweep_triangles`` on chunks of cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._kernels import TriangleKernel, barycentric_grid, points_array, project_into
from .fleet_costs import fleet_costs
from .geom_core import Point2, Triangle, VertexId, altitude_midpoint, incenter, triangle_from_angles

_PAIRS = ((1, 2), (1, 3), (2, 3))
_VERTEX_EPS = 1e-7  # candidates this close to a vertex are discarded
_CHUNK = 32         # sweep cells per lockstep batch; bounds peak memory


def ratio_at(t: Triangle, p: Point2, n: int, m: int) -> float:
    """R_n / R_m at one starting point."""
    _check_pair(n, m)
    k = TriangleKernel(t)
    pts = points_array([t.require_inside(p)])
    return float(k.cost(pts, n)[0] / k.cost(pts, m)[0])


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
    grid: int
    refinement_steps: int
    witnesses: object = field(default=None, repr=False, compare=False)

    def with_witnesses(self, report) -> "RatioReport":
        return RatioReport(
            self.pair, self.ratio, self.argmax, self.rn, self.rm,
            self.grid, self.refinement_steps, report,
        )


def max_ratio(
    t: Triangle,
    n: int,
    m: int,
    grid: int = 256,
    refine_tol: float = 1e-10,
    with_witnesses: bool = False,
) -> RatioReport:
    """Maximize R_n/R_m over the closed triangle (vertices excluded).

    The returned ratio is at least every sampled value; the argmax prefers a
    seeded witness whenever one ties the maximum within 1e-9, so non-unique
    maxima land on the canonical extremal points.
    """
    _check_pair(n, m)
    std, _ = t.standard()
    [(argmax, rn, rm, steps)] = _maximize([std], n, m, grid, refine_tol)
    report = RatioReport((n, m), rn / rm, argmax, rn, rm, grid, steps)
    if with_witnesses:
        report = report.with_witnesses(fleet_costs(std, argmax))
    return report


# Compass directions of the pattern search, in the order candidates are ranked.
_DIRS = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)])


def _maximize(
    stds: Sequence[Triangle],
    n: int,
    m: int,
    grid: int,
    refine_tol: float,
) -> list[tuple[Point2, float, float, int]]:
    """(argmax, R_n, R_m, refinement steps) for each standard-form triangle.

    Every triangle runs the same deterministic search, all in lockstep on
    one stacked kernel: start from the best seed or grid point (the seed on
    a tie), then run a compass pattern search clipped to the triangle, with
    a step size per triangle.  A candidate replaces the best point only when
    strictly better; otherwise the step halves, until it is at most
    ``refine_tol``.  Row i of every array belongs to ``stds[i]``, so each
    triangle's result does not depend on the others in the batch.
    """
    k = TriangleKernel(stds)
    rows = np.arange(len(stds))

    def values(pts: np.ndarray) -> np.ndarray:
        return k.cost(pts, n) / k.cost(pts, m)

    seeds = np.array([[incenter(s), *(altitude_midpoint(s, v) for v in VertexId)] for s in stds], dtype=float)
    seed_vals = values(seeds)
    si = np.argmax(seed_vals, axis=1)
    seed_best = seed_vals[rows, si]

    gpts = barycentric_grid(stds, grid, include_vertices=False)
    gvals = values(gpts)
    gi = np.argmax(gvals, axis=1)
    grid_best = gvals[rows, gi]
    from_seed = seed_best >= grid_best
    best_p = np.where(from_seed[:, None], seeds[rows, si], gpts[rows, gi])
    best_v = np.where(from_seed, seed_best, grid_best)

    step = np.array([max(s.base_length / max(grid - 1, 1), 1e-6) for s in stds])
    steps = np.zeros(len(stds), dtype=int)
    slack = _VERTEX_EPS * k.scale
    active = step > refine_tol
    while active.any():
        cand = project_into(k, best_p[:, None, :] + _DIRS * step[:, None, None])
        near = np.zeros(cand.shape[:2], dtype=bool)
        for vx, vy in k.vertices:
            near |= np.hypot(cand[..., 0] - vx, cand[..., 1] - vy) < slack
        keep = active[:, None] & ~near
        vals = np.where(keep, values(cand), -np.inf)
        j = np.argmax(vals, axis=1)
        top = vals[rows, j]
        steps += keep.any(axis=1)
        better = top > best_v
        best_p = np.where(better[:, None], cand[rows, j], best_p)
        best_v = np.where(better, top, best_v)
        step = np.where(active & ~better, step / 2.0, step)
        active = step > refine_tol

    # Prefer a seeded witness when it ties the maximum: argmax sets can be
    # whole segments, and the canonical extremal points lie on them.
    at = np.where((seed_best >= best_v - 1e-9)[:, None], seeds[rows, si], best_p)
    rn = k.cost(at[:, None, :], n)[:, 0]
    rm = k.cost(at[:, None, :], m)[:, 0]
    return [
        (Point2(float(p[0]), float(p[1])), float(a), float(b), int(c))
        for p, a, b, c in zip(at, rn, rm, steps)
    ]


def describe_shape(angles_deg: tuple[float, float, float], tol: float = 0.51) -> str:
    """Coarse shape classification of an angle triple, in degrees."""
    s = sorted(angles_deg, reverse=True)
    if all(abs(a - 60.0) <= tol for a in s):
        return "equilateral"
    if abs(s[0] - 90.0) <= tol and abs(s[1] - 45.0) <= tol:
        return "right isosceles"
    two_equal = abs(s[0] - s[1]) <= tol or abs(s[1] - s[2]) <= tol
    if two_equal and s[2] <= 15.0:
        return "thin isosceles"
    if abs(s[0] - 90.0) <= tol:
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


def _sweep_cells(step_deg: float, eps_apex_deg: float) -> list[tuple[float, float]]:
    cells = []
    nb = int(math.floor(90.0 / step_deg))
    for i in range(1, nb + 1):
        b = i * step_deg
        if b <= eps_apex_deg or b > 90.0:
            continue
        for j in range(1, nb + 1):
            c = j * step_deg
            if c <= eps_apex_deg or c > 90.0:
                continue
            a = 180.0 - b - c
            if a <= eps_apex_deg or a > 90.0:
                continue
            cells.append((b, c))
    return cells


def sweep_triangles(
    n: int,
    m: int,
    step_deg: float = 1.0,
    eps_apex_deg: float = 0.5,
    grid: int = 24,
    refine_tol: float = 1e-6,
) -> SweepResult:
    """Per-triangle max_ratio over the (angle B, angle C) grid.

    Cells are independent.  They run on one thread in fixed-size chunks, in
    cell order, each chunk as one lockstep batch (``_maximize``); every cell
    follows the same arithmetic as ``max_ratio`` on its own, so results do
    not depend on the chunk size.  The chunk size bounds the memory of a
    batch.  The default per-cell budget is light on purpose: the extremal
    values come from the seeded witnesses, and coarser grids are subsets of
    finer ones, so running inf/sup values stay monotone in the step size
    regardless of refinement quality.
    """
    _check_pair(n, m)
    cells = _sweep_cells(step_deg, eps_apex_deg)
    rows = []
    for lo in range(0, len(cells), _CHUNK):
        chunk = cells[lo:lo + _CHUNK]
        stds = [triangle_from_angles(math.radians(b), math.radians(c)).standard()[0] for b, c in chunk]
        for (b, c), (argmax, rn, rm, _steps) in zip(chunk, _maximize(stds, n, m, grid, refine_tol)):
            rows.append(SweepRow(b, c, rn / rm, argmax, rn, rm))
    return SweepResult((n, m), step_deg, eps_apex_deg, tuple(rows))
