"""Brute-force certification of every closed-form visitation cost.

The objectives minimized here are convex (sums of norms plus a point-to-
segment distance), so a coarse grid seed followed by alternating 1-D
golden-section refinement converges to the global minimum.  These optimizers
exist only to verify the closed forms; they are deliberately independent of
the unfolding constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom_core import Point2, Segment, Triangle
from .visitation import EdgeId, VisitOrder, edge_segment

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OracleConfig:
    coarse_resolution: int = 64
    tol: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self):
        if self.coarse_resolution < 8:
            raise ValueError("coarse resolution must be at least 8")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")


DEFAULT_CONFIG = OracleConfig()


class OracleMismatchError(AssertionError):
    """Raised when a closed form and its oracle disagree beyond tolerance."""


def _seg_dist(px: float, py: float, seg: Segment) -> float:
    dx, dy = seg.p1.x - seg.p0.x, seg.p1.y - seg.p0.y
    t = ((px - seg.p0.x) * dx + (py - seg.p0.y) * dy) / (dx * dx + dy * dy)
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(px - (seg.p0.x + t * dx), py - (seg.p0.y + t * dy))


def _golden_min(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    xm = (a + b) / 2
    return xm, f(xm)


def ordered3_objective(t: Triangle, p: Point2, order: VisitOrder):
    """f(t1, t2): bounce on the first two edges, then reach the third."""
    e1, e2, e3 = (edge_segment(t, e) for e in order.edges)

    def f(t1: float, t2: float) -> float:
        x1x = e1.p0.x + t1 * (e1.p1.x - e1.p0.x)
        x1y = e1.p0.y + t1 * (e1.p1.y - e1.p0.y)
        x2x = e2.p0.x + t2 * (e2.p1.x - e2.p0.x)
        x2y = e2.p0.y + t2 * (e2.p1.y - e2.p0.y)
        return (
            math.hypot(p.x - x1x, p.y - x1y)
            + math.hypot(x1x - x2x, x1y - x2y)
            + _seg_dist(x2x, x2y, e3)
        )

    return f


def _grid_seed3(t: Triangle, p: Point2, order: VisitOrder, res: int) -> tuple[float, float]:
    e1, e2, e3 = (edge_segment(t, e) for e in order.edges)
    ts = np.linspace(0.0, 1.0, res)
    x1 = np.asarray(e1.p0)[None, :] + ts[:, None] * (np.asarray(e1.p1) - np.asarray(e1.p0))[None, :]
    x2 = np.asarray(e2.p0)[None, :] + ts[:, None] * (np.asarray(e2.p1) - np.asarray(e2.p0))[None, :]
    leg1 = np.hypot(x1[:, 0] - p.x, x1[:, 1] - p.y)
    leg2 = np.hypot(x1[:, None, 0] - x2[None, :, 0], x1[:, None, 1] - x2[None, :, 1])
    d30 = np.asarray(e3.p1) - np.asarray(e3.p0)
    tt = ((x2[:, 0] - e3.p0.x) * d30[0] + (x2[:, 1] - e3.p0.y) * d30[1]) / (d30 @ d30)
    tt = np.clip(tt, 0.0, 1.0)
    leg3 = np.hypot(
        x2[:, 0] - (e3.p0.x + tt * d30[0]), x2[:, 1] - (e3.p0.y + tt * d30[1])
    )
    total = leg1[:, None] + leg2 + leg3[None, :]
    i, j = np.unravel_index(int(np.argmin(total)), total.shape)
    return float(ts[i]), float(ts[j])


def oracle_ordered3(
    t: Triangle, p: Point2, order: VisitOrder, cfg: OracleConfig = DEFAULT_CONFIG
) -> float:
    """Minimum of the two-bounce objective over both edge parameters.

    Plain alternating descent can stall in the narrow curved valley of thin
    triangles, so the refinement nests the golden sections instead: the outer
    one minimizes g(t1) = min over t2 of f(t1, t2), which inherits convexity
    from f, with an inner golden section supplying the partial minimum.
    """
    std, sim = t.standard()
    ps = std.require_inside(sim.apply(p))
    f = ordered3_objective(std, ps, order)
    s1, s2 = _grid_seed3(std, ps, order, cfg.coarse_resolution)
    best = f(s1, s2)

    # A couple of cheap alternating sweeps sharpen the seed.
    t1, t2 = s1, s2
    for _ in range(min(4, cfg.max_iterations)):
        t1, _ = _golden_min(lambda u: f(u, t2), 0.0, 1.0, cfg.tol)
        t2, val = _golden_min(lambda u: f(t1, u), 0.0, 1.0, cfg.tol)
        if best - val <= cfg.tol:
            best = min(best, val)
            break
        best = val

    def g(u1: float) -> float:
        return _golden_min(lambda u: f(u1, u), 0.0, 1.0, cfg.tol)[1]

    _, nested = _golden_min(g, 0.0, 1.0, cfg.tol)
    return min(best, nested) / sim.scale


def oracle_two_ordered(
    t: Triangle, p: Point2, first: EdgeId, second: EdgeId, cfg: OracleConfig = DEFAULT_CONFIG
) -> float:
    """One-parameter convex minimization for an ordered two-edge visit."""
    std, sim = t.standard()
    ps = std.require_inside(sim.apply(p))
    e1 = edge_segment(std, first)
    e2 = edge_segment(std, second)

    def g(t1: float) -> float:
        x = e1.point_at(t1)
        return math.hypot(ps.x - x.x, ps.y - x.y) + _seg_dist(x.x, x.y, e2)

    # Convex in t1, so one golden-section pass over the full interval is
    # global; the grid values only guard the endpoints.
    grid_best = min(g(float(u)) for u in np.linspace(0.0, 1.0, cfg.coarse_resolution))
    _, val = _golden_min(g, 0.0, 1.0, cfg.tol)
    return min(val, grid_best) / sim.scale


def oracle_two_set(
    t: Triangle, p: Point2, edges: tuple[EdgeId, EdgeId], cfg: OracleConfig = DEFAULT_CONFIG
) -> float:
    e1, e2 = edges
    return min(
        oracle_two_ordered(t, p, e1, e2, cfg),
        oracle_two_ordered(t, p, e2, e1, cfg),
    )


def oracle_r3(t: Triangle, p: Point2) -> float:
    std, sim = t.standard()
    ps = std.require_inside(sim.apply(p))
    worst = max(_seg_dist(ps.x, ps.y, edge_segment(std, e)) for e in EdgeId)
    return worst / sim.scale


def oracle_r2(t: Triangle, p: Point2, cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    std, sim = t.standard()
    ps = std.require_inside(sim.apply(p))
    best = math.inf
    for single in EdgeId:
        pair = tuple(e for e in EdgeId if e is not single)
        lone = _seg_dist(ps.x, ps.y, edge_segment(std, single))
        duo = oracle_two_set(std, ps, pair, cfg)  # type: ignore[arg-type]
        best = min(best, max(lone, duo))
    return best / sim.scale


def oracle_r1(t: Triangle, p: Point2, cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    return min(oracle_ordered3(t, p, order, cfg) for order in VisitOrder)


def certify_instance(
    t: Triangle,
    p: Point2,
    closed: dict[str, float],
    cfg: OracleConfig = DEFAULT_CONFIG,
    tol: float = 1e-6,
) -> dict[str, float]:
    """Compare closed-form costs against the oracle; any gap is a bug.

    ``closed`` maps keys 'r1', 'r2', 'r3' and order names to costs.  Returns
    the per-key deltas (closed minus oracle) and raises
    ``OracleMismatchError`` naming the instance on the first breach.
    """
    deltas: dict[str, float] = {}
    for key, value in closed.items():
        if key == "r1":
            ref = oracle_r1(t, p, cfg)
        elif key == "r2":
            ref = oracle_r2(t, p, cfg)
        elif key == "r3":
            ref = oracle_r3(t, p)
        else:
            ref = oracle_ordered3(t, p, VisitOrder(key), cfg)
        delta = value - ref
        deltas[key] = delta
        if abs(delta) > tol:
            raise OracleMismatchError(
                f"{key}: closed form {value!r} vs oracle {ref!r} "
                f"(delta {delta:.3e}) for triangle {t!r}, point {tuple(p)}"
            )
    return deltas
