"""Brute-force certification of every closed-form visitation cost.

The objectives minimized here are convex (sums of norms plus a point-to-
segment distance), so a coarse grid seed followed by alternating 1-D
golden-section refinement converges to the global minimum.  These optimizers
exist only to verify the closed forms; they are deliberately independent of
the unfolding constructions.  ``oracle_costs`` is the one place an
instance's oracle costs are put together: each of the six ordered
three-edge minimizations runs once and ``r1`` is their minimum.

The cost is Python overhead per objective evaluation, not floating-point
work, so the objectives read one flat tuple of plain floats per ordered
visit (``_ordered3_row``).  The six ordered three-edge visits take nearly
all of ``oracle_costs``' time, and a visit spends it in the inner golden
sections over t2 of its nested search: about 53 of them, some 2,700
evaluations of the three-leg objective.  So the inner section,
``_min_second``, is ``_golden_min`` over ``_fix_first`` written out with the
objective inline, and it reads the second bounce point and the third leg,
which depend on t2 alone, from a memo that lives for one visit
(``_SecondBounces``): about 600 distinct t2 on average, so three probes in
four reuse an entry.  ``_golden_min`` is the routine for every other
section.  The scalar path is not a NumPy batch of one: on a single instance
that measured about six times slower, since every array operation costs
more than the few floats it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom_core import EdgeId, Point2, Triangle, VisitOrder, dist_point_segment, edge_segment

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SEED_SWEEPS = 4            # alternating golden sweeps before the nested one
# Smallest interval a golden section on [0, 1] is asked to reach.  Floats in
# [0.5, 1) are 2**-53 (1.1e-16) apart, so the interval cannot always narrow
# further: at tol=1e-16 the loop never ends for minimizers at or above 0.7,
# at 2.3e-16 it ends after 75-76 steps, and at 1e-15 (about 9 ulps at 1.0)
# after 72 on every minimizer tried.
_MIN_TOL = 1e-15


@dataclass(frozen=True)
class OracleConfig:
    coarse_resolution: int = 64
    tol: float = 1e-10

    def __post_init__(self):
        if not isinstance(self.coarse_resolution, int) or isinstance(self.coarse_resolution, bool):
            raise ValueError(f"coarse resolution must be an int, not {self.coarse_resolution!r}")
        if self.coarse_resolution < 8:
            raise ValueError("coarse resolution must be at least 8")
        if not _MIN_TOL <= self.tol < math.inf:
            raise ValueError(f"tolerance must be finite and at least {_MIN_TOL:g}, not {self.tol!r}")


DEFAULT_CONFIG = OracleConfig()


class OracleMismatchError(AssertionError):
    """Raised when a closed form and its oracle disagree beyond tolerance."""


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


def _ordered3_row(t: Triangle, p: Point2, order: VisitOrder) -> tuple[float, ...]:
    """(px, py, then start x, y and direction x, y of each edge in visit
    order, then the third edge's squared length): every float the
    three-leg objective reads."""
    row = [p.x, p.y]
    for e in order.edges:
        seg = edge_segment(t, e)
        row += (seg.p0.x, seg.p0.y, seg.p1.x - seg.p0.x, seg.p1.y - seg.p0.y)
    return (*row, row[-2] * row[-2] + row[-1] * row[-1])


class _SecondBounces(dict):
    """t2 -> (x, y, third leg) for one ordered visit: the second bounce
    point and its distance to the third edge, none of which depends on the
    first bounce.  Each entry is computed on its first read, the third
    edge's nearest point clamped inline, giving the same values as
    ``nearest_on_segment`` bit for bit.  A visit's memo ends with about 50
    entries when its inner minima sit at an end of the second edge, where
    every inner section probes the same t2, and 1,300 to 1,500 otherwise."""

    def __init__(self, row: tuple[float, ...]):
        super().__init__()
        self.row = row

    def __missing__(self, t2: float) -> tuple[float, float, float]:
        _, _, _, _, _, _, a2x, a2y, d2x, d2y, a3x, a3y, d3x, d3y, n3 = self.row
        x2x = a2x + t2 * d2x
        x2y = a2y + t2 * d2y
        s = ((x2x - a3x) * d3x + (x2y - a3y) * d3y) / n3
        s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
        self[t2] = bounce = (x2x, x2y, math.hypot(x2x - (a3x + s * d3x), x2y - (a3y + s * d3y)))
        return bounce


def _fix_first(row: tuple[float, ...], t1: float):
    """h(t2) = f(t1, t2) for a fixed first bounce, the first leg paid once:
    (leg1 + leg2) + leg3.  The objective that ``_min_second`` inlines."""
    px, py, a1x, a1y, d1x, d1y = row[:6]
    x1x = a1x + t1 * d1x
    x1y = a1y + t1 * d1y
    leg1 = math.hypot(px - x1x, py - x1y)
    bounces = _SecondBounces(row)

    def h(t2: float) -> float:
        x2x, x2y, leg3 = bounces[t2]
        return leg1 + math.hypot(x1x - x2x, x1y - x2y) + leg3

    return h


def _fix_second(row: tuple[float, ...], bounce: tuple[float, float, float]):
    """f(t1, t2) as a function of t1 for a fixed second bounce, given as its
    ``_SecondBounces`` entry: ``_fix_first(row, t1)(t2)`` bit for bit."""
    px, py, a1x, a1y, d1x, d1y = row[:6]
    x2x, x2y, leg3 = bounce

    def h(t1: float) -> float:
        x1x = a1x + t1 * d1x
        x1y = a1y + t1 * d1y
        return math.hypot(px - x1x, py - x1y) + math.hypot(x1x - x2x, x1y - x2y) + leg3

    return h


def _min_second(row: tuple[float, ...], bounces: _SecondBounces, t1: float, tol: float) -> tuple[float, float]:
    """``_golden_min(_fix_first(row, t1), 0.0, 1.0, tol)`` bit for bit: the
    same probes and updates and the same sum, (leg1 + leg2) + leg3, with no
    call per probe and the t2-only part read from ``bounces``."""
    px, py, a1x, a1y, d1x, d1y = row[:6]
    x1x = a1x + t1 * d1x
    x1y = a1y + t1 * d1y
    leg1 = math.hypot(px - x1x, py - x1y)
    a, b = 0.0, 1.0
    u1 = b - _INV_PHI * (b - a)
    u2 = a + _INV_PHI * (b - a)
    x, y, leg3 = bounces[u1]
    f1 = leg1 + math.hypot(x1x - x, x1y - y) + leg3
    x, y, leg3 = bounces[u2]
    f2 = leg1 + math.hypot(x1x - x, x1y - y) + leg3
    while b - a > tol:
        if f1 <= f2:
            b, u2, f2 = u2, u1, f1
            u1 = b - _INV_PHI * (b - a)
            x, y, leg3 = bounces[u1]
            f1 = leg1 + math.hypot(x1x - x, x1y - y) + leg3
        else:
            a, u1, f1 = u1, u2, f2
            u2 = a + _INV_PHI * (b - a)
            x, y, leg3 = bounces[u2]
            f2 = leg1 + math.hypot(x1x - x, x1y - y) + leg3
    um = (a + b) / 2
    x, y, leg3 = bounces[um]
    return um, leg1 + math.hypot(x1x - x, x1y - y) + leg3


def _grid_seed3(row: tuple[float, ...], res: int) -> tuple[float, float]:
    px, py, a1x, a1y, d1x, d1y, a2x, a2y, d2x, d2y, a3x, a3y, d3x, d3y, _ = row
    ts = np.linspace(0.0, 1.0, res)
    x1 = np.array([a1x, a1y])[None, :] + ts[:, None] * np.array([d1x, d1y])[None, :]
    x2 = np.array([a2x, a2y])[None, :] + ts[:, None] * np.array([d2x, d2y])[None, :]
    leg1 = np.hypot(x1[:, 0] - px, x1[:, 1] - py)
    leg2 = np.hypot(x1[:, None, 0] - x2[None, :, 0], x1[:, None, 1] - x2[None, :, 1])
    d30 = np.array([d3x, d3y])
    tt = ((x2[:, 0] - a3x) * d30[0] + (x2[:, 1] - a3y) * d30[1]) / (d30 @ d30)
    tt = np.clip(tt, 0.0, 1.0)
    leg3 = np.hypot(x2[:, 0] - (a3x + tt * d30[0]), x2[:, 1] - (a3y + tt * d30[1]))
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
    ps = sim.apply(t.require_inside(p))
    row = _ordered3_row(std, ps, order)
    bounces = _SecondBounces(row)
    s1, s2 = _grid_seed3(row, cfg.coarse_resolution)
    best = _fix_first(row, s1)(s2)

    # A couple of cheap alternating sweeps sharpen the seed.
    t1, t2 = s1, s2
    for _ in range(_SEED_SWEEPS):
        t1, _ = _golden_min(_fix_second(row, bounces[t2]), 0.0, 1.0, cfg.tol)
        t2, val = _min_second(row, bounces, t1, cfg.tol)
        if best - val <= cfg.tol:
            best = min(best, val)
            break
        best = val

    _, nested = _golden_min(lambda u1: _min_second(row, bounces, u1, cfg.tol)[1], 0.0, 1.0, cfg.tol)
    return min(best, nested) / sim.scale


def oracle_two_ordered(
    t: Triangle, p: Point2, first: EdgeId, second: EdgeId, cfg: OracleConfig = DEFAULT_CONFIG
) -> float:
    """One-parameter convex minimization for an ordered two-edge visit."""
    std, sim = t.standard()
    px, py = sim.apply(t.require_inside(p))
    e1, e2 = edge_segment(std, first), edge_segment(std, second)
    a1x, a1y, d1x, d1y = e1.p0.x, e1.p0.y, e1.p1.x - e1.p0.x, e1.p1.y - e1.p0.y
    a2x, a2y, d2x, d2y = e2.p0.x, e2.p0.y, e2.p1.x - e2.p0.x, e2.p1.y - e2.p0.y
    n2 = d2x * d2x + d2y * d2y

    def g(t1: float) -> float:
        xx = a1x + t1 * d1x
        xy = a1y + t1 * d1y
        s = ((xx - a2x) * d2x + (xy - a2y) * d2y) / n2
        s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
        return math.hypot(px - xx, py - xy) + math.hypot(xx - (a2x + s * d2x), xy - (a2y + s * d2y))

    # Convex in t1, so one golden-section pass over the full interval is
    # global; the grid values only guard the endpoints.
    grid_best = min(g(float(u)) for u in np.linspace(0.0, 1.0, cfg.coarse_resolution))
    _, val = _golden_min(g, 0.0, 1.0, cfg.tol)
    return min(val, grid_best) / sim.scale


def oracle_r3(t: Triangle, p: Point2) -> float:
    std, sim = t.standard()
    ps = sim.apply(t.require_inside(p))
    worst = max(dist_point_segment(ps, edge_segment(std, e)) for e in EdgeId)
    return worst / sim.scale


def oracle_r2(t: Triangle, p: Point2, cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    std, sim = t.standard()
    ps = sim.apply(t.require_inside(p))
    best = math.inf
    for single in EdgeId:
        e1, e2 = (e for e in EdgeId if e is not single)
        # Scaled back before the max and min, which rounding keeps in order.
        lone = dist_point_segment(ps, edge_segment(std, single)) / sim.scale
        duo = min(oracle_two_ordered(t, p, e1, e2, cfg), oracle_two_ordered(t, p, e2, e1, cfg))
        best = min(best, max(lone, duo))
    return best


def oracle_costs(t: Triangle, p: Point2, cfg: OracleConfig = DEFAULT_CONFIG) -> dict[str, float]:
    """Oracle cost of every certified key: the six order names in
    ``VisitOrder`` order, then 'r1' (their minimum), 'r2' and 'r3'."""
    out = {order.value: oracle_ordered3(t, p, order, cfg) for order in VisitOrder}
    out["r1"] = min(out.values())
    out["r2"] = oracle_r2(t, p, cfg)
    out["r3"] = oracle_r3(t, p)
    return out


_KEYS = frozenset(order.value for order in VisitOrder) | {"r1", "r2", "r3"}
CERTIFY_TOL = 1e-6  # largest |closed - oracle| that ``certify_instance`` accepts


def certify_instance(
    t: Triangle,
    p: Point2,
    closed: dict[str, float],
    cfg: OracleConfig = DEFAULT_CONFIG,
) -> dict[str, float]:
    """Compare closed-form costs against one ``oracle_costs`` pass; a gap
    above ``CERTIFY_TOL`` is a bug.

    ``closed`` maps keys 'r1', 'r2', 'r3' and order names to costs; an
    unknown key raises ``ValueError`` before any oracle work.  Returns the
    per-key deltas (closed minus oracle) in the order of ``closed`` and
    raises ``OracleMismatchError`` naming the instance on the first breach.
    """
    if not set(closed) <= _KEYS:
        raise ValueError(f"no oracle for {sorted(set(closed) - _KEYS)}")
    ref = oracle_costs(t, p, cfg)
    deltas: dict[str, float] = {}
    for key, value in closed.items():
        delta = value - ref[key]
        deltas[key] = delta
        if not abs(delta) <= CERTIFY_TOL:  # a NaN on either side is a breach too
            raise OracleMismatchError(
                f"{key}: closed form {value!r} vs oracle {ref[key]!r} "
                f"(delta {delta:.3e}) for triangle {t!r}, point {tuple(p)}"
            )
    return deltas
