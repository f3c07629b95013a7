"""Brute-force certification of every closed-form visitation cost.

The objectives minimized here are convex (sums of norms plus a point-to-
segment distance), so a coarse grid seed followed by alternating 1-D
golden-section refinement converges to the global minimum.  These optimizers
exist only to verify the closed forms; they are deliberately independent of
the unfolding constructions.  ``oracle_costs`` is the one place an
instance's oracle costs are put together: each of the six ordered
three-edge minimizations runs once and ``r1`` is their minimum.

The cost is Python overhead per objective call, not floating-point work, so
the objectives read one flat tuple of plain floats per ordered visit
(``_ordered3_row``) and the three-leg sum is written once, in
``_fix_first``, which pays the first leg once per inner golden section.
There is one golden-section routine.  The scalar path is not a NumPy batch
of one: on a single instance that measured about six times slower, since
every array operation costs more than the few floats it replaces.
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


def _fix_first(row: tuple[float, ...], t1: float):
    """h(t2) = f(t1, t2) for a fixed first bounce: the first leg is paid
    once, and the nearest point of the third edge is clamped inline, giving
    the same values as ``nearest_on_segment`` bit for bit."""
    px, py, a1x, a1y, d1x, d1y, a2x, a2y, d2x, d2y, a3x, a3y, d3x, d3y, n3 = row
    x1x = a1x + t1 * d1x
    x1y = a1y + t1 * d1y
    leg1 = math.hypot(px - x1x, py - x1y)

    def h(t2: float) -> float:
        x2x = a2x + t2 * d2x
        x2y = a2y + t2 * d2y
        s = ((x2x - a3x) * d3x + (x2y - a3y) * d3y) / n3
        s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
        return (
            leg1
            + math.hypot(x1x - x2x, x1y - x2y)
            + math.hypot(x2x - (a3x + s * d3x), x2y - (a3y + s * d3y))
        )

    return h


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
    ps = sim.apply(t.require_inside(p))
    row = _ordered3_row(std, ps, order)
    s1, s2 = _grid_seed3(std, ps, order, cfg.coarse_resolution)
    best = _fix_first(row, s1)(s2)

    # A couple of cheap alternating sweeps sharpen the seed.
    t1, t2 = s1, s2
    for _ in range(_SEED_SWEEPS):
        t1, _ = _golden_min(lambda u: _fix_first(row, u)(t2), 0.0, 1.0, cfg.tol)
        t2, val = _golden_min(_fix_first(row, t1), 0.0, 1.0, cfg.tol)
        if best - val <= cfg.tol:
            best = min(best, val)
            break
        best = val

    def g(u1: float) -> float:
        return _golden_min(_fix_first(row, u1), 0.0, 1.0, cfg.tol)[1]

    _, nested = _golden_min(g, 0.0, 1.0, cfg.tol)
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
