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
sections over t2 of its nested search: about 51 of them, some 2,500 probes
of the three-leg objective.  Every inner section starts on [0, 1] with the
same ``tol``, so its probes are fixed by its comparison outcomes, and the
visit keeps them as one tree of section states (``_SecondTree``), grown on
first use.  A node is a flat list made by one closure per visit
(``_section_node``, which binds the second and third edges' constants) and
holds the second bounce point and third leg of its probe, which depend on
t2 alone.  An inner section at t1 is a walk down the tree, one comparison
and one leg per step, with the first leg paid once; the walk grows a
missing child where it first takes it.  A visit grows about 650 nodes on
average, from 49 to about 1,500 on criterion 10's instances.  On the
benchmark's ``certify`` instances a visit's walks took about 0.7 ms on a
2-core host: 0.38 ms of steps and 0.32 ms of growing nodes.  The six
orders' grid seeds are one NumPy pass per instance (``_grid_seeds``, about
0.25 ms against 0.5 ms for six passes), in which the order that reverses
another's first two edges reads that order's second-leg matrix transposed.
``_golden_min`` is the routine for every other section, and ``_fix_first``
is the objective that the walk must match bit for bit.  The scalar path is
not a NumPy batch of one: on a single instance that measured about six
times slower, since every array operation costs more than the few floats it
replaces.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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


def _edge_floats(t: Triangle, e: EdgeId) -> tuple[float, float, float, float]:
    """Start x, y and direction x, y of edge ``e`` of ``t``."""
    seg = edge_segment(t, e)
    return seg.p0.x, seg.p0.y, seg.p1.x - seg.p0.x, seg.p1.y - seg.p0.y


def _ordered3_row(t: Triangle, p: Point2, order: VisitOrder) -> tuple[float, ...]:
    """(px, py, then start x, y and direction x, y of each edge in visit
    order, then the third edge's squared length): every float the
    three-leg objective reads."""
    row = [p.x, p.y]
    for e in order.edges:
        row += _edge_floats(t, e)
    return (*row, row[-2] * row[-2] + row[-1] * row[-1])


def _section_node(row: tuple[float, ...]):
    """The maker of one visit's section-tree nodes, the row's second- and
    third-edge constants bound once.

    ``node(t2, um, a, b, u1, u2)`` is the list [x, y, leg3, um, low, high,
    a, b, u1, u2]: x and y are the second bounce point at t2 and leg3 the
    third leg from it, none of which depends on the first bounce, and the
    children low and high are None.  This is the one formula for that
    geometry.  The third edge's nearest point is clamped inline, giving the
    same values as ``nearest_on_segment`` bit for bit."""
    a2x, a2y, d2x, d2y, a3x, a3y, d3x, d3y, n3 = row[6:]
    hypot = math.hypot

    def node(t2: float, um=None, a=None, b=None, u1=None, u2=None) -> list:
        x2x = a2x + t2 * d2x
        x2y = a2y + t2 * d2y
        s = ((x2x - a3x) * d3x + (x2y - a3y) * d3y) / n3
        s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
        return [x2x, x2y, hypot(x2x - (a3x + s * d3x), x2y - (a3y + s * d3y)), um, None, None, a, b, u1, u2]

    return node


def _fix_first(row: tuple[float, ...], t1: float):
    """h(t2) = f(t1, t2) for a fixed first bounce, the first leg paid once:
    (leg1 + leg2) + leg3.  The objective that ``_SecondTree.section``
    minimizes."""
    px, py, a1x, a1y, d1x, d1y = row[:6]
    x1x = a1x + t1 * d1x
    x1y = a1y + t1 * d1y
    leg1 = math.hypot(px - x1x, py - x1y)
    node = _section_node(row)

    def h(t2: float) -> float:
        x2x, x2y, leg3 = node(t2)[:3]
        return leg1 + math.hypot(x1x - x2x, x1y - x2y) + leg3

    return h


def _fix_second(row: tuple[float, ...], bounce: list):
    """f(t1, t2) as a function of t1 for a fixed second bounce, given as the
    section-tree node at t2: ``_fix_first(row, t1)(t2)`` bit for bit."""
    px, py, a1x, a1y, d1x, d1y = row[:6]
    x2x, x2y, leg3 = bounce[:3]

    def h(t1: float) -> float:
        x1x = a1x + t1 * d1x
        x1y = a1y + t1 * d1y
        return math.hypot(px - x1x, py - x1y) + math.hypot(x1x - x2x, x1y - x2y) + leg3

    return h


class _SecondTree:
    """Every inner golden section over t2 of one ordered visit, as one tree.

    Each section starts on [0, 1] with the same ``tol``, so a section state
    (a, b, u1, u2) is fixed by the comparison outcomes before it, and is a
    node here, a flat list made by ``_section_node``: x, y and leg3 are the
    geometry of the probe made on entering it, and low and high its
    children, None until a walk first takes them (low keeps [a, u2] and
    probes a new u1, high keeps [u1, b] and probes a new u2).  Where
    b - a <= tol the section ends: um is the midpoint it returns, and x, y
    and leg3 are um's, since the value at the entering probe is never
    compared.  Elsewhere um is None and a, b, u1 and u2 are the state that
    grows the children.  The root is the section on [0, 1] after
    ``_golden_min``'s first probes, computed as it computes them, with u1's
    geometry; ``first`` is the geometry at u2."""

    def __init__(self, row: tuple[float, ...], tol: float):
        self.tol = tol
        self.first_edge = row[:6]
        self.node = node = _section_node(row)
        a, b = 0.0, 1.0
        u1, u2 = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
        self.first = node(u2)[:3]
        if b - a > tol:
            self.root = node(u1, None, a, b, u1, u2)
        else:
            um = (a + b) / 2
            self.root = node(um, um)

    def section(self, t1: float) -> tuple[list, float]:
        """``_golden_min(_fix_first(row, t1), 0.0, 1.0, tol)`` bit for bit,
        as (the end node, whose um is the t2 returned, its value): the same
        probes, comparisons and sum, (leg1 + leg2) + leg3, read off the
        tree, which grows a missing child as the walk first takes it."""
        px, py, a1x, a1y, d1x, d1y = self.first_edge
        make, tol, inv_phi = self.node, self.tol, _INV_PHI
        x1x = a1x + t1 * d1x
        x1y = a1y + t1 * d1y
        hypot = math.hypot
        leg1 = hypot(px - x1x, py - x1y)
        x, y, leg3 = self.first
        f2 = leg1 + hypot(x1x - x, x1y - y) + leg3
        node = self.root
        x, y, leg3, um, low, high, a, b, u1, u2 = node
        f1 = f = leg1 + hypot(x1x - x, x1y - y) + leg3
        while um is None:
            if f1 <= f2:
                if low is None:
                    b, u2 = u2, u1
                    u1 = b - inv_phi * (b - a)
                    if b - a > tol:
                        low = make(u1, None, a, b, u1, u2)
                    else:
                        um = (a + b) / 2
                        low = make(um, um)
                    node[4] = low
                node = low
                x, y, leg3, um, low, high, a, b, u1, u2 = node
                f2 = f1
                f1 = f = leg1 + hypot(x1x - x, x1y - y) + leg3
            else:
                if high is None:
                    a, u1 = u1, u2
                    u2 = a + inv_phi * (b - a)
                    if b - a > tol:
                        high = make(u2, None, a, b, u1, u2)
                    else:
                        um = (a + b) / 2
                        high = make(um, um)
                    node[5] = high
                node = high
                x, y, leg3, um, low, high, a, b, u1, u2 = node
                f1 = f2
                f2 = f = leg1 + hypot(x1x - x, x1y - y) + leg3
        return node, f


_EDGE_INDEX = {e: i for i, e in enumerate(EdgeId)}


def _grid_seeds(t: Triangle, p: Point2, orders: Iterable[VisitOrder], res: int) -> list[tuple[float, float]]:
    """For each ordered visit of ``orders`` on ``t`` from ``p``, the (t1, t2)
    of the smallest three-leg total on a res x res grid, in one NumPy pass.

    Each edge's grid points and first legs are computed once, and so is the
    second-leg matrix of each unordered pair of first and second edges: the
    order that reverses the pair reads it transposed, the same bits, since a
    difference and its negation have the same hypot.  Each ordered pair of
    second and third edges has its third-leg vector.  An order's total is
    (leg1 + leg2) + leg3, and its seed is the first grid index of the
    total's minimum."""
    ts = np.linspace(0.0, 1.0, res)
    edges = np.array([_edge_floats(t, e) for e in EdgeId])
    x = edges[:, 0, None] + ts * edges[:, 2, None]
    y = edges[:, 1, None] + ts * edges[:, 3, None]
    norm2 = np.array([d @ d for d in edges[:, 2:]])
    leg1 = np.hypot(x - p.x, y - p.y)

    first, second, third = map(list, zip(*([_EDGE_INDEX[e] for e in order.edges] for order in orders)))
    pairs = sorted({(min(i, j), max(i, j)) for i, j in zip(first, second)})
    lo, hi = [i for i, _ in pairs], [j for _, j in pairs]
    leg2 = np.hypot(x[lo, :, None] - x[hi, None, :], y[lo, :, None] - y[hi, None, :])

    a3x, a3y, d3x, d3y = (edges[third, k, None] for k in range(4))
    x2, y2 = x[second], y[second]
    s = np.clip(((x2 - a3x) * d3x + (y2 - a3y) * d3y) / norm2[third, None], 0.0, 1.0)
    leg3 = np.hypot(x2 - (a3x + s * d3x), y2 - (a3y + s * d3y))

    total = np.empty((len(first), res, res))
    for out, i, j in zip(total, first, second):
        np.add(leg1[i, :, None], leg2[pairs.index((i, j))] if i < j else leg2[pairs.index((j, i))].T, out=out)
    total += leg3[:, None, :]
    grid = ts.tolist()
    return [(grid[k // res], grid[k % res]) for k in total.reshape(len(first), -1).argmin(axis=1).tolist()]


def oracle_ordered3(
    t: Triangle, p: Point2, order: VisitOrder, cfg: OracleConfig = DEFAULT_CONFIG, *, _seed=None
) -> float:
    """Minimum of the two-bounce objective over both edge parameters.

    Plain alternating descent can stall in the narrow curved valley of thin
    triangles, so the refinement nests the golden sections instead: the outer
    one minimizes g(t1) = min over t2 of f(t1, t2), which inherits convexity
    from f, with an inner golden section supplying the partial minimum.
    ``_seed`` is this order's ``_grid_seeds`` entry, which ``oracle_costs``
    computes for all six orders in one pass.
    """
    std, sim = t.standard()
    ps = sim.apply(t.require_inside(p))
    row = _ordered3_row(std, ps, order)
    tree = _SecondTree(row, cfg.tol)
    s1, s2 = _seed if _seed is not None else _grid_seeds(std, ps, (order,), cfg.coarse_resolution)[0]
    best = _fix_first(row, s1)(s2)

    # A couple of cheap alternating sweeps sharpen the seed.
    bounce = tree.node(s2)
    for _ in range(_SEED_SWEEPS):
        t1, _ = _golden_min(_fix_second(row, bounce), 0.0, 1.0, cfg.tol)
        bounce, val = tree.section(t1)
        if best - val <= cfg.tol:
            best = min(best, val)
            break
        best = val

    _, nested = _golden_min(lambda u1: tree.section(u1)[1], 0.0, 1.0, cfg.tol)
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
    grid_best = min(map(g, np.linspace(0.0, 1.0, cfg.coarse_resolution).tolist()))
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
    std, sim = t.standard()
    seeds = _grid_seeds(std, sim.apply(t.require_inside(p)), VisitOrder, cfg.coarse_resolution)
    out = {order.value: oracle_ordered3(t, p, order, cfg, _seed=seed) for order, seed in zip(VisitOrder, seeds)}
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
