"""Makespans R1, R2, R3 for fleets of one to three unit-speed robots.

R3 is the largest point-to-edge distance, R2 the best split of one edge vs.
the other two, R1 the best of the six ordered three-edge visits.  The costs
are the plain floats of the two kernel evaluations of ``StandardPoint``;
the kernel's rules pick the farthest edges, kept partitions and optimal
orders from them at the point, and only their witnesses are built, each by
``StandardPoint`` in standard form, drops included.  Every cost, of a fleet
or of a witness, is the kernel's times the scale back to the pose.
Closed forms for the incenter and the mid-altitude starting points are
provided separately; they must agree with the general evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._kernels import _EDGES, _LONE_PAIRS, _ORDERS
from .geom_core import (
    EdgeId,
    Point2,
    Triangle,
    VertexId,
    VisitOrder,
    altitude_midpoint,
    edge_segment,
    incenter,
    inward_gap,
    largest_angle_vertex,
    opposite_edge,
    reflect,
)
from .visitation import StandardPoint, Trajectory

# Slack for the R3 <= R2 <= R1 chain, in ulps of M, the largest coordinate
# magnitude among the vertices and the point.  The three kernel families round
# differently where two costs are equal, as at vertices and on edges: 893 of
# 11,728 eval benchmark instances (seeds 1-3) broke the chain, all at vertex or
# edge points, by at most 2.75 ulps of M; of 100,000 posed ones (scale 1e-9 to
# 1e9, up to 1e4 base lengths off the origin) 8,374 by at most 6.3, and of
# 60,000 with a 1e-3 or 1e-6 deg angle 2,000 by at most 2.  Hence 64 (10x).
CHAIN_ULPS = 64


def _distance_outside(t: Triangle, p: Point2) -> float:
    """How far ``p`` lies outside ``t``, in the pose's units; 0 inside.

    Measured by ``inward_gap`` on the standard form, which the kernel
    evaluates.  Every cost is 1-Lipschitz in the start point, and the chain
    holds at the nearest point of the triangle, so a point ``d`` outside can
    break it by up to ``2 d``.
    ``Triangle.contains`` accepts points up to ``CONTAINS_TOL`` base lengths
    outside.  Of 3,226 such points on or near an edge (posed at scale 1e-6
    to 1e6), 2,141 broke the chain by more than ``CHAIN_ULPS``, the worst by
    that plus 0.998 of ``2 d``; of 1,471 near-vertex points at scale 1e-13
    to 1e-9, 952 did.  None broke it by more than ``CHAIN_ULPS`` plus ``2 d``.
    """
    std, sim = t.standard()
    return max(0.0, -inward_gap(std, sim.apply(p))) / sim.scale


class ClosedFormDomainError(ValueError):
    """Arguments outside the validity domain of a closed-form expression."""


@dataclass(frozen=True)
class R3Result:
    cost: float
    edges: tuple[EdgeId, ...]   # every farthest edge within tolerance

    @property
    def tie(self) -> bool:
        return len(self.edges) > 1


@dataclass(frozen=True)
class R2Witness:
    single_edge: EdgeId
    single: Trajectory          # one robot dropping to the lone edge
    pair: Trajectory            # the other robot visiting the remaining two
    determined_by: str          # 'single', 'pair' or 'tie'

    @property
    def cost(self) -> float:
        return max(self.single.cost, self.pair.cost)


@dataclass(frozen=True)
class R2Result:
    cost: float
    witnesses: tuple[R2Witness, ...]   # every optimal partition within tolerance

    @property
    def tie(self) -> bool:
        return len(self.witnesses) > 1


@dataclass(frozen=True)
class R1Result:
    cost: float
    orders: tuple[VisitOrder, ...]   # every optimal order within tolerance
    trajectory: Trajectory

    @property
    def tie(self) -> bool:
        return len(self.orders) > 1


@dataclass(frozen=True)
class FleetCostReport:
    triangle: Triangle
    point: Point2
    r3: R3Result
    r2: R2Result
    r1: R1Result

    def __post_init__(self):
        slack = CHAIN_ULPS * math.ulp(max(abs(x) for q in (*self.triangle.vertices, self.point) for x in q))
        slack += 2.0 * _distance_outside(self.triangle, self.point)
        if not (self.r3.cost <= self.r2.cost + slack and self.r2.cost <= self.r1.cost + slack):
            raise AssertionError(
                f"cost chain violated: R3={self.r3.cost!r} R2={self.r2.cost!r} R1={self.r1.cost!r}"
            )


def _r3(sp: StandardPoint) -> R3Result:
    dists = sp.segs[:len(_EDGES)]
    largest = max(dists)
    edges = tuple(e for e, d in zip(_EDGES, dists) if sp.kernel.farthest_edges(d, largest))
    return R3Result(sp.scale * largest, edges)


_SIDES = (None, "single", "pair", "tie")
# Each lone edge with the two edges left to the pair robot, in EdgeId order.
_PARTITIONS = tuple((lone, tuple(e for e in _EDGES if e is not lone)) for lone in _EDGES)


def _r2(sp: StandardPoint) -> R2Result:
    """The kept partitions: a pair costs the cheaper of its two orders, a
    partition the larger of its two robots' costs (as ``r2_partitions``)."""
    segs = sp.segs
    singles = segs[:len(_EDGES)]
    pairs = [min(segs[i], segs[j]) for i, j in _LONE_PAIRS]
    costs = [max(d, q) for d, q in zip(singles, pairs)]
    least = min(costs)
    witnesses = []
    for (lone, rest), single, pair_cost, cost in zip(_PARTITIONS, singles, pairs, costs):
        side = sp.kernel.r2_sides(single, pair_cost, cost, least)
        if side:
            witnesses.append(R2Witness(lone, sp.drop(lone), sp.two_set(*rest), _SIDES[side]))
    witnesses.sort(key=lambda w: (w.cost, w.single_edge.value))
    return R2Result(witnesses[0].cost, tuple(witnesses))


def _r1(sp: StandardPoint) -> R1Result:
    """One witness, of the cheapest tied order (the first on an exact tie)."""
    costs = sp.orders
    least = min(costs)
    ks = [k for k, cost in enumerate(costs) if sp.kernel.optimal_orders(cost, least)]
    best = sp.three_ordered(_ORDERS[min(ks, key=costs.__getitem__)])
    return R1Result(best.cost, tuple(_ORDERS[k] for k in ks), best)


def r3(t: Triangle, p: Point2) -> R3Result:
    """Largest of the three point-to-edge distances, with every argmax edge."""
    return _r3(StandardPoint(t, p))


def r2(t: Triangle, p: Point2) -> R2Result:
    """Best partition of the edges into a singleton and a pair."""
    return _r2(StandardPoint(t, p))


def r1(t: Triangle, p: Point2) -> R1Result:
    """Cheapest of the six ordered visits; ties collected."""
    return _r1(StandardPoint(t, p))


def fleet_costs(t: Triangle, p: Point2) -> FleetCostReport:
    sp = StandardPoint(t, p)
    return FleetCostReport(t, p, _r3(sp), _r2(sp), _r1(sp))


def r2_incenter_closed(t: Triangle) -> float:
    """R2 at the incenter: distance from the incenter to the largest-angle vertex."""
    return incenter(t).dist(t.vertex(largest_angle_vertex(t)))


def r1_incenter_closed(t: Triangle) -> float:
    """R1 at the incenter: distance to the reflection of the largest-angle
    vertex across its opposite edge."""
    v = largest_angle_vertex(t)
    mirrored = reflect(t.vertex(v), t.edge_line(opposite_edge(v)))
    return incenter(t).dist(mirrored)


def mid_altitude_point(t: Triangle) -> Point2:
    """Midpoint of the altitude dropped from the largest angle (shortest altitude)."""
    return altitude_midpoint(t, largest_angle_vertex(t))


def r1_mid_altitude_closed(t: Triangle) -> float:
    """R1 at the mid-altitude point: (2 - cos 2A) sin B sin C csc(B+C) / 2,
    scaled by the largest edge length."""
    va = largest_angle_vertex(t)
    ang_a = t.angle(va)
    others = [t.angle(v) for v in VertexId if v is not va]
    ang_b, ang_c = others
    base = edge_segment(t, opposite_edge(va)).length
    return base * 0.5 * (2.0 - math.cos(2.0 * ang_a)) * math.sin(ang_b) * math.sin(ang_c) / math.sin(ang_b + ang_c)


_DOMAIN_TOL = 1e-9


def _check_h_domain(ang_b: float, ang_c: float, extra_lower: float, label: str) -> None:
    if not (0.0 <= ang_b <= 3.0 * math.pi / 7.0 + _DOMAIN_TOL):
        raise ClosedFormDomainError(f"{label}: B out of range")
    lower = max(math.pi / 2.0 - ang_b, extra_lower)
    upper = min(
        2.0 * math.pi / 3.0 - ang_b,
        math.pi / 2.0 - ang_b / 2.0,
        math.pi - 2.0 * ang_b,
    )
    if not (lower - _DOMAIN_TOL <= ang_c <= upper + _DOMAIN_TOL):
        raise ClosedFormDomainError(
            f"{label}: C={ang_c!r} outside [{lower!r}, {upper!r}] for B={ang_b!r}"
        )


def h1(ang_b: float, ang_c: float) -> float:
    """Squared ratio of the straight three-bounce cost to the degenerate
    corner cost at the incenter, for the order keeping the left edge first."""
    _check_h_domain(ang_b, ang_c, (2.0 * math.pi - 3.0 * ang_b) / 5.0, "h1")
    num = math.cos((ang_b + ang_c) / 2.0) ** 2 * (
        -2.0 * math.cos(ang_b + 2.0 * ang_c) + 2.0 * math.cos(ang_c) + 1.0
    ) ** 2
    den = 2.0 * math.cos(ang_b + ang_c) + 2.0 * math.cos(ang_b) + 2.0 * math.cos(ang_c) + 3.0
    return num / den


def h2(ang_b: float, ang_c: float) -> float:
    """Companion squared cost ratio for the order visiting the bottom edge
    second."""
    _check_h_domain(ang_b, ang_c, (3.0 * ang_b - math.pi) / 2.0, "h2")
    num = (
        2.0 * math.cos(ang_b - ang_c) + 2.0 * math.cos(ang_c) + 1.0
    ) ** 2 * math.cos((ang_b + ang_c) / 2.0) ** 2
    den = 2.0 * math.cos(ang_b + ang_c) + 2.0 * math.cos(ang_b) + 2.0 * math.cos(ang_c) + 3.0
    return num / den
