"""Makespans R1, R2, R3 for fleets of one to three unit-speed robots.

R3 is the largest point-to-edge distance, R2 the best split of one edge vs.
the other two, R1 the best of the six ordered three-edge visits.  The kernel
of the standard-form triangle picks the farthest edges, kept partitions and
optimal orders at the point; only their witnesses are built, and each cost
is that of its cheapest witness.  Closed forms for the incenter and the
mid-altitude starting points are provided separately; they must agree with
the general evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import partitions
from .geom_core import (
    EdgeId,
    Point2,
    Triangle,
    VertexId,
    VisitOrder,
    altitude_midpoint,
    edge_segment,
    incenter,
    nearest_on_segment,
    opposite_edge,
    reflect,
)
from .visitation import StandardPoint, StrategyKind, Trajectory

CHAIN_TOL = 1e-12  # slack for the R3 <= R2 <= R1 chain, standard scale

_ANGLE_TIE = 1e-12
_VERTEX_PRIORITY = (VertexId.A, VertexId.B, VertexId.C)


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
        scale = self.triangle.base_length
        slack = CHAIN_TOL * max(1.0, scale)
        if not (self.r3.cost <= self.r2.cost + slack and self.r2.cost <= self.r1.cost + slack):
            raise AssertionError(
                f"cost chain violated: R3={self.r3.cost!r} R2={self.r2.cost!r} R1={self.r1.cost!r}"
            )


def _drop_trajectory(t: Triangle, p: Point2, e: EdgeId) -> Trajectory:
    (ax, ay), (bx, by) = (t.vertex(v) for v in e.endpoints)
    qx, qy, dist = nearest_on_segment(p.x, p.y, ax, ay, bx, by)
    return Trajectory(
        waypoints=(p,) if dist <= 1e-15 else (p, Point2(qx, qy)),
        cost=dist,
        kind=StrategyKind.PERPENDICULAR_DROP,
        edge_sequence=(e,),
    )


def _r3(sp: StandardPoint, dists: np.ndarray) -> R3Result:
    edges = tuple(e for e, far in zip(EdgeId, sp.kernel.farthest_edges(dists)[:, 0]) if far)
    return R3Result(max(_drop_trajectory(sp.t, sp.p, e).cost for e in edges), edges)


_SIDES = (None, "single", "pair", "tie")


def _r2(sp: StandardPoint, partitions: tuple[np.ndarray, np.ndarray, np.ndarray]) -> R2Result:
    witnesses = []
    for lone, side in zip(EdgeId, sp.kernel.r2_sides(*partitions)[:, 0]):
        if side:
            pair = sp.two_set(*(e for e in EdgeId if e is not lone))
            witnesses.append(R2Witness(lone, _drop_trajectory(sp.t, sp.p, lone), pair, _SIDES[side]))
    witnesses.sort(key=lambda w: (w.cost, w.single_edge.value))
    return R2Result(witnesses[0].cost, tuple(witnesses))


def _r1(sp: StandardPoint, costs: np.ndarray) -> R1Result:
    orders = tuple(o for o, ok in zip(VisitOrder, sp.kernel.optimal_orders(costs)[:, 0]) if ok)
    best = min((sp.three_ordered(o) for o in orders), key=lambda tr: tr.cost)
    return R1Result(best.cost, orders, best)


def _partitions(sp: StandardPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return partitions(sp.edge_dists, sp.ordered_pairs.__getitem__)


def r3(t: Triangle, p: Point2) -> R3Result:
    """Largest of the three point-to-edge distances, with every argmax edge."""
    sp = StandardPoint(t, p)
    return _r3(sp, sp.edge_dists)


def r2(t: Triangle, p: Point2) -> R2Result:
    """Best partition of the edges into a singleton and a pair."""
    sp = StandardPoint(t, p)
    return _r2(sp, _partitions(sp))


def r1(t: Triangle, p: Point2) -> R1Result:
    """Cheapest of the six ordered visits; ties collected."""
    sp = StandardPoint(t, p)
    return _r1(sp, sp.orders[0])


def fleet_costs(t: Triangle, p: Point2) -> FleetCostReport:
    sp = StandardPoint(t, p)
    return FleetCostReport(t, p, _r3(sp, sp.edge_dists), _r2(sp, _partitions(sp)), _r1(sp, sp.orders[0]))


def largest_angle_vertex(t: Triangle) -> VertexId:
    """Vertex of the largest angle; ties resolve by label priority A > B > C."""
    best = max(t.angle(v) for v in _VERTEX_PRIORITY)
    for v in _VERTEX_PRIORITY:
        if best - t.angle(v) <= _ANGLE_TIE:
            return v
    raise AssertionError("unreachable")


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
    others = [t.angle(v) for v in _VERTEX_PRIORITY if v is not va]
    ang_b, ang_c = others
    base = edge_segment(t, opposite_edge(va)).length
    return base * 0.5 * (2.0 - math.cos(2.0 * ang_a)) * math.sin(ang_b) * math.sin(ang_c) / math.sin(ang_b + ang_c)


def r2_vertex_heuristic(t: Triangle, p: Point2) -> float:
    """Diagnostic upper bound on R2: one robot runs to the largest-angle
    vertex, the other drops onto the opposite edge.  Never below R2."""
    p = t.require_inside(p)
    v = largest_angle_vertex(t)
    drop = _drop_trajectory(t, p, opposite_edge(v))
    return max(p.dist(t.vertex(v)), drop.cost)


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
