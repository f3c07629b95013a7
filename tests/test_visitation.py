import itertools
import math

import pytest
from hypothesis import given, settings

import poses
from trivisit._kernels import TriangleKernel
from trivisit.geom_core import (
    OutsideTriangleError,
    Point2,
    dist_point_segment,
    incenter,
    polyline_length,
    VertexId,
    edge_segment,
    shared_vertex,
)
from trivisit.oracle import OracleConfig, oracle_ordered3, oracle_two_ordered
from trivisit.regions import ParabolaArcPiece, r2_separator
from trivisit.visitation import (
    EdgeId,
    StrategyKind,
    VisitOrder,
    visit_three_ordered,
    visit_two_ordered,
    visit_two_set,
)

from conftest import random_interior_point, random_triangle
from poses import EQ, RI

FAST_ORACLE = OracleConfig(coarse_resolution=24, tol=1e-11)


def touches(t, traj, edge, tol=1e-9):
    seg = edge_segment(t, edge)
    return any(dist_point_segment(w, seg) <= tol * t.base_length for w in traj.waypoints)


def arc_corners(t):
    """Vertices at which the two-robot separator has a parabola arc: the
    corners whose bouncing subcone (angle 3V - pi about the bisector) is
    wider than a ray."""
    return {VertexId(p.label.split("-")[1]) for p in r2_separator(t).pieces if isinstance(p, ParabolaArcPiece)}


class TestBouncingSubcone:
    """The bouncing subcone, the starting points whose optimal two-edge
    visit goes straight to the vertex, as ``r2_separator`` draws it."""

    def test_equilateral_ray(self):
        # At 60 degrees the subcone is a ray, so no corner has an arc.
        assert arc_corners(EQ) == set()

    def test_right_angle_full_cone(self):
        # The subcone spans the whole right angle, so the arc runs from one
        # edge at the apex to the other.
        [arc] = [p for p in r2_separator(RI).pieces if isinstance(p, ParabolaArcPiece)]
        assert arc.label == "corner-A"
        ends = {e for e in (EdgeId.L, EdgeId.R) for q in (arc.start, arc.end)
                if dist_point_segment(q, edge_segment(RI, e)) < 1e-12}
        assert ends == {EdgeId.L, EdgeId.R}

    def test_narrow_angle_empty(self):
        assert VertexId.B not in arc_corners(RI)
        assert VertexId.C not in arc_corners(RI)

    def test_arc_exactly_where_angle_above_60(self, rng):
        for _ in range(200):
            t = random_triangle(rng)
            assert arc_corners(t) == {v for v in VertexId if t.angle(v) > math.pi / 3}


class TestVisitTwoOrdered:
    def test_equilateral_incenter_left_right(self):
        traj = visit_two_ordered(EQ, incenter(EQ), EdgeId.L, EdgeId.R)
        assert traj.cost == pytest.approx(0.5773502691896258, abs=1e-9)

    def test_point_on_first_edge(self):
        p = Point2(0.3, 0.0)  # on edge D
        traj = visit_two_ordered(EQ, p, EdgeId.D, EdgeId.L)
        d = dist_point_segment(p, edge_segment(EQ, EdgeId.L))
        assert traj.cost == pytest.approx(d, abs=1e-12)
        assert traj.waypoints[0] == p

    def test_direct_to_vertex_inside_subcone(self):
        p = Point2(0.5, 0.25)
        traj = visit_two_ordered(RI, p, EdgeId.L, EdgeId.R)
        assert traj.kind is StrategyKind.DIRECT_TO_VERTEX
        assert traj.cost == pytest.approx(0.25, abs=1e-12)
        assert traj.waypoints[-1].dist(RI.a) < 1e-12

    def test_rejects_equal_edges(self):
        with pytest.raises(ValueError):
            visit_two_ordered(EQ, incenter(EQ), EdgeId.L, EdgeId.L)

    def test_rejects_outside_point(self):
        with pytest.raises(OutsideTriangleError):
            visit_two_ordered(EQ, Point2(2.0, 2.0), EdgeId.L, EdgeId.R)

    def test_matches_oracle(self, rng):
        for _ in range(60):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            for first in EdgeId:
                for second in EdgeId:
                    if first is second:
                        continue
                    closed = visit_two_ordered(t, p, first, second).cost
                    ref = oracle_two_ordered(t, p, first, second, FAST_ORACLE)
                    assert abs(closed - ref) < 1e-6


class TestVisitTwoSet:
    def test_bisector_tie(self):
        p = Point2(0.5, 0.3)  # on the apex bisector of the equilateral
        traj = visit_two_set(EQ, p, (EdgeId.L, EdgeId.R))
        assert traj.tie

    def test_subcone_cost_is_vertex_distance(self):
        p = Point2(0.45, 0.3)
        traj = visit_two_set(RI, p, (EdgeId.L, EdgeId.R))
        assert traj.cost == pytest.approx(p.dist(RI.a), abs=1e-12)
        assert traj.kind is StrategyKind.DIRECT_TO_VERTEX

    def test_example_against_oracle(self):
        p = Point2(0.25, 0.1)
        traj = visit_two_set(EQ, p, (EdgeId.L, EdgeId.D))
        ref = min(
            oracle_two_ordered(EQ, p, EdgeId.L, EdgeId.D),
            oracle_two_ordered(EQ, p, EdgeId.D, EdgeId.L),
        )
        assert traj.cost == pytest.approx(ref, abs=1e-6)

    def test_never_above_either_order(self, rng):
        for _ in range(80):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            pair = (EdgeId.L, EdgeId.D)
            both = visit_two_set(t, p, pair).cost
            o1 = visit_two_ordered(t, p, pair[0], pair[1]).cost
            o2 = visit_two_ordered(t, p, pair[1], pair[0]).cost
            assert both <= min(o1, o2) + 1e-12 * t.base_length


class TestIndicatorHalfspaces:
    """The indicator lines of an ordered three-edge visit as the kernel
    hands them out (``TriangleKernel.order_witness``) and reads a point's
    coordinates across them (``TriangleKernel.indicators``, which the R1
    locus reads too): the bounce line through ``corner_img`` and the subopt
    line through ``apex``, both normal to ``u``."""

    def test_lines_parallel(self, rng):
        # Both lines are level sets of u . p, so their coordinates differ by
        # the same amount at every point.
        for _ in range(50):
            t = random_triangle(rng)
            k = TriangleKernel(*t.a)
            for order in VisitOrder:
                w = k.order_witness(order)
                (ux, uy), (sigma_z,) = w[3], w[8]
                assert math.hypot(ux, uy) == pytest.approx(1.0, abs=1e-12)
                gaps = []
                for p in (random_interior_point(rng, t) for _ in range(2)):
                    bounce, subopt = k.indicators(*p, order)
                    gaps.append(bounce - sigma_z * subopt)
                assert abs(gaps[0] - gaps[1]) < 1e-9

    def test_unfolded_third_preserves_length(self, rng):
        for _ in range(50):
            t = random_triangle(rng)
            k = TriangleKernel(*t.a)
            for order in VisitOrder:
                w = k.order_witness(order)
                corner_img, far_img = Point2(*w[2]), Point2(*w[7])
                third = edge_segment(t, order.edges[2])
                assert far_img.dist(corner_img) == pytest.approx(third.length, abs=1e-12)

    def test_reference_points_split_lines(self):
        k = TriangleKernel(*EQ.a)
        # the subopt line passes through the apex shared by the first two
        # edges, and the base vertex lies on its positive side
        assert abs(k.indicators(*EQ.a, VisitOrder.LRD)[1]) < 1e-12
        assert k.indicators(*EQ.vertex(shared_vertex(EdgeId.L, EdgeId.D)), VisitOrder.LRD)[1] > 0


class TestVisitThreeOrdered:
    def test_equilateral_incenter_dlr(self):
        traj = visit_three_ordered(EQ, incenter(EQ), VisitOrder.DLR)
        assert traj.cost == pytest.approx(1.1547005383792515, abs=1e-9)
        assert traj.kind is StrategyKind.DEGENERATE_VERTEX_BOUNCE

    def test_right_isosceles_mid_altitude_lrd(self):
        traj = visit_three_ordered(RI, Point2(0.5, 0.25), VisitOrder.LRD)
        assert traj.cost == pytest.approx(0.75, abs=1e-9)

    @settings(max_examples=13)
    @given(poses.instances(n=5, **{**poses.PLAIN, "binary": (-1000, 1000)}))
    def test_cost_equals_polyline(self, instances):
        # In base lengths: the pose's scale divided out.  A right triangle
        # with a 1 deg angle, its apex rounded by 5e-15, has a witness 6.7e-13
        # base lengths longer than its cost (near the right angle, a bounce
        # point 3.3e-13 beyond the apex), which is 1.07e-12 at scale 1.6.
        for inst, order in itertools.product(instances, VisitOrder):
            traj, s = visit_three_ordered(inst.t, inst.q, order), inst.pose.scale
            assert abs(traj.cost / s - polyline_length(traj.waypoints) / s) < 1e-12 * max(1.0, traj.cost / s)

    def test_all_edges_touched(self, rng):
        for _ in range(60):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            for order in VisitOrder:
                traj = visit_three_ordered(t, p, order)
                for edge in EdgeId:
                    assert touches(t, traj, edge)

    def test_unfolding_identity(self, rng):
        # For a three-bounce trajectory the polyline length equals the
        # point-to-line distance in the twice-unfolded plane.
        found = 0
        for _ in range(120):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            for order in VisitOrder:
                traj = visit_three_ordered(t, p, order)
                if traj.kind is not StrategyKind.BOUNCING or len(traj.waypoints) != 4:
                    continue
                _, _, (cix, ciy), (ux, uy), *_ = TriangleKernel(*t.a).order_witness(order)
                assert abs(traj.cost - abs(Point2(-uy, ux).dot(p - Point2(cix, ciy)))) < 1e-12
                found += 1
        assert found > 50

    def test_bounce_angle_law(self, rng):
        # Incoming and outgoing angles agree at interior bounce waypoints.
        for _ in range(40):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            traj = visit_three_ordered(t, p, VisitOrder.LRD)
            if traj.kind is not StrategyKind.BOUNCING or len(traj.waypoints) != 4:
                continue
            for edge, prev, here, nxt in (
                (EdgeId.L, *traj.waypoints[:3]),
                (EdgeId.R, *traj.waypoints[1:]),
            ):
                d = edge_segment(t, edge).direction
                vin = (here - prev).unit()
                vout = (nxt - here).unit()
                assert abs(abs(vin.dot(d)) - abs(vout.dot(d))) < 1e-9

    @settings(max_examples=9)
    @given(poses.instances(kinds=("interior",), n=5, **{**poses.PLAIN, "binary": (-1000, 1000)}))
    def test_similarity_equivariance(self, instances):
        for inst, order in itertools.product(instances, VisitOrder):
            tr1 = visit_three_ordered(inst.std, inst.p, order)
            tr2 = visit_three_ordered(inst.t, inst.q, order)
            assert tr2.cost == pytest.approx(tr1.cost * inst.pose.scale, rel=1e-9)
            assert tr2.kind is tr1.kind

    def test_matches_oracle(self, rng):
        for _ in range(40):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            for order in VisitOrder:
                closed = visit_three_ordered(t, p, order).cost
                ref = oracle_ordered3(t, p, order, FAST_ORACLE)
                assert abs(closed - ref) < 1e-6, (t, tuple(p), order)
