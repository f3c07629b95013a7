import dataclasses
import math
import random

import numpy as np
import pytest

from trivisit.fleet_costs import (
    ClosedFormDomainError,
    fleet_costs,
    h1,
    h2,
    largest_angle_vertex,
    mid_altitude_point,
    r1,
    r1_incenter_closed,
    r1_mid_altitude_closed,
    r2,
    r2_incenter_closed,
    r3,
)
from trivisit.geom_core import (
    Point2, Similarity, Triangle, VertexId, altitude_midpoint, incenter, polyline_length, triangle_from_angles,
)
from trivisit.oracle import CERTIFY_TOL, certify_instance
from trivisit.visitation import EdgeId, StandardPoint, StrategyKind, VisitOrder

from conftest import random_interior_point, random_triangle

EQ = triangle_from_angles(math.pi / 3, math.pi / 3)
RI = triangle_from_angles(math.pi / 4, math.pi / 4)
FAR = Triangle((74034.58959750044, -4431.205093016029), (74026.05820673211, -4438.941268104179),
               (74034.20284624322, -4442.786978033005))


class TestR3:
    def test_equilateral_incenter_triple_tie(self):
        res = r3(EQ, incenter(EQ))
        assert res.cost == pytest.approx(0.28867513459481287, abs=1e-9)
        assert set(res.edges) == {EdgeId.L, EdgeId.D, EdgeId.R}

    def test_vertex_distance_to_opposite_edge(self):
        res = r3(EQ, EQ.a)
        assert res.cost == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert res.edges == (EdgeId.D,)

    def test_right_isosceles_mid_altitude(self):
        res = r3(RI, Point2(0.5, 0.25))
        assert res.cost == pytest.approx(0.25, abs=1e-12)
        assert res.edges == (EdgeId.D,)

    def test_matches_direct_recomputation(self, rng):
        from trivisit.geom_core import Segment, dist_point_segment

        for _ in range(100):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            res = r3(t, p)
            direct = max(
                dist_point_segment(p, Segment(t.a, t.b)),
                dist_point_segment(p, Segment(t.b, t.c)),
                dist_point_segment(p, Segment(t.c, t.a)),
            )
            assert res.cost == pytest.approx(direct, abs=1e-12)


class TestR2:
    def test_equilateral_incenter(self):
        res = r2(EQ, incenter(EQ))
        assert res.cost == pytest.approx(0.5773502691896258, abs=1e-9)

    def test_right_isosceles_mid_altitude(self):
        res = r2(RI, Point2(0.5, 0.25))
        assert res.cost == pytest.approx(0.25, abs=1e-9)

    def test_witness_costs_reproduce_value(self, rng):
        for _ in range(100):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            res = r2(t, p)
            for w in res.witnesses:
                assert max(w.single.cost, w.pair.cost) <= res.cost + 1e-9 * t.base_length


class TestR1:
    def test_equilateral_incenter(self):
        res = r1(EQ, incenter(EQ))
        assert res.cost == pytest.approx(1.1547005383792515, abs=1e-9)
        assert {VisitOrder.DLR, VisitOrder.DRL} <= set(res.orders)

    def test_right_isosceles_mid_altitude(self):
        res = r1(RI, Point2(0.5, 0.25))
        assert res.cost == pytest.approx(0.75, abs=1e-9)
        assert {VisitOrder.LRD, VisitOrder.RLD} <= set(res.orders)

    def test_one_witness_for_tied_orders(self, monkeypatch):
        # The witness is built for the cheapest tied order alone.
        built, build = [], StandardPoint.three_ordered
        monkeypatch.setattr(StandardPoint, "three_ordered", lambda sp, o: built.append(o) or build(sp, o))
        res = r1(EQ, incenter(EQ))
        assert len(res.orders) > 1 and built == [res.trajectory.order]

    def test_trajectory_cost_matches(self, rng):
        for _ in range(60):
            t = random_triangle(rng, posed=True)
            p = random_interior_point(rng, t)
            res = r1(t, p)
            assert res.trajectory.cost == pytest.approx(res.cost, abs=1e-12 * max(1.0, res.cost))


class TestChain:
    def test_r3_le_r2_le_r1(self, rng):
        for _ in range(300):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            rep = fleet_costs(t, p)
            assert rep.r3.cost <= rep.r2.cost + 1e-12
            assert rep.r2.cost <= rep.r1.cost + 1e-12

    def test_far_from_origin_keeps_the_chain(self):
        # R3 and R2 tie at a vertex; about 7e4 from the origin they come out
        # one ulp of the coordinates apart, 1.5e-11 at a base of 11.5.
        rep = fleet_costs(FAR, FAR.b)
        assert abs(rep.r3.cost - rep.r2.cost) <= 2 * math.ulp(FAR.a.x)

    @pytest.mark.parametrize("deg", [1e-3, 1e-6])
    def test_thin_triangles_keep_the_chain(self, deg):
        # Near a thin apex the three costs tie to within an ulp of the
        # coordinates, which is more than 1e-12 of the short base.
        thin = math.radians(deg)
        apex = triangle_from_angles(math.pi / 2 - 0.4 * thin, math.pi / 2 - 0.6 * thin)
        sliver = triangle_from_angles(thin, math.pi / 2 - 0.5 * thin)
        for std, poses in ((apex, ((1.0, 0.0), (1e3, 0.0), (10.0, 1e2), (1e6, 1e3))), (sliver, ((1.0, 0.0), (1e3, 0.0)))):
            for scale, off in poses:
                sim = Similarity(0.7, scale, Point2(off * scale, -0.5 * off * scale))
                t = Triangle(*(sim.apply(v) for v in std.vertices))
                v = t.vertices
                for p in (*v, v[0] + 0.3 * (v[1] - v[0]), incenter(t)):
                    fleet_costs(t, p)

    def test_tiny_triangle_chain_slack_is_not_absolute(self):
        t = Triangle(*(Similarity(0.3, 1e-6, Point2(0.0, 0.0)).apply(v) for v in RI.vertices))
        rep = fleet_costs(t, incenter(t))
        with pytest.raises(AssertionError, match="cost chain violated"):
            dataclasses.replace(rep, r2=dataclasses.replace(rep.r2, cost=rep.r1.cost * (1 + 1e-9)))


class TestPosedSlivers:
    """Every cost of a posed thin triangle is its unposed cost times the
    scale, since the reported costs are the standard form's kernel costs,
    and every R1 and R2 witness is as long as its cost, since its bounce
    points are built in standard form on their segments."""

    @pytest.mark.parametrize("deg", [1e-2, 1e-4, 1e-6])
    def test_costs_scale_with_the_pose(self, deg):
        # Over 3,000 instances per apex (both kinds of point, translations up
        # to 1e3 base lengths) the largest gap was 4 ulps of the unposed
        # triangle's largest coordinate: 3.0e-8 base lengths at 1e-6 deg.
        # Here the R1 and R2 witnesses' lengths are off their costs by at most
        # 2.1e-12, 2.2e-10 and 2.0e-8 base lengths (0.17 of the bound); a
        # bounce point thrown off its segment puts them off by up to 6.9.
        rng, thin = random.Random(4), math.radians(deg)
        for _ in range(100):
            s = rng.random()
            std = triangle_from_angles(math.pi / 2 - s * thin, math.pi / 2 - (1 - s) * thin)
            bound = 16 * math.ulp(max(abs(x) for v in std.vertices for x in v))
            scale = 10 ** rng.uniform(-3, 3)
            off = Point2(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            sim = Similarity(rng.uniform(0, 2 * math.pi), scale, off * scale)
            t = Triangle(*(sim.apply(v) for v in std.vertices))
            a, b, c = std.vertices
            u, v = sorted((rng.random(), rng.random()))
            for p in (a + u * (b - a) + (v - u) * (c - a), a + rng.random() * (rng.choice((b, c)) - a)):
                want, got = fleet_costs(std, p), fleet_costs(t, sim.apply(p))
                for n in ("r1", "r2", "r3"):
                    gap = abs(getattr(got, n).cost / scale - getattr(want, n).cost)
                    assert gap <= bound, (n, deg, tuple(std.vertices), p, scale, gap)
                for tr in _trajectories(got):
                    gap = abs(polyline_length(tr.waypoints) - tr.cost) / scale
                    assert gap <= bound, (tr.kind, tr.edges, deg, tuple(std.vertices), p, scale, gap)

    def test_thin_instance_certifies(self):
        # A 1e-6 deg apex at unit base, rotated, at a point 0.3 of the way
        # along a long edge.  A bounce point thrown off its segment makes the
        # R1 witness 0.1708 longer than R1.
        t = Triangle((-41412789.39174358, 39595292.05318967), (0.0, 0.0), (0.6910682158908876, 0.7227895412811294))
        rep = fleet_costs(t, Point2(-28988952.574220505, 27716704.43723277))
        certify_instance(t, rep.point, {"r1": rep.r1.cost, "r2": rep.r2.cost, "r3": rep.r3.cost})
        assert abs(polyline_length(rep.r1.trajectory.waypoints) - rep.r1.cost) <= CERTIFY_TOL

    def test_tiny_scale_drops_are_as_long_as_their_cost(self):
        # Points near a vertex of triangles at scales 1e-13 to 1e-9: a drop's
        # foot is kept or merged by its standard-form length, so a drop with
        # one waypoint costs at most EXACT_TIE base lengths.  Of these 361
        # drops the worst is off by 1.6e-15; an absolute 1e-15 cut-off in the
        # pose puts 35 off by more than 1e-9, the worst by 2.4e-3.
        rng = random.Random(5)
        for _ in range(300):
            std = random_triangle(rng)
            scale = 10 ** rng.uniform(-13, -9)
            sim = Similarity(rng.uniform(0, 2 * math.pi), scale, Point2(rng.uniform(-10, 10), rng.uniform(-10, 10)) * scale)
            t = Triangle(*(sim.apply(v) for v in std.vertices))
            a, b, c = rng.sample(std.vertices, 3)
            u, v = (rng.random() * 10 ** rng.uniform(-9, -1) for _ in range(2))
            p = sim.apply(a + u * (b - a) + v * (c - a))
            for w in r2(t, p).witnesses:
                gap = abs(polyline_length(w.single.waypoints) - w.single.cost) / scale
                assert gap <= 1e-9, (tuple(t.vertices), p, w.single_edge, gap)


_TIE_SHAPES = [(60, 60), (45, 45), (45, 90), (90, 45), (70, 55), (30, 80), (85, 85), (50, 70)]


def _special_points(std):
    """Incenter, altitude midpoints, vertices and edge midpoints."""
    mids = [(u + v) * 0.5 for u, v in ((std.a, std.b), (std.b, std.c), (std.c, std.a))]
    return [incenter(std), *(altitude_midpoint(std, v) for v in VertexId), *std.vertices, *mids]


def _trajectories(rep):
    """The R1 witness and every R2 witness's two trajectories."""
    return [rep.r1.trajectory, *(tr for w in rep.r2.witnesses for tr in (w.single, w.pair))]


def _tie_sets(rep):
    """The R1 order set, the R2 set of (lone edge, determined_by) and the R3
    edge set, as sets: the order of tied R2 witnesses and a tied pair's
    visit order follow rounding."""
    return (set(rep.r1.orders), {(w.single_edge, w.determined_by) for w in rep.r2.witnesses}, set(rep.r3.edges))


class TestPosedTieSets:
    """The tie sets at a point do not change under a similarity: the
    decisions are made in standard form with a slack in the standard
    form's scale."""

    @pytest.mark.parametrize("b, c", _TIE_SHAPES)
    def test_tie_sets_keep_under_similarities(self, b, c):
        # 60 similarities of each point: scale 1e-3 to 1e3, translation up
        # to 1e3 scales.
        rng = random.Random(11)
        std = triangle_from_angles(math.radians(b), math.radians(c))
        for p in _special_points(std):
            want = _tie_sets(fleet_costs(std, p))
            for _ in range(60):
                scale = 10 ** rng.uniform(-3, 3)
                off = Point2(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
                sim = Similarity(rng.uniform(0, 2 * math.pi), scale, off * scale)
                t = Triangle(*(sim.apply(v) for v in std.vertices))
                assert _tie_sets(fleet_costs(t, sim.apply(p))) == want, (b, c, p, scale)


class TestMirrorImages:
    """x -> -x reverses the vertex order, so ``Triangle`` relabels the image
    with B and C swapped, which swaps edges L and R: every order, R3 edge and
    R2 lone edge maps under L <-> R, and every cost stays."""

    @pytest.mark.parametrize("b, c", [*_TIE_SHAPES, (89.9995, 89.9995), (89.5, 89.6)])
    def test_labels_swap_left_and_right(self, b, c):
        # Over these 400 points the label sets all mapped and the costs were
        # at most 2 ulps of M apart.
        swap = {EdgeId.L: EdgeId.R, EdgeId.D: EdgeId.D, EdgeId.R: EdgeId.L}
        std = triangle_from_angles(math.radians(b), math.radians(c))
        image = Triangle(*(Point2(-x, y) for x, y in std.vertices))
        bound = 4 * math.ulp(max(abs(x) for v in std.vertices for x in v))
        rng = np.random.default_rng(13)
        for p in _special_points(std) + [random_interior_point(rng, std) for _ in range(30)]:
            rep, mirrored = fleet_costs(std, p), fleet_costs(image, Point2(-p.x, p.y))
            want = (
                {VisitOrder("".join(swap[e].value for e in o.edges)) for o in rep.r1.orders},
                {(swap[w.single_edge], w.determined_by) for w in rep.r2.witnesses},
                {swap[e] for e in rep.r3.edges},
            )
            assert _tie_sets(mirrored) == want, (b, c, p)
            for n in ("r1", "r2", "r3"):
                assert abs(getattr(mirrored, n).cost - getattr(rep, n).cost) <= bound, (b, c, p, n)


class TestClosedForms:
    def test_r2_incenter_examples(self):
        assert r2_incenter_closed(EQ) == pytest.approx(0.5773502691896258, abs=1e-9)
        assert r2_incenter_closed(RI) == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-9)

    def test_r2_incenter_relabeling(self):
        # right angle at B: the nearest-vertex distance follows the label
        t = triangle_from_angles(math.pi / 2, math.pi / 4)
        assert largest_angle_vertex(t) is VertexId.B
        assert r2_incenter_closed(t) == pytest.approx(incenter(t).dist(t.b), abs=1e-15)

    def test_r1_incenter_examples(self):
        assert r1_incenter_closed(EQ) == pytest.approx(1.1547005383792515, abs=1e-9)
        assert r1_incenter_closed(RI) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        ratio = r1_incenter_closed(RI) / r3(RI, incenter(RI)).cost
        assert ratio == pytest.approx(2 + math.sqrt(2), abs=1e-9)
        # same number as 4*sqrt(1-p) + 4*sqrt(p) + 6 under the root at p = 1/2
        assert ratio == pytest.approx(math.sqrt(8 * math.sqrt(0.5) + 6), abs=1e-9)

    def test_r1_mid_altitude_examples(self):
        assert r1_mid_altitude_closed(RI) == pytest.approx(0.75, abs=1e-12)
        assert r1_mid_altitude_closed(EQ) == pytest.approx(1.0825317547305484, abs=1e-9)

    def test_mid_altitude_ratio_identity(self, rng):
        # cost over half the altitude equals 2 - cos(2A) for the top angle
        for _ in range(200):
            t = random_triangle(rng)
            top = max(t.angle_a, t.angle_b, t.angle_c)
            tpt = mid_altitude_point(t)
            half_alt = tpt.dist(t.vertex(largest_angle_vertex(t)))
            ratio = r1_mid_altitude_closed(t) / half_alt
            assert ratio == pytest.approx(2.0 - math.cos(2.0 * top), rel=1e-9)

    def test_closed_forms_match_general(self, rng):
        for _ in range(1000):
            t = random_triangle(rng)
            i = incenter(t)
            assert abs(r1_incenter_closed(t) - r1(t, i).cost) < 1e-9
            assert abs(r2_incenter_closed(t) - r2(t, i).cost) < 1e-9
            tpt = mid_altitude_point(t)
            assert abs(r1_mid_altitude_closed(t) - r1(t, tpt).cost) < 1e-9

    def test_closed_forms_scale(self, rng):
        for _ in range(50):
            t = random_triangle(rng)
            sim = Similarity(1.1, 2.7, Point2(3, -4))
            t2 = Triangle(sim.apply(t.a), sim.apply(t.b), sim.apply(t.c))
            assert r1_incenter_closed(t2) == pytest.approx(2.7 * r1_incenter_closed(t), rel=1e-12)
            assert r1_mid_altitude_closed(t2) == pytest.approx(
                2.7 * r1_mid_altitude_closed(t), rel=1e-12
            )


class TestH1H2:
    def test_equilateral_values(self):
        assert h1(math.pi / 3, math.pi / 3) == pytest.approx(1.0, abs=1e-12)
        assert h2(math.pi / 3, math.pi / 3) == pytest.approx(1.0, abs=1e-12)

    def test_h1_boundary_value(self):
        b = 3 * math.pi / 7
        assert h1(b, math.pi - 2 * b) == pytest.approx(1.32715, abs=5e-5)

    def test_at_least_one_inside_domain(self):
        # interior sample of the constrained angle region
        assert h1(1.1, 0.6) >= 1.0 - 1e-9
        assert h2(1.1, 0.6) >= 1.0 - 1e-9

    def test_domain_errors(self):
        with pytest.raises(ClosedFormDomainError):
            h1(0.2, 0.2)  # far outside: apex angle would dominate
        with pytest.raises(ClosedFormDomainError):
            h1(3.5, 0.5)
        with pytest.raises(ClosedFormDomainError):
            h2(0.2, 0.2)


class TestReportWitnesses:
    def test_tied_partitions_all_reported(self):
        res = r2(EQ, incenter(EQ))
        assert len(res.witnesses) == 3  # full symmetry at the center

    def test_drop_witness_kind(self):
        res = r2(EQ, Point2(0.5, 0.6))
        assert res.witnesses[0].single.kind is StrategyKind.PERPENDICULAR_DROP
