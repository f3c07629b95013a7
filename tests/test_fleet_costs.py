import dataclasses
import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poses
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
from trivisit.geom_core import Point2, Similarity, Triangle, VertexId, incenter, polyline_length, triangle_from_angles
from trivisit.oracle import CERTIFY_TOL, certify_instance
from trivisit.visitation import EdgeId, StandardPoint, StrategyKind, VisitOrder

from conftest import random_interior_point, random_triangle
from poses import EQ, RI

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

    @settings(max_examples=13)
    @given(poses.instances(n=5))
    def test_trajectory_cost_matches(self, instances):
        # In base lengths: the pose's scale divided out.
        for inst in instances:
            res, s = r1(inst.t, inst.q), inst.pose.scale
            assert res.trajectory.cost / s == pytest.approx(res.cost / s, abs=1e-12 * max(1.0, res.cost / s))


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
    @settings(max_examples=7)
    @given(data=st.data())
    def test_thin_triangles_keep_the_chain(self, deg, data):
        # Near a thin angle the three costs tie to within an ulp of the
        # coordinates, which is more than 1e-12 of the short base.
        for inst in data.draw(poses.instances({"apex": deg}, n=5)):
            fleet_costs(inst.t, inst.q)

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
    @settings(max_examples=21)
    @given(data=st.data())
    def test_costs_scale_with_the_pose(self, deg, data):
        # Over 3,000 instances per apex (both kinds of point, translations up
        # to 1e3 base lengths) the largest gap was 4 ulps of the unposed
        # triangle's largest coordinate: 3.0e-8 base lengths at 1e-6 deg.
        # The R1 and R2 witnesses' lengths were off their costs by at most
        # 2.1e-12, 2.2e-10 and 2.0e-8 base lengths (0.17 of the bound); a
        # bounce point thrown off its segment puts them off by up to 6.9.
        for std, p, pose, t, q in data.draw(poses.instances({"apex": deg, "at": VertexId.A}, shift=1e3, n=10)):
            bound = 16 * math.ulp(max(abs(x) for v in std.vertices for x in v))
            want, got = fleet_costs(std, p), fleet_costs(t, q)
            for n in ("r1", "r2", "r3"):
                gap = abs(getattr(got, n).cost / pose.scale - getattr(want, n).cost)
                assert gap <= bound, (n, gap)
            for tr in _trajectories(got):
                gap = abs(polyline_length(tr.waypoints) - tr.cost) / pose.scale
                assert gap <= bound, (tr.kind, tr.edge_sequence, gap)

    def test_thin_instance_certifies(self):
        # A 1e-6 deg apex at unit base, rotated, at a point 0.3 of the way
        # along a long edge.  A bounce point thrown off its segment makes the
        # R1 witness 0.1708 longer than R1.
        t = Triangle((-41412789.39174358, 39595292.05318967), (0.0, 0.0), (0.6910682158908876, 0.7227895412811294))
        rep = fleet_costs(t, Point2(-28988952.574220505, 27716704.43723277))
        certify_instance(t, rep.point, {"r1": rep.r1.cost, "r2": rep.r2.cost, "r3": rep.r3.cost})
        assert abs(polyline_length(rep.r1.trajectory.waypoints) - rep.r1.cost) <= CERTIFY_TOL

    @settings(max_examples=21)
    @given(poses.instances({"least": 1.0}, ("near-vertex",), scale=(-13.0, -9.0), binary=(-1000, 0), shift=10.0, n=15))
    def test_tiny_scale_drops_are_as_long_as_their_cost(self, instances):
        # Points near a vertex of triangles at scales 1e-13 to 1e-9 and
        # below: a drop's foot is kept or merged by its standard-form length,
        # so a drop with one waypoint costs at most EXACT_TIE base lengths.
        # Of 361 such drops the worst was off by 1.6e-15; an absolute 1e-15
        # cut-off in the pose puts 35 off by more than 1e-9, the worst by
        # 2.4e-3.
        for inst in instances:
            for w in r2(inst.t, inst.q).witnesses:
                gap = abs(polyline_length(w.single.waypoints) - w.single.cost) / inst.pose.scale
                assert gap <= 1e-9, (w.single_edge, gap)


def _trajectories(rep):
    """The R1 witness and every R2 witness's two trajectories."""
    return [rep.r1.trajectory, *(tr for w in rep.r2.witnesses for tr in (w.single, w.pair))]


def _tie_sets(rep):
    """The R1 order set, the R2 set of (lone edge, determined_by) and the R3
    edge set, as sets: the order of tied R2 witnesses and a tied pair's
    visit order follow rounding."""
    return (set(rep.r1.orders), {(w.single_edge, w.determined_by) for w in rep.r2.witnesses}, set(rep.r3.edges))


@functools.cache
def _special_reports(b, c):
    """The standard-form triangle with ``b`` and ``c`` degrees at B and C,
    and its ``fleet_costs`` at each of its special points, made once."""
    std = triangle_from_angles(math.radians(b), math.radians(c))
    return std, [(p, fleet_costs(std, p)) for p in poses.special_points(std)]


class TestPosedTieSets:
    """The tie sets at a point do not change under a similarity: the
    decisions are made in standard form with a slack in the standard
    form's scale."""

    @pytest.mark.parametrize("b, c", poses.TIE_SHAPES)
    @settings(max_examples=11)
    @given(data=st.data())
    def test_tie_sets_keep_under_similarities(self, b, c, data):
        # 60 similarities, each of every special point.
        std, specials = _special_reports(b, c)
        for inst in data.draw(poses.instances(std, n=6)):
            for p, rep in specials:
                assert _tie_sets(fleet_costs(inst.t, inst.pose(p))) == _tie_sets(rep), p


class TestMirrorImages:
    """x -> -x reverses the vertex order, so ``Triangle`` relabels the image
    with B and C swapped, which swaps edges L and R: every order, R3 edge and
    R2 lone edge maps under L <-> R, and every cost stays, times the pose's
    power of two."""

    @pytest.mark.parametrize("b, c", [*poses.TIE_SHAPES, (89.9995, 89.9995), (89.5, 89.6)])
    @settings(max_examples=3)
    @given(data=st.data())
    def test_labels_swap_left_and_right(self, b, c, data):
        # Over 400 points (the special points and 30 drawn ones per shape)
        # the label sets all mapped and the costs were at most 2 ulps of M
        # apart.  The mirror images are drawn at every 2^k.
        swap = {EdgeId.L: EdgeId.R, EdgeId.D: EdgeId.D, EdgeId.R: EdgeId.L}
        std, specials = _special_reports(b, c)
        bound = 4 * math.ulp(max(abs(x) for v in std.vertices for x in v))
        mirrors = data.draw(poses.instances(std, scale=0.0, shift=0.0, rotation=0.0, mirror=True, n=25))
        for i, m in enumerate(mirrors):
            p, rep = specials[i] if i < len(specials) else (m.p, fleet_costs(std, m.p))
            mirrored = fleet_costs(m.t, m.pose(p))
            want = (
                {VisitOrder("".join(swap[e].value for e in o.edges)) for o in rep.r1.orders},
                {(swap[w.single_edge], w.determined_by) for w in rep.r2.witnesses},
                {swap[e] for e in rep.r3.edges},
            )
            assert _tie_sets(mirrored) == want, p
            for n in ("r1", "r2", "r3"):
                assert abs(getattr(mirrored, n).cost / m.pose.scale - getattr(rep, n).cost) <= bound, (p, n)


class TestPowersOfTwo:
    """Scaling a pose by 2^k scales every coordinate exactly, and the gates
    decide on coordinate differences scaled back by a power of two, so every
    decision is the same at every k and every cost is 2^k times the cost at
    k = 0, bit for bit, out to 2^+-1000."""

    @staticmethod
    def _check(inst):
        unit = inst.at(0)
        assert inst.t.contains(inst.q) == unit.t.contains(unit.q)
        if not unit.t.contains(unit.q):
            return
        got, want = fleet_costs(inst.t, inst.q), fleet_costs(unit.t, unit.q)
        for n in ("r1", "r2", "r3"):
            assert getattr(got, n).cost == math.ldexp(getattr(want, n).cost, inst.pose.k), n
        assert _tie_sets(got) == _tie_sets(want)

    @settings(max_examples=12)
    @given(poses.instances(nudge=None, n=6))
    def test_costs_and_tie_sets_scale_exactly(self, instances):
        for inst in instances:
            self._check(inst)

    @pytest.mark.parametrize("k", [-1000, -600, -150, 150, 600, 1000])
    def test_unit_instance_far_from_unit_scale(self, k):
        # Squared sides overflow at 2^600 and underflow at 2^-600 without
        # the prescaling, and the gates then called the triangle degenerate.
        std = Triangle((0.5, 0.8), (0.0, 0.0), (1.0, 0.0))
        self._check(poses.instance(std, Point2(0.5, 0.3), poses.Pose(0.0, 0.0, k)))


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

    @settings(max_examples=6)
    @given(poses.instances(kinds=("incenter",), n=10, **poses.PLAIN))
    def test_closed_forms_scale(self, instances):
        for inst in instances:
            for closed in (r1_incenter_closed, r1_mid_altitude_closed):
                assert closed(inst.t) == pytest.approx(inst.pose.scale * closed(inst.std), rel=1e-12)


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
