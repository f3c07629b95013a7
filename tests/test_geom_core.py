import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poses
from trivisit.geom_core import (
    DegenerateTriangleError,
    GeometryError,
    Line,
    ObtuseTriangleError,
    OutsideTriangleError,
    Parabola,
    Point2,
    Segment,
    Similarity,
    CONTAINS_TOL,
    Triangle,
    dist_point_segment,
    edge_segment,
    EdgeId,
    foot_of_bisector,
    incenter,
    inward_gap,
    nearest_on_segment,
    project,
    reflect,
    triangle_from_angles,
    vertex_from_angles,
    VertexId,
)
from trivisit._kernels import TriangleKernel
from trivisit.fleet_costs import fleet_costs
from trivisit.oracle import OracleConfig, oracle_costs

from conftest import random_triangle

_FAST_ORACLE = OracleConfig(coarse_resolution=8, tol=0.5)  # only whether it answers is read

SQRT3 = math.sqrt(3.0)


class TestStandardForm:
    def test_scaled_equilateral(self):
        t = Triangle((1, SQRT3), (0, 0), (2, 0))
        std, sim = t.standard()
        assert std.b == Point2(0.0, 0.0)
        assert std.c == Point2(1.0, 0.0)
        assert std.a.dist(Point2(0.5, SQRT3 / 2)) < 1e-12
        assert sim.scale == pytest.approx(0.5)

    def test_already_standard_is_identity(self):
        t = triangle_from_angles(math.radians(65), math.radians(50))
        _, sim = t.standard()
        for q in (*t.vertices, Point2(3.0, -2.0)):
            assert sim.apply(q).dist(q) < 1e-12

    def test_rotated_pose(self):
        # BC vertical, so a quarter-turn rotation is folded into the map.
        t = Triangle((4.5, 5.5), (5, 5), (5, 6))
        std, sim = t.standard()
        assert std.a.dist(Point2(0.5, 0.5)) < 1e-12
        assert abs(abs(sim.rotation) - math.pi / 2) < 1e-12

    @settings(max_examples=21)
    @given(poses.triangles(n=10, **poses.PLAIN))
    def test_round_trip(self, triangles):
        for t in triangles:
            std, sim = t.standard()
            inv = sim.inverse()
            for orig, mapped in zip(t.vertices, std.vertices):
                assert inv.apply(mapped).dist(orig) < 1e-9


class TestVertexFromAngles:
    def test_equilateral(self):
        p = vertex_from_angles(math.pi / 3, math.pi / 3)
        assert p.dist(Point2(0.5, 0.8660254037844386)) < 1e-9

    def test_right_isosceles_apex(self):
        p = vertex_from_angles(math.pi / 4, math.pi / 4)
        assert p.dist(Point2(0.5, 0.5)) < 1e-12

    def test_right_angle_at_b(self):
        p = vertex_from_angles(math.pi / 2, math.pi / 4)
        assert p.dist(Point2(0.0, 1.0)) < 1e-12

    def test_angle_recovery(self, rng):
        for _ in range(300):
            t = random_triangle(rng)
            a = Point2(*t.a)
            rebuilt = triangle_from_angles(t.angle_b, t.angle_c)
            assert rebuilt.a.dist(a) < 1e-9
            assert abs(rebuilt.angle_b - t.angle_b) < 1e-9
            assert abs(rebuilt.angle_c - t.angle_c) < 1e-9

    def test_rejects_obtuse_apex(self):
        with pytest.raises(ObtuseTriangleError):
            vertex_from_angles(math.radians(30), math.radians(40))

    def test_rejects_flat(self):
        with pytest.raises(DegenerateTriangleError):
            vertex_from_angles(math.pi / 2, math.pi / 2)


class TestTriangle:
    def test_non_obtuse_gate_allows_right_angle(self):
        Triangle((0.5, 0.5), (0, 0), (1, 0))  # exact right angle passes

    def test_non_obtuse_gate_rejects_obtuse(self):
        with pytest.raises(ObtuseTriangleError):
            Triangle((0.5, 0.05), (0, 0), (1, 0))

    @pytest.mark.parametrize("angles", [(1e-6, 90.0), (1e-4, 90.0 - 1e-4)], ids=["right-angle-at-C", "right-angle-at-apex"])
    @settings(max_examples=11)
    @given(data=st.data())
    def test_posed_thin_right_triangles_pass_the_gate(self, angles, data):
        # Rounding the coordinates turns the right angle past pi/2 (by up to
        # 3.5e-9 rad for the first at unit scale); the gate allows for it,
        # and every cost evaluates, in standard form and posed.
        std = triangle_from_angles(*(math.radians(x) for x in angles))
        for inst in data.draw(poses.instances(std, n=20)):
            fleet_costs(inst.t, incenter(inst.t))

    @pytest.mark.parametrize("angles", [(44.999, 90.001), (1e-6, 90.001), (89.999 - 1e-6, 1e-6)],
                             ids=["right-angle-at-C", "thin-at-B", "apex"])
    def test_gate_rejects_90_001_deg_at_every_scale(self, angles):
        b, c = (math.radians(x) for x in angles)
        s = math.sin(b + c)
        apex = Point2(math.cos(b) * math.sin(c) / s, math.sin(b) * math.sin(c) / s)
        for e in range(-9, 10):
            sim = Similarity(0.1 + 0.31 * e, 10.0 ** e, Point2(0.0, 0.0))
            with pytest.raises(ObtuseTriangleError):
                Triangle(*(sim.apply(v) for v in (apex, Point2(0.0, 0.0), Point2(1.0, 0.0))))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            Triangle((0, 0), (1, 1), (2, 2))

    @pytest.mark.parametrize("apex", [(0.5, math.sqrt(3) / 2), (0.5, 0.5)], ids=["equilateral", "right-isosceles"])
    @pytest.mark.parametrize("side", [1e-7, 1e-9, 1e-12, 1e-13])
    def test_tiny_perfect_triangle_accepted(self, apex, side):
        # The degeneracy gate is relative to the triangle's size, so a
        # perfect shape passes at any scale and its costs scale with it.
        verts = (apex, (0.0, 0.0), (1.0, 0.0))
        unit = Triangle(*verts)
        tiny = Triangle(*((side * x, side * y) for x, y in verts))
        p = incenter(unit)
        want = fleet_costs(unit, p)
        got = fleet_costs(tiny, Point2(side * p.x, side * p.y))
        for key in ("r1", "r2", "r3"):
            ref = side * getattr(want, key).cost
            assert abs(getattr(got, key).cost - ref) <= 1e-9 * ref

    def test_orientation_normalized(self):
        t = Triangle((0.5, 0.8), (1, 0), (0, 0))  # clockwise input
        assert (t.b - t.a).cross(t.c - t.a) > 0

    def test_contains(self):
        t = triangle_from_angles(math.pi / 3, math.pi / 3)
        assert t.contains(Point2(0.5, 0.2))
        assert t.contains(Point2(0.5, 0.0))           # boundary
        assert not t.contains(Point2(2.0, 2.0))
        assert t.contains(Point2(0.5, -0.5e-9))       # inside slack
        assert not t.contains(Point2(0.5, -1e-6))

    @settings(max_examples=11)
    @given(poses.instances({"apex": 1e-6}, ("edge",), n=24))
    def test_contains_long_edge_points_of_thin_triangles(self, instances):
        # A 1e-6 deg apex: a point computed on a long edge is off it by
        # rounding of coordinates about 5.7e7 base lengths in size, more than
        # CONTAINS_TOL of the base, and still lies inside, in the pose and
        # (through fleet_costs) in standard form.
        for inst in instances:
            assert inst.t.contains(inst.q)
            fleet_costs(inst.t, inst.q)

    # The example: vertex C of a small triangle about 730 from the origin,
    # up to the last digit.  The pose accepts it, and nothing gates it again
    # in standard form, where an ulp of the pose is many base lengths.
    @settings(max_examples=8)
    @given(poses.instances(nudge=True, n=10).map(lambda instances: [(inst.t, inst.q) for inst in instances]))
    @example([(Triangle((-43.01990492393453, 728.3900355068699), (-43.01990327223518, 728.3900357925199),
                        (-43.01990448432249, 728.3900371079799)), Point2(-43.01990448432249, 728.39003710798))])
    def test_contains_exactly_when_costs_answer(self, instances):
        # Over nudged points of every kind and small triangles far off the
        # origin: one gate, in the pose, for the closed forms and the oracle.
        for t, q in instances:
            inside = t.contains(q)
            for costs in (fleet_costs, lambda t, q: oracle_costs(t, q, _FAST_ORACLE)):
                try:
                    costs(t, q)
                except OutsideTriangleError as exc:
                    assert not inside, exc
                    assert str(exc) == f"point {tuple(q)} lies outside the triangle"
                else:
                    assert inside

    def test_contains_rejects_non_finite_points(self):
        t = triangle_from_angles(math.pi / 3, math.pi / 3)
        for p in ((math.nan, 0.2), (0.5, math.inf), (-math.inf, 0.0)):
            assert not t.contains(Point2(*p))


class TestIncenter:
    def test_equilateral(self):
        t = triangle_from_angles(math.pi / 3, math.pi / 3)
        assert incenter(t).dist(Point2(0.5, 0.28867513459481287)) < 1e-12

    def test_right_isosceles(self):
        t = triangle_from_angles(math.pi / 4, math.pi / 4)
        assert incenter(t).dist(Point2(0.5, 0.2071067811865476)) < 1e-12

    def test_scales_with_triangle(self):
        t = triangle_from_angles(math.pi / 3, math.pi / 3)
        t3 = Triangle(3 * t.a, 3 * t.b, 3 * t.c)
        assert incenter(t3).dist(3 * incenter(t)) < 1e-12

    @settings(max_examples=41)
    @given(poses.triangles(n=25, **poses.PLAIN))
    def test_equidistant_from_edges(self, triangles):
        for t in triangles:
            i = incenter(t)
            dists = [
                dist_point_segment(i, Segment(t.a, t.b)),
                dist_point_segment(i, Segment(t.b, t.c)),
                dist_point_segment(i, Segment(t.c, t.a)),
            ]
            scale = t.base_length
            assert max(dists) - min(dists) < 1e-12 * max(1.0, scale)


finite_line = st.builds(
    lambda px, py, ang: Line(math.cos(ang), math.sin(ang), -(math.cos(ang) * px + math.sin(ang) * py)),
    st.floats(-100, 100),
    st.floats(-100, 100),
    st.floats(0, 2 * math.pi),
)
finite_point = st.builds(Point2, st.floats(-100, 100), st.floats(-100, 100))


class TestLineOps:
    def test_reflect_example(self):
        x_axis = Line.from_points(Point2(0, 0), Point2(1, 0))
        assert reflect(Point2(0.3, 0.4), x_axis).dist(Point2(0.3, -0.4)) < 1e-15

    @given(finite_point, finite_line)
    def test_reflect_involution(self, p, line):
        assert reflect(reflect(p, line), line).dist(p) < 1e-12 * max(1.0, p.norm())

    @given(finite_point, finite_line)
    def test_projection_on_line(self, p, line):
        q = project(p, line)
        assert abs(line.signed_dist(q)) < 1e-9

    def test_dist_point_segment_clamps(self):
        seg = Segment(Point2(0, 0), Point2(1, 0))
        assert dist_point_segment(Point2(0.5, 0.5), seg) == pytest.approx(0.5)
        assert dist_point_segment(Point2(2.0, 0.0), seg) == pytest.approx(1.0)
        assert nearest_on_segment(2.0, 1.0, *seg.p0, *seg.p1) == (1.0, 0.0, math.hypot(1.0, 1.0))

    @pytest.mark.parametrize("k", [-600, -537, 520, 600])
    def test_dist_point_segment_scales_exactly(self, k):
        # Squared edge lengths underflow below about 2^-537 and overflow
        # above about 2^511; the projection must not form them unscaled.
        t = triangle_from_angles(math.radians(70), math.radians(55))
        tk = Triangle(*(Point2(math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in t.vertices))
        for p in (Point2(0.5, 0.3), Point2(1.3, 0.2), Point2(-0.2, 0.9), incenter(t), t.a):
            pk = Point2(math.ldexp(p.x, k), math.ldexp(p.y, k))
            for e in EdgeId:
                want = math.ldexp(dist_point_segment(p, edge_segment(t, e)), k)
                assert dist_point_segment(pk, edge_segment(tk, e)) == want, (p, e)

    def test_from_points_rejects_coincident_points(self):
        with pytest.raises(GeometryError, match="coincident"):
            Line.from_points(Point2(0.3, 0.4), Point2(0.3, 0.4))

    def test_line_normalized(self):
        line = Line(3.0, 4.0, 10.0)
        assert math.hypot(line.a, line.b) == pytest.approx(1.0)
        assert line.signed_dist(Point2(0, 0)) == pytest.approx(2.0)


class TestInwardGap:
    """``inward_gap``, the signed distance to the nearest edge line, at
    interior points of standard forms with every angle at least 1 deg."""

    @settings(max_examples=10)
    @given(poses.instances(kinds=("interior",), n=10, **poses.PLAIN))
    def test_interior_gap_is_the_nearest_edge_distance(self, instances):
        # In a non-obtuse triangle each interior point's foot on an edge
        # line lies on the edge, so the gap is the least of the kernel's
        # point-to-edge distances.  Over 4,000 such points they differed by
        # at most 1.42 ulps of M, the largest coordinate magnitude.
        for std, p, *_ in instances:
            m = max(abs(x) for q in (*std.vertices, p) for x in q)
            nearest = TriangleKernel(*std.a).r3_all(np.array([p]))[:, 0].min()
            assert abs(inward_gap(std, p) - nearest) <= 4 * math.ulp(m)

    @settings(max_examples=10)
    @given(poses.instances(kinds=("interior",), n=10, **poses.PLAIN))
    def test_zero_at_vertices_negative_off_edges(self, instances):
        for std, *_ in instances:
            m = max(abs(x) for v in std.vertices for x in v)
            # The edge out of a vertex reads it exactly 0, the edge into it
            # within rounding.
            for v in std.vertices:
                assert -math.ulp(m) <= inward_gap(std, v) <= 0.0
            # Points of each edge moved off it, along its outward normal, by
            # twice the slack that ``contains`` allows.
            for u, v in ((std.a, std.b), (std.b, std.c), (std.c, std.a)):
                out = Point2(v.y - u.y, u.x - v.x) * (1.0 / u.dist(v))
                for f in (0.0, 0.3, 0.5, 1.0):
                    q = u + f * (v - u) + 2.0 * CONTAINS_TOL * out
                    assert inward_gap(std, q) < -CONTAINS_TOL
                    assert not std.contains(q)


class TestSimilarity:
    def test_inverse_composes_to_identity(self, rng):
        for _ in range(100):
            sim = Similarity(
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0.1, 10),
                Point2(rng.uniform(-5, 5), rng.uniform(-5, 5)),
            )
            inv = sim.inverse()
            for p in (Point2(0.0, 0.0), Point2(rng.uniform(-5, 5), rng.uniform(-5, 5))):
                assert inv.apply(sim.apply(p)).dist(p) < 1e-12
                assert sim.apply(inv.apply(p)).dist(p) < 1e-12

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(GeometryError):
            Similarity(0.0, 0.0, Point2(0, 0))


class TestFootOfBisector:
    def test_equilateral_apex(self):
        t = triangle_from_angles(math.pi / 3, math.pi / 3)
        assert foot_of_bisector(t, VertexId.A).dist(Point2(0.5, 0.0)) < 1e-12

    def test_foot_on_opposite_edge(self, rng):
        for _ in range(100):
            t = random_triangle(rng)
            k = foot_of_bisector(t, VertexId.A)
            assert dist_point_segment(k, Segment(t.b, t.c)) < 1e-12


class TestConeAndParabola:
    def test_parabola_points(self):
        par = Parabola(Point2(0, 1), Line.from_points(Point2(0, 0), Point2(1, 0)))
        for u in (-2.0, -0.5, 0.0, 0.7, 3.0):
            p = par.point_at(u)
            assert abs(p.dist(par.focus) - abs(par.directrix.signed_dist(p))) < 1e-12
            assert par.param_of(par.point_at(u)) == pytest.approx(u)

    def test_parabola_rejects_focus_on_directrix(self):
        with pytest.raises(GeometryError):
            Parabola(Point2(0, 0), Line.from_points(Point2(0, 0), Point2(1, 0)))
