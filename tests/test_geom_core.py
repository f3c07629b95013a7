import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trivisit.geom_core import (
    Cone,
    DegenerateTriangleError,
    GeometryError,
    Line,
    ObtuseTriangleError,
    Parabola,
    Point2,
    Segment,
    Similarity,
    Triangle,
    closest_point_on_segment,
    dist_point_segment,
    foot_of_bisector,
    incenter,
    project,
    reflect,
    standard_form,
    triangle_from_angles,
    vertex_from_angles,
    VertexId,
)
from trivisit.fleet_costs import fleet_costs

from conftest import random_triangle

SQRT3 = math.sqrt(3.0)


class TestStandardForm:
    def test_scaled_equilateral(self):
        t = Triangle((1, SQRT3), (0, 0), (2, 0))
        std, sim = standard_form(t)
        assert std.b == Point2(0.0, 0.0)
        assert std.c == Point2(1.0, 0.0)
        assert std.a.dist(Point2(0.5, SQRT3 / 2)) < 1e-12
        assert sim.scale == pytest.approx(0.5)

    def test_already_standard_is_identity(self):
        t = triangle_from_angles(math.radians(65), math.radians(50))
        _, sim = standard_form(t)
        assert sim.is_identity(1e-12)

    def test_rotated_pose(self):
        # BC vertical, so a quarter-turn rotation is folded into the map.
        t = Triangle((4.5, 5.5), (5, 5), (5, 6))
        std, sim = standard_form(t)
        assert std.a.dist(Point2(0.5, 0.5)) < 1e-12
        assert abs(abs(sim.rotation) - math.pi / 2) < 1e-12

    def test_round_trip(self, rng):
        for _ in range(200):
            t = random_triangle(rng, posed=True)
            std, sim = standard_form(t)
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

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            Triangle((0, 0), (1, 1), (2, 2))

    @pytest.mark.parametrize("apex", [(0.5, math.sqrt(3) / 2), (0.5, 0.5)], ids=["equilateral", "right-isosceles"])
    @pytest.mark.parametrize("side", [1e-7, 1e-9])
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

    def test_equidistant_from_edges(self, rng):
        for _ in range(1000):
            t = random_triangle(rng, posed=True)
            i = incenter(t)
            dists = [
                dist_point_segment(i, Segment(t.a, t.b)),
                dist_point_segment(i, Segment(t.b, t.c)),
                dist_point_segment(i, Segment(t.c, t.a)),
            ]
            scale = t.base_length
            assert max(dists) - min(dists) < 1e-12 * max(1.0, scale)


finite_line = st.builds(
    lambda px, py, ang: Line.from_point_normal(
        Point2(px, py), Point2(math.cos(ang), math.sin(ang))
    ),
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
        assert closest_point_on_segment(Point2(2.0, 1.0), seg) == Point2(1.0, 0.0)

    def test_line_normalized(self):
        line = Line(3.0, 4.0, 10.0)
        assert math.hypot(line.a, line.b) == pytest.approx(1.0)
        assert line.signed_dist(Point2(0, 0)) == pytest.approx(2.0)


class TestSimilarity:
    def test_inverse_composes_to_identity(self, rng):
        for _ in range(100):
            sim = Similarity(
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0.1, 10),
                Point2(rng.uniform(-5, 5), rng.uniform(-5, 5)),
            )
            assert sim.compose(sim.inverse()).is_identity(1e-12)
            assert sim.inverse().compose(sim).is_identity(1e-12)

    def test_apply_matches_compose(self):
        s1 = Similarity(0.3, 2.0, Point2(1, 2))
        s2 = Similarity(-1.1, 0.5, Point2(-3, 0.5))
        p = Point2(0.7, -0.2)
        assert s1.compose(s2).apply(p).dist(s1.apply(s2.apply(p))) < 1e-12

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
    def test_cone_contains(self):
        cone = Cone(Point2(0, 0), Point2(1, 0), math.pi / 6)
        assert cone.contains(Point2(1, 0.2))
        assert not cone.contains(Point2(1, 1))
        assert cone.contains(Point2(0, 0))  # tip

    def test_empty_cone(self):
        cone = Cone(Point2(0, 0), Point2(1, 0), 0.0, empty=True)
        assert not cone.contains(Point2(1, 0))

    def test_parabola_points(self):
        par = Parabola(Point2(0, 1), Line.from_points(Point2(0, 0), Point2(1, 0)))
        for u in (-2.0, -0.5, 0.0, 0.7, 3.0):
            assert abs(par.gap(par.point_at(u))) < 1e-12
            assert par.param_of(par.point_at(u)) == pytest.approx(u)

    def test_parabola_rejects_focus_on_directrix(self):
        with pytest.raises(GeometryError):
            Parabola(Point2(0, 0), Line.from_points(Point2(0, 0), Point2(1, 0)))
