import math

import numpy as np
import pytest

from trivisit._kernels import TriangleKernel, barycentric_grid, points_array
from trivisit.fleet_costs import r1, r2, r3
from trivisit.geom_core import Point2, triangle_from_angles
from trivisit.visitation import VisitOrder, visit_three_ordered

from conftest import random_triangle


class TestAgainstScalar:
    def test_fleet_costs_agree(self, rng):
        for _ in range(25):
            t = random_triangle(rng)
            k = TriangleKernel(t)
            pts = barycentric_grid(t, 10)
            v1, v2, v3 = k.r1(pts), k.r2(pts), k.r3(pts)
            for i, xy in enumerate(pts):
                p = Point2(float(xy[0]), float(xy[1]))
                assert abs(v1[i] - r1(t, p).cost) < 1e-9
                assert abs(v2[i] - r2(t, p).cost) < 1e-9
                assert abs(v3[i] - r3(t, p).cost) < 1e-9

    def test_ordered3_agrees(self, rng):
        for _ in range(10):
            t = random_triangle(rng)
            k = TriangleKernel(t)
            pts = barycentric_grid(t, 8)
            for order in VisitOrder:
                vals = k.ordered3(pts, order)
                for i, xy in enumerate(pts):
                    p = Point2(float(xy[0]), float(xy[1]))
                    assert abs(vals[i] - visit_three_ordered(t, p, order).cost) < 1e-9


class TestGrid:
    def test_point_count(self):
        t = triangle_from_angles(math.pi / 3, math.pi / 3)
        pts = barycentric_grid(t, 12)
        assert len(pts) == 12 * 13 // 2

    def test_all_inside(self):
        t = triangle_from_angles(math.radians(80), math.radians(55))
        for xy in barycentric_grid(t, 20):
            assert t.contains(Point2(float(xy[0]), float(xy[1])), tol=1e-9)

    def test_vertex_exclusion(self):
        t = triangle_from_angles(math.pi / 3, math.pi / 3)
        pts = barycentric_grid(t, 12, include_vertices=False)
        assert len(pts) == 12 * 13 // 2 - 3
        for v in t.vertices:
            assert min(np.hypot(pts[:, 0] - v.x, pts[:, 1] - v.y)) > 1e-6


class TestStacked:
    def test_matches_single_kernels(self, rng):
        tris = [random_triangle(rng) for _ in range(5)]
        k = TriangleKernel(tris)
        pts = barycentric_grid(tris, 9)
        assert pts.shape == (5, 45, 2)
        for robots in (1, 2, 3):
            stacked = k.cost(pts, robots)
            assert stacked.shape == (5, 45)
            for i, t in enumerate(tris):
                np.testing.assert_array_equal(stacked[i], TriangleKernel(t).cost(pts[i], robots))

    def test_grid_rows_match_single_grids(self, rng):
        tris = [random_triangle(rng) for _ in range(3)]
        pts = barycentric_grid(tris, 7, include_vertices=False)
        for i, t in enumerate(tris):
            np.testing.assert_array_equal(pts[i], barycentric_grid(t, 7, include_vertices=False))


class TestPointsArray:
    def test_points_array_shapes(self):
        assert points_array([(0.0, 1.0)]).shape == (1, 2)
        assert points_array([(0.0, 1.0), (2.0, 3.0)]).shape == (2, 2)
