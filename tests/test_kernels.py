import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import trivisit
from trivisit import _kernels
from trivisit._kernels import _EDGES, _PAIRS, TriangleKernel, _unfold3, barycentric_grid, points_array
from trivisit.fleet_costs import _partitions, fleet_costs, r1, r2, r3
from trivisit.geom_core import (
    EdgeId,
    GeometryError,
    Line,
    Point2,
    Similarity,
    Triangle,
    VertexId,
    altitude_midpoint,
    incenter,
    project,
    reflect,
    shared_vertex,
    triangle_from_angles,
)
from trivisit.visitation import StandardPoint, VisitOrder, visit_three_ordered, visit_two_set

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


def _posed(rng, count):
    """Random triangles under similarities of scale 1e-3 to 1e3."""
    out = []
    for _ in range(count):
        t = random_triangle(rng, min_angle=math.radians(0.5))
        sim = Similarity(rng.uniform(0.0, 2 * math.pi), 10.0 ** rng.uniform(-3.0, 3.0),
                         Point2(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)))
        out.append(Triangle(sim.apply(t.a), sim.apply(t.b), sim.apply(t.c)))
    return out


def _hexes(value):
    """Every float in ``value`` as ``float.hex``, so that comparisons are
    exact down to the sign of zero."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Line):
        return _hexes((value.a, value.b, value.c))
    if dataclasses.is_dataclass(value):
        return tuple(_hexes(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(_hexes(v) for v in value)
    return value


def _edge_line(t, e):
    return Line.from_points(*(t.vertex(v) for v in e.endpoints))


def _reference_unfold3(t, order):
    """The ordered three-edge unfolding built from geom_core objects."""
    e1, e2, e3 = order.edges
    line1 = _edge_line(t, e1)
    apex, base_vertex, corner = (t.vertex(shared_vertex(*es)) for es in ((e1, e2), (e1, e3), (e2, e3)))
    corner_img = reflect(corner, line1)
    line2u = Line.from_points(apex, corner_img)
    far_img = reflect(base_vertex, line2u)
    u = (far_img - corner_img).unit()
    sigma_z = math.copysign(1.0, u.dot(base_vertex - apex))
    alt_foot = project(apex, _edge_line(t, e3))
    return (order, line1, line2u, apex, base_vertex, corner, corner_img, far_img, u, sigma_z, alt_foot)


def _reference_pair_unfolding(t, first, second):
    pivot = shared_vertex(first, second)
    far = t.vertex(next(v for v in second.endpoints if v is not pivot))
    return t.vertex(pivot), far, reflect(far, _edge_line(t, first))


def _segment_row(p0, p1):
    dx, dy = p1.x - p0.x, p1.y - p0.y
    return (p0.x, p0.y, dx, dy, dx * dx + dy * dy)


class TestTriangleRow:
    def test_unfoldings_and_tables_match_geom_core(self, rng):
        for t in _posed(rng, 200):
            k = TriangleKernel(t)
            for i, order in enumerate(VisitOrder):
                ref = _reference_unfold3(t, order)
                assert _hexes(_unfold3(t, order)) == _hexes(ref)
                assert _hexes(k.unfolding(order)) == _hexes(ref)
                _, _, _, apex, _, _, corner_img, _, u, sigma_z, alt_foot = ref
                row = (*corner_img, *u, *apex, sigma_z, apex.dist(alt_foot))
                assert _hexes(k._unfolds[i]) == _hexes(row)
            for i, (first, second) in enumerate(_PAIRS):
                pivot, far, far_img = _reference_pair_unfolding(t, first, second)
                assert _hexes(k.pair_unfolding(first, second)) == _hexes((pivot, far, far_img))
                assert _hexes(k._pairs[i]) == _hexes(_segment_row(pivot, far_img))
            for i, e in enumerate(_EDGES):
                assert _hexes(k._segs[i]) == _hexes(_segment_row(*(t.vertex(v) for v in e.endpoints)))
            assert k.scale.hex() == t.base_length.hex()

    def test_stacked_tables_equal_single_tables(self, rng):
        tris = _posed(rng, 64)
        k = TriangleKernel(tris)
        assert k.rows.shape == (64, len(k.rows[0]))
        for i, t in enumerate(tris):
            one = TriangleKernel(t)
            for name in ("_segs", "_pairs", "_unfolds"):
                stacked = getattr(k, name)[..., i, 0]
                assert _hexes(stacked.tolist()) == _hexes(getattr(one, name)), name
            assert k.scale[i, 0].item().hex() == one.scale.hex()
            assert k.tol[i, 0].item().hex() == one.tol.hex()

    def test_edges_at_segment_eps_raise(self):
        # Sides this short pass the relative area gate but no line fits them.
        t = Triangle((0.5e-12, 0.5e-12), (0.0, 0.0), (1e-12, 0.0))
        for arg in (t, [t]):
            with pytest.raises(GeometryError):
                TriangleKernel(arg)


@pytest.mark.parametrize("module", ["_kernels.py", "oracle.py"])
def test_imports_only_geom_core_from_the_package(module):
    """The kernel and the brute-force oracle stay independent of the
    evaluators built on them: within the package they import geom_core only."""
    tree = ast.parse((Path(trivisit.__file__).parent / module).read_text())
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("trivisit")):
            inside.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            inside.update(a.name for a in node.names if a.name.startswith("trivisit"))
    assert inside <= {".geom_core", "trivisit.geom_core"}, inside


def _pinned_instances(rng, count):
    """Posed triangles (every tenth with a 0.5 deg apex) with a vertex, an
    edge point, the incenter, an altitude midpoint or an interior point."""
    apex = triangle_from_angles(math.radians(89.75), math.radians(89.75))
    out = []
    for i, t in enumerate(_posed(rng, count)):
        if i % 10 == 0:
            sim = Similarity(rng.uniform(0.0, 2 * math.pi), 10.0 ** rng.uniform(-3.0, 3.0), Point2(1.0, -2.0))
            t = Triangle(*(sim.apply(v) for v in apex.vertices))
        v = t.vertices
        k = i % 5
        if k == 0:
            p = v[i % 3]
        elif k == 1:
            a, b = v[i % 3], v[(i + 1) % 3]
            p = a + rng.uniform() * (b - a)
        elif k == 2:
            p = incenter(t)
        elif k == 3:
            p = altitude_midpoint(t, tuple(VertexId)[i % 3])
        else:
            w = rng.dirichlet((1.0, 1.0, 1.0))
            p = Point2(*(w[0] * np.asarray(v[0]) + w[1] * np.asarray(v[1]) + w[2] * np.asarray(v[2])))
        out.append((t, Point2(float(p.x), float(p.y))))
    return out


def _array_hexes(a):
    return tuple(float(x).hex() for x in np.ravel(a))


class TestFamilies:
    def test_one_point_families_match_array_methods(self, rng):
        """The one-broadcast families at a point equal the per-member array
        methods of the same kernel bit for bit."""
        for t, p in _pinned_instances(rng, 500):
            sp = StandardPoint(t, p)
            k, pts = sp.kernel, sp.pts
            costs, cases = sp.orders
            assert costs.shape == (6, 1)
            for i, order in enumerate(VisitOrder):
                cost, want = k.ordered3_cases(pts, order)
                assert _array_hexes(costs[i]) == _array_hexes(cost), order
                assert {kind: bool(m[i, 0]) for kind, m in cases.items()} == {kind: bool(m[0]) for kind, m in want.items()}
            assert sp.ordered_pairs.shape == (6, 1)
            for i, pair in enumerate(_PAIRS):
                assert _array_hexes(sp.ordered_pairs[i]) == _array_hexes(k.ordered2(pts, *pair)), pair
            assert _array_hexes(sp.edge_dists) == _array_hexes(k.r3_all(pts))
            ones = _partitions(sp)
            for got, want in zip(ones, k.r2_partitions(pts)):
                assert _array_hexes(got) == _array_hexes(want)

    def test_edge_line_is_the_triangle_edge_line(self, rng):
        for t in _posed(rng, 20):
            k = TriangleKernel(t)
            for e in _EDGES:
                assert _hexes(k.edge_line(e)) == _hexes(t.edge_line(e))


@pytest.fixture
def body_calls(monkeypatch):
    """Counts of the calls of the ordered three-edge body and of the
    segment distance, which every edge and ordered-pair cost goes through."""
    calls = {"ordered3": 0, "seg_dist": 0}
    ordered3, seg_dist = _kernels._ordered3_cases, TriangleKernel._seg_dist

    def counted_ordered3(pts, table, tol):
        calls["ordered3"] += 1
        return ordered3(pts, table, tol)

    def counted_seg_dist(cls, pts, key):
        calls["seg_dist"] += 1
        return seg_dist(pts, key)

    monkeypatch.setattr(_kernels, "_ordered3_cases", counted_ordered3)
    monkeypatch.setattr(TriangleKernel, "_seg_dist", classmethod(counted_seg_dist))
    return calls


# (triangle, point, optimal orders): the equilateral incenter has six
# optimal orders, three kept partitions and three farthest edges, the right
# isosceles mid-altitude point four optimal orders; no witness may cost a
# family evaluation of its own.
_TIED = [
    (triangle_from_angles(math.pi / 3, math.pi / 3), Point2(0.5, math.sqrt(3) / 6), 6),
    (triangle_from_angles(math.pi / 4, math.pi / 4), Point2(0.5, 0.25), 4),
    (triangle_from_angles(math.radians(70), math.radians(55)), Point2(0.4, 0.2), 1),
]
_TIED_IDS = ("equilateral-incenter", "right-isosceles-mid-altitude", "scalene")


class TestOneEvaluationPerFamily:
    @pytest.mark.parametrize("t, p, optimal", _TIED, ids=_TIED_IDS)
    def test_fleet_costs(self, body_calls, t, p, optimal):
        assert len(fleet_costs(t, p).r1.orders) == optimal
        assert body_calls == {"ordered3": 1, "seg_dist": 2}

    @pytest.mark.parametrize("t, p, optimal", _TIED, ids=_TIED_IDS)
    def test_visit_two_set(self, body_calls, t, p, optimal):
        for edges in ((EdgeId.L, EdgeId.D), (EdgeId.R, EdgeId.L)):
            visit_two_set(t, p, edges)
        assert body_calls == {"ordered3": 0, "seg_dist": 2}

    @pytest.mark.parametrize("t, p, optimal", _TIED, ids=_TIED_IDS)
    def test_visit_three_ordered(self, body_calls, t, p, optimal):
        visit_three_ordered(t, p, VisitOrder.DLR)
        assert body_calls == {"ordered3": 1, "seg_dist": 0}
