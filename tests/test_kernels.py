import ast
import dataclasses
import math
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poses
import trivisit
from trivisit import _kernels, tradeoffs
from trivisit._kernels import (
    _EDGES, _LONE_PAIRS, _ORDERS, _PAIRS, _SEG_INDEX, BOUNDARY_TOL, StrategyKind, TriangleKernel, _unfold_cases,
    _unfold_coords, barycentric_grid, triangle_row,
)
from trivisit.fleet_costs import _SIDES, fleet_costs, r1, r2, r3
from trivisit.geom_core import (
    EdgeId,
    FloatOps,
    GeometryError,
    Line,
    Point2,
    Triangle,
    VertexId,
    altitude_midpoint,
    incenter,
    line_through,
    opposite_edge,
    project,
    reflect,
    shared_vertex,
    triangle_from_angles,
)
from trivisit.regions import _LABEL_BLOCK, _indicators, r1_lrd_rld_locus, raster_region_map
from trivisit.visitation import StandardPoint, VisitOrder, visit_three_ordered, visit_two_set

from conftest import apexes, random_triangle


class TestAgainstScalar:
    def test_fleet_costs_agree(self, rng):
        for _ in range(25):
            t = random_triangle(rng)
            k = TriangleKernel(*t.a)
            pts = barycentric_grid(t, 10)
            v1, v2, v3 = k.costs(pts, 1, 2, 3)
            for i, xy in enumerate(pts):
                p = Point2(float(xy[0]), float(xy[1]))
                assert abs(v1[i] - r1(t, p).cost) < 1e-9
                assert abs(v2[i] - r2(t, p).cost) < 1e-9
                assert abs(v3[i] - r3(t, p).cost) < 1e-9

    def test_ordered3_agrees(self, rng):
        for _ in range(10):
            t = random_triangle(rng)
            k = TriangleKernel(*t.a)
            pts = barycentric_grid(t, 8)
            for order, vals in zip(VisitOrder, k.r1_all(pts)):
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
            assert t.contains(Point2(float(xy[0]), float(xy[1])))


class TestStacked:
    def test_matches_single_kernels(self, rng):
        tris = [random_triangle(rng) for _ in range(5)]
        k = TriangleKernel(*apexes(tris))
        pts = np.stack([barycentric_grid(t, 9) for t in tris])
        assert pts.shape == (5, 45, 2)
        together = k.costs(pts, 1, 2, 3)
        for robots, stacked in zip((1, 2, 3), together):
            assert stacked.shape == (5, 45)
            np.testing.assert_array_equal(k.costs(pts, robots)[0], stacked)
            for i, t in enumerate(tris):
                np.testing.assert_array_equal(stacked[i], TriangleKernel(*t.a).costs(pts[i], robots)[0])
        assert _array_hexes(k.costs(pts, 3, 2)) == _array_hexes(together[:0:-1])
        with pytest.raises(ValueError, match="fleet size must be 1, 2 or 3, got 4"):
            k.costs(pts, 1, 4)

    def test_repeated_rows_match_the_stack(self, rng):
        # Each triangle ``counts[t]`` times in a row, one point per row: the
        # ratio certifier's layout.  Its costs are the stack's, bit for bit,
        # on 2,104 rows.
        tris = [random_triangle(rng) for _ in range(4)]
        k = TriangleKernel(*apexes(tris))
        pts = np.stack([barycentric_grid(t, 6) for t in tris])
        counts = np.array([3, 0, 2100, 1])
        rows = np.repeat(np.arange(4), counts)
        pick = pts[rows, np.arange(len(rows)) % pts.shape[1]]
        repeated = k.repeat(counts)
        assert repeated.rows is None
        for stacked, got in zip(k.costs(pts, 1, 2, 3), repeated.costs(pick[:, None, :], 1, 2, 3)):
            assert got.shape == (len(rows), 1)
            np.testing.assert_array_equal(got[:, 0], stacked[rows, np.arange(len(rows)) % pts.shape[1]])


# Posed triangles, whose standard forms the kernel tests build their kernels
# on, as every caller does: every shape, scale 1e-3 to 1e3 times 2^k for |k|
# up to 1000, and up to 1e4 base lengths off the origin, so that the
# standard forms carry the rounding of every pose.
_KERNEL_POSES = {"binary": (-1000, 1000)}


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
    """The ordered three-edge unfolding built from geom_core objects, in the
    fields of ``TriangleKernel.order_witness``."""
    e1, e2, e3 = order.edges
    line1 = _edge_line(t, e1)
    apex, base_vertex, corner = (t.vertex(shared_vertex(*es)) for es in ((e1, e2), (e1, e3), (e2, e3)))
    corner_img = reflect(corner, line1)
    line2u = Line.from_points(apex, corner_img)
    far_img = reflect(base_vertex, line2u)
    u = (far_img - corner_img).unit()
    sigma_z = math.copysign(1.0, u.dot(base_vertex - apex))
    alt_foot = project(apex, _edge_line(t, e3))
    return (line1, line2u, corner_img, u, apex, alt_foot, corner, far_img, [sigma_z])


def _reference_pair_unfolding(t, first, second):
    pivot = shared_vertex(first, second)
    far = t.vertex(next(v for v in second.endpoints if v is not pivot))
    return t.vertex(pivot), far, reflect(far, _edge_line(t, first))


def _segment_row(p0, p1):
    dx, dy = p1.x - p0.x, p1.y - p0.y
    return (p0.x, p0.y, dx, dy, dx * dx + dy * dy)


class TestTriangleRow:
    @settings(max_examples=21)
    @given(poses.triangles(n=10, **_KERNEL_POSES))
    def test_unfoldings_and_tables_match_geom_core(self, posed):
        for t in (s.standard()[0] for s in posed):
            k = TriangleKernel(*t.a)
            for i, order in enumerate(VisitOrder):
                ref = _reference_unfold3(t, order)
                assert _hexes(k.order_witness(order)) == _hexes(ref)
                _, _, corner_img, u, apex, alt_foot, _, _, [sigma_z] = ref
                row = (*corner_img, *u, *apex, sigma_z, apex.dist(alt_foot))
                assert _array_hexes(k._unfolds[:, i]) == _hexes(row)
            for i, (first, second) in enumerate(_PAIRS):
                pivot, far, far_img = _reference_pair_unfolding(t, first, second)
                _, _, line1, *points = k.pair_witness(*pivot, first, second)
                assert _hexes(points) == _hexes((pivot, far, far_img))
                assert _hexes(line1) == _hexes(t.edge_line(first))
                assert _array_hexes(k._segs[:, _SEG_INDEX[first, second]]) == _hexes(_segment_row(pivot, far_img))
            for e in _EDGES:
                assert _array_hexes(k._segs[:, _SEG_INDEX[e]]) == _hexes(_segment_row(*(t.vertex(v) for v in e.endpoints)))

    @settings(max_examples=2)
    @given(poses.triangles(n=64, **_KERNEL_POSES))
    def test_stacked_tables_equal_single_tables(self, posed):
        tris = [t.standard()[0] for t in posed]
        k = TriangleKernel(*apexes(tris))
        assert k.rows.shape == (64, len(k.rows[0]))
        for i, t in enumerate(tris):
            one = TriangleKernel(*t.a)
            for name in ("_segs", "_unfolds"):
                stacked = getattr(k, name)[..., i, 0]
                assert stacked.shape == getattr(one, name).shape[:-1], name
                assert _array_hexes(stacked) == _array_hexes(getattr(one, name)), name


def _float_rows(tris):
    return [triangle_row(*t.a, *t.b, *t.c) for t in tris]


def _column_rows(tris):
    """The rows of ``tris`` from one array pass of ``triangle_row`` over
    their (T,) vertex columns.  Posed coordinates near the float range
    square to inf, and inf to nan, silently on plain floats, so here too."""
    cols = np.array([(*t.a, *t.b, *t.c) for t in tris], dtype=float).T
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array(triangle_row(*cols, ops=_kernels._ColumnOps)).T


def _one_degree_computed_cells():
    """The standard forms of every computed cell of the 1 deg sweep."""
    cells = tradeoffs._sweep_cells(1.0, 0.5).computed_cells()
    return [triangle_from_angles(math.radians(i), math.radians(j)) for i, j in cells]


def _hex_rows(rows):
    return [list(map(float.hex, r)) for r in np.asarray(rows).tolist()]


class TestArrayRows:
    """A stack of two or more triangles builds its rows in one array pass of
    ``triangle_row`` over (T,) vertex columns; every entry must be the float
    row's, bit for bit.  A kernel passes the apex columns of standard forms;
    the formula itself serves any vertex columns."""

    @settings(max_examples=6)
    @given(poses.triangles(n=33, **_KERNEL_POSES))
    @pytest.mark.parametrize("count", [2, 3, 33])
    def test_stack_rows_equal_float_rows(self, count, posed):
        # Posed triangles directly, at every scale the pose strategy draws,
        # and their standard forms through the kernel.
        posed = posed[:count]
        stds = [t.standard()[0] for t in posed]
        assert _hex_rows(_column_rows(posed)) == _hex_rows(_float_rows(posed))
        rows = TriangleKernel(*apexes(stds)).rows
        assert rows.shape == (count, len(_float_rows(stds)[0]))
        assert _hex_rows(rows) == _hex_rows(_float_rows(stds))

    def test_rows_far_from_unit_scale_equal_float_rows(self):
        # Coordinates near 1e155 square past the float range: the float row
        # holds inf there without a warning, and so must the array pass.
        s = 1e155
        posed = [Triangle(Point2(0.5 * s, 0.8 * s), Point2(0.0, 0.0), Point2(s, 0.0)),
                 Triangle(Point2(0.9 * s, 1.7 * s), Point2(0.3 * s, -0.2 * s), Point2(2.0 * s, 0.5 * s))]
        want = _hex_rows(_float_rows(posed))
        assert "inf" in want[0] and "inf" in want[1]
        assert _hex_rows(_column_rows(posed)) == want

    def test_one_degree_grid_rows_equal_float_rows(self):
        # The standard forms of every computed cell of the 1 deg sweep.
        stds = _one_degree_computed_cells()
        assert len(stds) == 720
        assert _hex_rows(TriangleKernel(*apexes(stds)).rows) == _hex_rows(_float_rows(stds))

    @settings(max_examples=4)
    @given(poses.triangles(n=33, **_KERNEL_POSES))
    def test_side_lengths_are_hypot_from_either_end(self, posed):
        # The sweep divides a relabeled row's costs by a side of its
        # computed triangle, taken between the row's B and C in either
        # direction: the kernel's length is math.hypot of the side's
        # coordinate differences from both ends, bit for bit.
        for stds in (_one_degree_computed_cells(), [t.standard()[0] for t in posed]):
            for t, lengths in zip(stds, TriangleKernel(*apexes(stds)).side_lengths().tolist()):
                for v, length in zip(VertexId, lengths):
                    p, q = (t.vertex(w) for w in opposite_edge(v).endpoints)
                    assert length.hex() == math.hypot(q.x - p.x, q.y - p.y).hex(), (t, v)
                    assert length.hex() == math.hypot(p.x - q.x, p.y - q.y).hex(), (t, v)

    @settings(max_examples=5)
    @given(poses.triangles(n=3, **_KERNEL_POSES))
    def test_float_rows_hold_plain_floats(self, posed):
        # One point's decisions are made on plain floats read from the row,
        # and the JSON writer formats only ``float`` exactly.
        stds = [s.standard()[0] for s in posed]
        for t in (*posed, *stds):
            assert {type(v) for v in triangle_row(*t.a, *t.b, *t.c)} == {float}
            assert {type(v) for v in line_through(*t.a, *t.b)} == {float}
        for t in stds:
            assert {type(v) for v in TriangleKernel(*t.a).rows[0]} == {float}

    def test_one_triangle_keeps_the_float_path(self, monkeypatch):
        calls = []

        def spy(*args, ops=FloatOps):
            calls.append(ops)
            return triangle_row(*args, ops=ops)

        monkeypatch.setattr(_kernels, "triangle_row", spy)
        p, q = triangle_from_angles(math.radians(50.0), math.radians(70.0)).a
        TriangleKernel(p, q), TriangleKernel([p], [q]), TriangleKernel(np.array([p]), np.array([q]))
        assert calls == [FloatOps, FloatOps, FloatOps]
        TriangleKernel([p, p], [q, q])
        assert calls[3:] == [_kernels._ColumnOps]

    def test_a_triangle_is_no_kernel_input(self):
        # The kernel takes the apex of a standard form and nothing else: its
        # rules read ``BOUNDARY_TOL`` in base lengths.
        with pytest.raises(TypeError):
            TriangleKernel(triangle_from_angles(math.radians(50.0), math.radians(70.0)))

    def test_column_line_through_equals_float_line_through(self):
        # Subnormal offsets round the length so coarsely that the normal
        # (a, b) is off unit length by more than 1e-12 (by sqrt(2) and by
        # about 1.4%), and those entries take the renormalisation branch;
        # the others do not.
        tiny = 5e-324
        pts = [(0.0, 0.0, tiny, tiny), (0.0, 0.0, 6 * tiny, tiny), (1.0, -2.0, 1.5, -2.0),
               (0.1, 0.2, 0.7, 0.9), (-3.0, 1e-300, 2.0, 5.0), (1e300, -1e300, -1e300, 1e300)]
        renormed = [abs(math.hypot(-(qy - py) / n, (qx - px) / n) - 1.0) > 1e-12
                    for px, py, qx, qy in pts for n in [math.hypot(qx - px, qy - py)]]
        assert renormed == [True, True, False, False, False, False]
        want = [list(map(float.hex, line_through(*p))) for p in pts]
        got = line_through(*np.array(pts).T, ops=_kernels._ColumnOps)
        assert [list(map(float.hex, r)) for r in np.array(got).T.tolist()] == want

    def test_column_line_through_rejects_any_zero_length(self):
        cols = np.array([(0.0, 0.0, 1.0, 1.0), (2.0, 3.0, 2.0, 3.0), (0.0, 0.0, 0.0, 1.0)]).T
        with pytest.raises(GeometryError, match="coincident"):
            line_through(*cols, ops=_kernels._ColumnOps)
        with pytest.raises(GeometryError, match="coincident"):
            line_through(2.0, 3.0, 2.0, 3.0)


def _package_imports(module: str) -> list[tuple[str, str]]:
    """(module, name) of every import from inside the package that
    ``module`` makes anywhere in it, the module named without the package."""
    tree = ast.parse((Path(trivisit.__file__).parent / module).read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("trivisit")):
            out += [((node.module or "").removeprefix("trivisit").lstrip("."), a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            out += [(a.name.removeprefix("trivisit").lstrip("."), "")
                    for a in node.names if a.name.startswith("trivisit")]
    return out


@pytest.mark.parametrize("module", ["_kernels.py", "oracle.py"])
def test_imports_only_geom_core_from_the_package(module):
    """The kernel and the brute-force oracle stay independent of the
    evaluators built on them: within the package they import geom_core only."""
    inside = {m for m, _ in _package_imports(module)}
    assert inside <= {"geom_core"}, inside


@pytest.mark.parametrize("module", ["regions.py", "tradeoffs.py"])
def test_reads_the_row_only_through_the_kernel(module):
    """The triangle row's layout is known to ``_kernels`` alone: the region
    chains and the ratio seeds reach it through the kernel's public methods,
    and every other geometric piece comes from geom_core."""
    imports = _package_imports(module)
    assert {m for m, _ in imports} <= {"geom_core", "_kernels"}, imports
    assert [n for m, n in imports if m == "_kernels" and n.startswith(("_", "ROW_"))] == []


def test_star_import_binds_public_names_only():
    names = {}
    exec("from trivisit import *", names)
    assert [n for n, v in names.items() if isinstance(v, types.ModuleType)] == []
    assert set(trivisit.__all__) <= set(names)
    assert not set(trivisit.__all__) & {"standard_form", "r2_vertex_heuristic", "oracle_r1", "ordered3_objective"}


def _array_hexes(a):
    return tuple(float(x).hex() for x in np.ravel(a))


# Points per batch of the batch checks: just above a raster block.
_BATCH = _LABEL_BLOCK + 1


def _family_hexes(k, pts, at=slice(None)):
    """``float.hex`` of every evaluator's results at ``pts``, with the R2
    partitions, at the points ``at`` of the last point axis."""
    def pick(a):
        return tuple(float(x).hex() for x in np.ravel(a[..., at]))
    return (
        pick(k.r1_all(pts)), pick(k.segs_all(pts)), pick(k.r3_all(pts)),
        tuple(pick(a) for a in k.r2_partitions(pts)),
    )


def _in_batch(std, p, size, at):
    """``size`` points of ``std``'s 128 lattice with the point ``p`` at
    index ``at``."""
    return np.insert(np.resize(barycentric_grid(std, 128), (size - 1, 2)), at, p, axis=0)


class TestFamilies:
    @settings(max_examples=5)
    @given(poses.instances(n=25))
    def test_point_in_a_batch_matches_the_point_alone(self, instances):
        """Each evaluator gives a point the bits it gives that point alone
        inside a batch of ``_BATCH`` points, on single and stacked kernels.
        At one point the nine-member segment pass gives the bits of
        ``r3_all`` and, reduced on plain floats as ``fleet_costs`` reduces
        them, of ``r2_partitions``; the point's two passes are those of
        ``segs_all`` and ``r1_all``."""
        sps = [StandardPoint(inst.t, inst.q) for inst in instances]
        for n, sp in enumerate(sps):
            k, pts = sp.kernel, np.array([sp.ps])
            one = _family_hexes(k, pts)
            segs = sp.segs
            assert (_hexes(sp.orders), _hexes(segs)) == one[:2]
            pairs = [min(segs[i], segs[j]) for i, j in _LONE_PAIRS]
            partitions = (segs[:3], pairs, [max(d, q) for d, q in zip(segs, pairs)])
            assert (_hexes(segs[:3]), _hexes(partitions)) == one[2:]
            at = n * _BATCH // len(sps)
            assert _family_hexes(k, _in_batch(sp.std, sp.ps, _BATCH, at), at) == one
        k = TriangleKernel(*apexes([sp.std for sp in sps]))
        pts = np.array([[sp.ps] for sp in sps])
        size = _BATCH // len(sps) + 1
        batch = np.array([_in_batch(sp.std, sp.ps, size, size // 2) for sp in sps])
        assert _family_hexes(k, batch, size // 2) == _family_hexes(k, pts)


class TestOnePointDecisions:
    """At one point every decision is made on the plain floats of the two
    passes (``StandardPoint``).  Each rule must give on those floats what it
    gives on the (count, 1) arrays of the evaluators, and ``fleet_costs``
    must report exactly what the arrays mark, with their costs bit for bit."""

    def test_plain_floats_match_arrays(self):
        ties = []

        def check(t, p):
            sp = StandardPoint(t, p)
            k, pts = sp.kernel, np.array([sp.ps])
            dists, (singles, pairs, costs), orders = k.r3_all(pts), k.r2_partitions(pts), k.r1_all(pts)
            far = k.farthest_edges(dists, dists.max(axis=0))[:, 0].tolist()
            sides = k.r2_sides(singles, pairs, costs, costs.min(axis=0))[:, 0].tolist()
            best = k.optimal_orders(orders, orders.min(axis=0))[:, 0].tolist()
            cases = _unfold_cases(*_unfold_coords(pts[..., 0], pts[..., 1], k._unfolds)[4:])

            d, s, q, c, o = (a[:, 0].tolist() for a in (dists, singles, pairs, costs, orders))
            assert [k.farthest_edges(x, max(d)) for x in d] == far
            assert [k.r2_sides(*x, min(c)) for x in zip(s, q, c)] == sides
            assert [k.optimal_orders(x, min(o)) for x in o] == best
            for i, order in enumerate(_ORDERS):
                assert k.order_cases(*sp.ps, order) == {kind: mask[i, 0].item() for kind, mask in cases.items()}

            rep = fleet_costs(t, p)
            assert rep.r3.edges == tuple(e for e, m in zip(_EDGES, far) if m)
            assert {(w.single_edge, w.determined_by) for w in rep.r2.witnesses} == {
                (e, _SIDES[x]) for e, x in zip(_EDGES, sides) if x
            }
            assert rep.r1.orders == tuple(order for order, m in zip(_ORDERS, best) if m)
            want = (dists.max(), costs.min(), orders.min())
            assert _hexes((rep.r3.cost, rep.r2.cost, rep.r1.cost)) == _hexes(tuple(sp.scale * float(x) for x in want))
            ties.append(sum(far) > 1 or sum(map(bool, sides)) > 1 or sum(best) > 1 or 3 in sides)

        @settings(max_examples=22)
        @given(poses.instances(n=20))
        def drawn(instances):
            for inst in instances:
                check(inst.t, inst.q)

        check(poses.EQ, incenter(poses.EQ))
        check(poses.RI, altitude_midpoint(poses.RI, VertexId.A))
        drawn()
        # the instances tie often enough that the rules' tol sides are read
        assert sum(ties) > 50, sum(ties)


def _unmasked_ordered3(pts, table):
    """The ordered three-edge body with every case cost taken at every
    point and then masked with ``np.where``: the reference that the masked
    body must match bit for bit."""
    cx, cy, ux, uy, ax, ay, sigma_z, alt = table
    x, y = pts[..., 0], pts[..., 1]
    rx, ry = x - cx, y - cy
    qx, qy = x - ax, y - ay
    s_b = rx * ux + ry * uy
    s_z = sigma_z * (qx * ux + qy * uy)
    tol = BOUNDARY_TOL
    past_subopt = s_z >= -tol
    cases = {
        StrategyKind.SUBOPT_VERTEX_ALTITUDE: s_z <= tol,
        StrategyKind.DEGENERATE_VERTEX_BOUNCE: past_subopt & (s_b <= tol),
        StrategyKind.BOUNCING: past_subopt & (s_b >= -tol),
    }
    cost = np.where(cases[StrategyKind.SUBOPT_VERTEX_ALTITUDE], np.hypot(qx, qy) + alt, np.inf)
    cost = np.minimum(cost, np.where(cases[StrategyKind.DEGENERATE_VERTEX_BOUNCE], np.hypot(rx, ry), np.inf))
    cost = np.minimum(cost, np.where(cases[StrategyKind.BOUNCING], np.abs(rx * -uy + ry * ux), np.inf))
    return cost, cases


def _case_line_points(k, inside):
    """The points ``inside``, then each of them moved onto every order's
    bounce line and subopt line (along that order's ``u``), 0.5 tol to
    either side of the line, where two cases are admissible at once, and 1.5
    tol to either side, where only one is."""
    inside = np.array(inside)
    out = [inside]
    for i in range(len(VisitOrder)):
        cx, cy, ux, uy, ax, ay, _, _ = k._unfolds[:, i, 0].tolist()
        u = np.array([ux, uy])
        for origin in ((cx, cy), (ax, ay)):
            on = inside - ((inside - origin) @ u)[:, None] * u
            out += [on + side * BOUNDARY_TOL * u for side in (-1.5, -0.5, 0.0, 0.5, 1.5)]
    return np.concatenate(out)


@st.composite
def _masked(draw):
    """The standard form of a posed triangle, its kernel and
    ``_case_line_points`` of 8 of its interior points, mapped to it."""
    inst = draw(poses.instances(kinds=("interior",), **_KERNEL_POSES))
    more = draw(poses.instances(inst.std, ("interior",), n=7))
    std, sim = inst.t.standard()
    k = TriangleKernel(*std.a)
    return std, k, _case_line_points(k, [sim.apply(q) for q in (inst.q, *(inst.pose(m.p) for m in more))])


def _probe(k, table):
    """``k`` evaluating its ordered three-edge visits from ``table``."""
    k._unfolds = table
    return k


class TestMaskedCases:
    """``r1_all`` takes each case's cost only where the case is admissible.
    It must give the bits of ``_unmasked_ordered3`` on a single kernel at one
    point and in a batch of ``_BATCH`` points, and on a stacked kernel, and at
    one point the plain-float cases of ``order_cases`` must be its masks.  A
    subopt tour (apex, then the altitude) is always feasible, so with the
    real altitudes a subopt cost leaking past its mask can never undercut
    the true minimum; the same checks also run with every
    altitude replaced by -1e3 and by 1e3 base lengths, which makes a leak of
    any case or a skipped admissible case change the minimum."""

    @staticmethod
    def _tables(k):
        probes = []
        for alt in (-1e3, 1e3):
            table = k._unfolds.copy()
            table[7] = alt
            probes.append(table)
        return [k._unfolds, *probes]

    @staticmethod
    def _check(k, pts, table):
        want, want_cases = _unmasked_ordered3(pts, table)
        assert _array_hexes(k.r1_all(pts)) == _array_hexes(want)
        if pts.shape == (1, 2):
            for i, order in enumerate(VisitOrder):
                cases = k.order_cases(*pts[0].tolist(), order)
                assert cases == {kind: bool(mask[i, 0]) for kind, mask in want_cases.items()}
                assert list(cases) == list(want_cases)

    @settings(max_examples=5)
    @given(_masked())
    def test_points_cover_every_case_and_overlap(self, instance):
        sub, deg, bounce = (StrategyKind.SUBOPT_VERTEX_ALTITUDE, StrategyKind.DEGENERATE_VERTEX_BOUNCE,
                            StrategyKind.BOUNCING)
        _, k, pts = instance
        _, cases = _unmasked_ordered3(pts, k._unfolds)
        for kind in cases.values():
            assert kind.any() and not kind.all()
        assert (cases[sub] & (cases[deg] | cases[bounce])).any()
        assert (cases[deg] & cases[bounce]).any()
        # where the subopt case alone is admissible, a leak of either
        # other case shows against a 1e3 altitude
        assert (cases[sub] & ~cases[deg] & ~cases[bounce]).any()

    @settings(max_examples=5)
    @given(_masked())
    def test_single_kernel_at_one_point(self, instance):
        t, k, pts = instance
        for table in self._tables(k):
            probe = _probe(TriangleKernel(*t.a), table)
            for p in pts:
                self._check(probe, p[None], table)

    @settings(max_examples=5)
    @given(_masked())
    def test_single_kernel_in_a_batch(self, instance):
        t, k, pts = instance
        many = np.resize(pts, (_BATCH, 2))
        for table in self._tables(k):
            self._check(_probe(TriangleKernel(*t.a), table), many, table)

    @settings(max_examples=2)
    @given(st.lists(_masked(), min_size=4, max_size=4, unique_by=lambda masked: repr(masked[0])))
    def test_stacked_kernel(self, instances):
        tris, _, pts = zip(*instances)
        pts = np.array(pts)
        k = TriangleKernel(*apexes(tris))
        for table in self._tables(k):
            for stack in (pts, pts[:, np.arange(_BATCH // len(pts) + 1) % pts.shape[1]]):
                self._check(_probe(TriangleKernel(*apexes(tris)), table), stack, table)


class TestOneIndicatorRule:
    """The R1 locus's case guards read a point's bounce and subopt
    coordinates from the kernel (``regions._indicators``).  Near every
    order's two lines, where the cases change, each reading must be the
    array code's coordinate (``_unfold_coords``) bit for bit, and the
    readings' signs against the slack must decide the cases that
    ``order_cases`` gives."""

    @settings(max_examples=5)
    @given(_masked())
    def test_locus_guards_read_the_kernel_coordinates(self, instance):
        sub, deg, bounce = (StrategyKind.SUBOPT_VERTEX_ALTITUDE, StrategyKind.DEGENERATE_VERTEX_BOUNCE,
                            StrategyKind.BOUNCING)
        _, k, pts = instance
        s_bs, s_zs = _unfold_coords(pts[..., 0], pts[..., 1], k._unfolds)[4:]
        near = {"bounce": 0, "subopt": 0}
        for i, order in enumerate(_ORDERS):
            guard_b, guard_z, _, _ = _indicators(k, order)
            for (x, y), s_b, s_z in zip(pts.tolist(), s_bs[i].tolist(), s_zs[i].tolist()):
                b, z = guard_b(Point2(x, y)), guard_z(Point2(x, y))
                assert _hexes((b, z)) == _hexes((s_b, s_z))
                past_subopt = not z < -BOUNDARY_TOL
                assert k.order_cases(x, y, order) == {
                    sub: not z > BOUNDARY_TOL,
                    deg: past_subopt and not b > BOUNDARY_TOL,
                    bounce: past_subopt and not b < -BOUNDARY_TOL,
                }
                near["bounce"] += abs(b) <= BOUNDARY_TOL
                near["subopt"] += abs(z) <= BOUNDARY_TOL
        # both lines' slack bands are read, at the 0 and 0.5 tol points
        assert min(near.values()) >= 8 * 3, near


def _clamp_params(k, x, y):
    """Each segment member's foot parameter at the point (x, y), before
    the clamp, with the operations of ``_seg_dist``."""
    out = []
    for at, to in _kernels._SEG_MEMBERS:
        p0x, p0y, dx, dy, dd = k.rows[0][at:to]
        out.append(((x - p0x) * dx + (y - p0y) * dy) / dd)
    return out


class TestPointPath:
    """At one point (x, y), ``segs_all`` and ``r1_all`` run each member's
    formula on the plain floats of the row.  Every cost must be the one the
    array path gives that point, bit for bit, and a plain float."""

    @staticmethod
    def _check(k, points):
        for x, y in points:
            arr = np.array([[x, y]])
            for family in (k.segs_all, k.r1_all):
                got = family((x, y))
                assert {type(c) for c in got} == {float}
                assert _hexes(got) == _array_hexes(family(arr)[:, 0]), (family.__name__, x, y)

    @settings(max_examples=8)
    @given(poses.instances(kinds=("vertex", "edge", "interior", "near-vertex"), n=6, **_KERNEL_POSES))
    def test_point_equals_array(self, instances):
        # Posed instances down to a 1e-6 deg apex, mapped to their standard
        # forms, with the standard forms' vertices and edge points and each
        # order's bounce and subopt lines through the drawn points.
        params = []
        for inst in instances:
            std, sim = inst.t.standard()
            k = TriangleKernel(*std.a)
            drawn = sim.apply(inst.q)
            edges = [u + f * (v - u) for u, v in ((std.a, std.b), (std.b, std.c), (std.c, std.a))
                     for f in (0.25, 0.5, 0.75)]
            points = [drawn, *std.vertices, *edges, *_case_line_points(k, [drawn]).tolist()]
            self._check(k, points)
            params += [t for x, y in points for t in _clamp_params(k, x, y)]
        # the clamp meets a parameter of exactly 0, -0.0 and 1: a vertex is
        # the start or the end of some member, and A starts L at t = -0.0
        hexes = {t.hex() for t in params}
        assert {(0.0).hex(), (-0.0).hex(), (1.0).hex()} <= hexes

    def test_thinnest_apex_and_negative_zero(self):
        # A 1e-6 deg apex at each vertex, and B given as (-0.0, -0.0), which
        # puts -0.0 into the clamp of every member that starts at B.
        for at in VertexId:
            std = poses.shape(poses.THIN, 0.5, at)
            k = TriangleKernel(*std.a)
            assert any(math.copysign(1.0, t) < 0 for t in _clamp_params(k, -0.0, -0.0) if t == 0.0)
            self._check(k, [(-0.0, -0.0), *std.vertices, incenter(std)])


@pytest.fixture
def body_calls(monkeypatch):
    """Counts of the calls of the two family evaluators that one point
    reads, and of the formulas they apply once per member at a point: the
    ordered three-edge body and the segment distance, which every edge and
    ordered-pair cost goes through."""
    calls = {"r1_all": 0, "segs_all": 0, "ordered3": 0, "seg_dist": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    for owner, attr, name in ((TriangleKernel, "r1_all", "r1_all"), (TriangleKernel, "segs_all", "segs_all"),
                              (_kernels, "_ordered3_cases", "ordered3"), (_kernels, "_seg_dist", "seg_dist")):
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
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
    """Each family a point reads is evaluated once, and its formula runs
    once per member: six orders, nine segment members."""

    @pytest.mark.parametrize("t, p, optimal", _TIED, ids=_TIED_IDS)
    def test_fleet_costs(self, body_calls, t, p, optimal):
        assert len(fleet_costs(t, p).r1.orders) == optimal
        assert body_calls == {"r1_all": 1, "segs_all": 1, "ordered3": 6, "seg_dist": 9}

    @pytest.mark.parametrize("t, p, optimal", _TIED, ids=_TIED_IDS)
    def test_visit_two_set(self, body_calls, t, p, optimal):
        for edges in ((EdgeId.L, EdgeId.D), (EdgeId.R, EdgeId.L)):
            visit_two_set(t, p, edges)
        assert body_calls == {"r1_all": 0, "segs_all": 2, "ordered3": 0, "seg_dist": 18}

    @pytest.mark.parametrize("t, p, optimal", _TIED, ids=_TIED_IDS)
    def test_visit_three_ordered(self, body_calls, t, p, optimal):
        visit_three_ordered(t, p, VisitOrder.DLR)
        assert body_calls == {"r1_all": 1, "segs_all": 0, "ordered3": 6, "seg_dist": 0}


@pytest.fixture
def tables_built(monkeypatch):
    """The tables that kernels build, by name, in the order built."""
    built, table = [], TriangleKernel._table
    names = {_kernels._ROW_SEGS: "segs", _kernels._ROW_UNFOLDS: "unfolds"}

    def counted(k, at, count, width):
        built.append(names[at])
        return table(k, at, count, width)

    monkeypatch.setattr(TriangleKernel, "_table", counted)
    return built


class TestLazyTables:
    """A kernel builds a NumPy table when an array evaluator first reads it,
    so the one-point paths build none."""

    def test_one_point_builds_no_table(self, tables_built):
        for t, p, _ in _TIED:
            fleet_costs(t, p)
            visit_three_ordered(t, p, VisitOrder.LRD)
            visit_two_set(t, p, (EdgeId.L, EdgeId.D))
            r1_lrd_rld_locus(t)
        assert tables_built == []

    @pytest.mark.parametrize("mode, tables", [("r1", ["unfolds"]), ("r2", ["segs"]), ("r3", ["segs"])])
    def test_raster_builds_each_table_once(self, tables_built, mode, tables):
        t = triangle_from_angles(math.radians(50.0), math.radians(70.0))
        raster_region_map(t, 512, mode)
        assert tables_built == tables
