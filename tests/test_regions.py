import functools
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poses
from trivisit import regions
from trivisit._kernels import BOUNDARY_TOL
from trivisit.fleet_costs import r1, r2, r3
from trivisit.geom_core import (
    GeometryError,
    Point2,
    Triangle,
    dist_point_segment,
    incenter,
    triangle_from_angles,
    VertexId,
    edge_segment,
)
from trivisit.regions import (
    ParabolaArcPiece,
    SegmentPiece,
    bisector_separator_point,
    r1_lrd_rld_locus,
    r2_separator,
    r3_regions,
    raster_region_map,
)
from trivisit.visitation import (
    EdgeId,
    StandardPoint,
    VisitOrder,
    visit_three_ordered,
)

from conftest import random_triangle
from poses import EQ, RI

THIN = triangle_from_angles(math.radians(85), math.radians(85))
OPPOSITE = {VertexId.A: EdgeId.D, VertexId.B: EdgeId.R, VertexId.C: EdgeId.L}


def tie_gap(t, p, label):
    """The cost gap at ``p`` between the two strategies that a chain piece
    with ``label`` separates, in the pose of ``t``."""
    sp = StandardPoint(t, p)
    if label.startswith("corner-"):
        opp = OPPOSITE[VertexId(label[-1])]
        return abs(sp.drop(opp).cost - sp.two_set(*(e for e in EdgeId if e is not opp)).cost)
    o1, o2 = (VisitOrder(o) for o in label.split("="))
    return abs(sp.three_ordered(o1).cost - sp.three_ordered(o2).cost)


def chain_pair_gap(t, chain):
    return max(tie_gap(t, p, label) for p, label in chain.sample(150))


class TestR3Regions:
    def test_incenter_triple_tie(self):
        regions = r3_regions(EQ)
        assert set(r3(EQ, regions.center).edges) == {EdgeId.L, EdgeId.D, EdgeId.R}

    def test_feet_live_on_edges(self, rng):
        for _ in range(50):
            t = random_triangle(rng)
            regions = r3_regions(t)
            from trivisit.geom_core import Segment

            assert dist_point_segment(regions.foot_a, Segment(t.b, t.c)) < 1e-12
            assert dist_point_segment(regions.foot_b, Segment(t.c, t.a)) < 1e-12
            assert dist_point_segment(regions.foot_c, Segment(t.a, t.b)) < 1e-12


class TestBisectorSeparatorPoint:
    def test_equilateral_hexagon_corner(self):
        f = bisector_separator_point(EQ, VertexId.B)
        assert f.dist(Point2(0.375, 0.21650635094610965)) < 1e-9

    def test_right_isosceles_apex_separator_is_incenter(self):
        f = bisector_separator_point(RI, VertexId.A)
        assert f.dist(incenter(RI)) < 1e-9

    def test_on_vertex_to_incenter_segment(self, rng):
        for _ in range(1000):
            t = random_triangle(rng)
            for v in VertexId:
                f = bisector_separator_point(t, v)
                a = t.vertex(v)
                i = incenter(t)
                d = i - a
                s = (f - a).dot(d) / d.dot(d)
                assert -1e-9 <= s <= 1.0 + 1e-6
                assert abs(d.cross(f - a)) < 1e-9


class TestR2Separator:
    def test_equilateral_degenerates_to_inner_triangle(self):
        chain = r2_separator(EQ)
        assert all(isinstance(p, SegmentPiece) for p in chain.pieces)
        feet = [Point2(0.5, 0.0), Point2(0.75, math.sqrt(3) / 4), Point2(0.25, math.sqrt(3) / 4)]
        # every chain point lies on the triangle through the bisector feet
        from trivisit.geom_core import Line

        sides = [Line.from_points(feet[i], feet[(i + 1) % 3]) for i in range(3)]
        for p, _ in chain.sample(60):
            assert min(abs(s.signed_dist(p)) for s in sides) < 1e-9

    def test_right_isosceles_has_apex_arc(self):
        chain = r2_separator(RI)
        arcs = [p for p in chain.pieces if isinstance(p, ParabolaArcPiece)]
        assert len(arcs) == 1
        arc = arcs[0]
        assert arc.label == "corner-A"
        # the arc passes through both adjacent bisector feet and its apex
        m = Point2(1 - 1 / math.sqrt(2), 1 - 1 / math.sqrt(2))
        l = Point2(1 / math.sqrt(2), 1 - 1 / math.sqrt(2))
        assert min(arc.start.dist(m), arc.end.dist(m)) < 1e-9
        assert min(arc.start.dist(l), arc.end.dist(l)) < 1e-9
        p, par = Point2(0.5, 0.25), arc.parabola
        assert abs(p.dist(par.focus) - abs(par.directrix.signed_dist(p))) < 1e-12

    def test_chain_is_closed(self, rng):
        for t in (EQ, RI, THIN):
            assert r2_separator(t).max_endpoint_gap() < 1e-9
        for _ in range(50):
            t = random_triangle(rng, min_angle=math.radians(5))
            assert r2_separator(t).max_endpoint_gap() < 1e-9

    def test_boundary_ties(self, rng):
        for t in (EQ, RI, THIN):
            assert chain_pair_gap(t, r2_separator(t)) < 1e-8
        for _ in range(12):
            t = random_triangle(rng, min_angle=math.radians(10))
            assert chain_pair_gap(t, r2_separator(t)) < 1e-8

    def test_outside_chain_cost_is_opposite_edge(self):
        # landmark from the construction: inside the corner pocket the
        # two-robot cost equals the plain distance to the far edge
        from trivisit.fleet_costs import r2

        p = Point2(0.15, 0.05)
        res = r2(RI, p)
        far = dist_point_segment(p, edge_segment(RI, EdgeId.R))
        assert res.cost == pytest.approx(far, abs=1e-12)


class TestR1Locus:
    def test_right_apex_gives_full_altitude(self):
        chain = r1_lrd_rld_locus(RI)
        assert len(chain.pieces) == 1
        piece = chain.pieces[0]
        assert piece.start.dist(RI.a) < 1e-12
        assert piece.end.dist(Point2(0.5, 0.0)) < 1e-12

    def test_equilateral_runs_down_the_bisector(self):
        chain = r1_lrd_rld_locus(EQ)
        for p, _ in chain.sample(40):
            assert abs(p.x - 0.5) < 1e-9

    def test_label_names_both_orders(self):
        assert r1_lrd_rld_locus(EQ).label == "LRD=RLD"
        assert r1_lrd_rld_locus(THIN).label in ("DLR=LDR", "LDR=DLR")

    def test_equilateral_reaches_base_midpoint(self):
        chain = r1_lrd_rld_locus(EQ)
        assert chain.pieces[-1].end.dist(Point2(0.5, 0.0)) < 1e-12
        assert chain.max_endpoint_gap() < 1e-9

    def test_arc_then_straight_tail(self):
        chain = r1_lrd_rld_locus(triangle_from_angles(math.radians(54), math.radians(62)))
        kinds = [type(p) for p in chain.pieces]
        assert kinds == [SegmentPiece, ParabolaArcPiece, SegmentPiece]
        assert abs(chain.pieces[-1].end.y) < 1e-12

    def test_random_loci_inside_and_tie(self, rng):
        for _ in range(20):
            t = random_triangle(rng, min_angle=math.radians(0.5))
            for apex in VertexId:
                chain = r1_lrd_rld_locus(t, apex)
                o1, o2 = (VisitOrder(s) for s in chain.label.split("="))
                for p, _ in chain.sample(30):
                    assert t.contains(p)
                    c1 = visit_three_ordered(t, p, o1).cost
                    c2 = visit_three_ordered(t, p, o2).cost
                    assert abs(c1 - c2) < 1e-8

    def test_costs_tie_along_locus(self, rng):
        for t in (EQ, RI, THIN):
            chain = r1_lrd_rld_locus(t)
            o1, o2 = (VisitOrder(s) for s in chain.label.split("="))
            for p, _ in chain.sample(120):
                c1 = visit_three_ordered(t, p, o1).cost
                c2 = visit_three_ordered(t, p, o2).cost
                assert abs(c1 - c2) < 1e-8
        for _ in range(10):
            t = random_triangle(rng, min_angle=math.radians(15))
            chain = r1_lrd_rld_locus(t)
            o1, o2 = (VisitOrder(s) for s in chain.label.split("="))
            for p, _ in chain.sample(60):
                c1 = visit_three_ordered(t, p, o1).cost
                c2 = visit_three_ordered(t, p, o2).cost
                assert abs(c1 - c2) < 1e-8


class TestRasterMap:
    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            raster_region_map(EQ, 8, "r1")

    def test_rejects_non_integer_grid(self):
        # a 20.5 lattice would put no lattice point on vertex A
        with pytest.raises(TypeError):
            raster_region_map(EQ, 20.5, "r1")

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            raster_region_map(EQ, 32, "r9")

    def test_r1_probe_label(self):
        rm = raster_region_map(EQ, 64, "r1")
        cell = min(rm.cells, key=lambda c: c.point.dist(Point2(0.45, 0.6)))
        assert cell.labels == ("LRD",)

    def test_mirror_symmetry_swaps_left_right(self):
        swap = str.maketrans("LR", "RL")
        for t in (EQ, RI, THIN):
            rm = raster_region_map(t, 48, "r1")
            cells = list(rm.cells)
            for cell in cells:
                mirrored = Point2(1.0 - cell.point.x, cell.point.y)
                twin = min(cells, key=lambda c: c.point.dist(mirrored))
                if twin.point.dist(mirrored) > 1e-9 * t.base_length:
                    continue
                expect = {lab.translate(swap) for lab in cell.labels}
                assert set(twin.labels) == expect, (cell, twin)

    def test_tie_cells_near_constructed_chains(self):
        # ties between the two altitude-last orders hug the constructed locus
        for t in (EQ, RI, THIN):
            rm = raster_region_map(t, 48, "r1")
            chain = r1_lrd_rld_locus(t)
            o1, o2 = chain.label.split("=")
            chain_pts = [p for p, _ in chain.sample(400)]
            pitch = rm.pitch
            for cell in rm.cells:
                if {o1, o2} <= set(cell.labels):
                    d = min(cell.point.dist(q) for q in chain_pts)
                    assert d <= 2.0 * pitch, (cell.point, d, pitch)

    def test_r2_tie_cells_near_separators(self):
        # Partition ties occur either on the mixed hexagon (one robot vs two
        # robots determine) or on the angle bisectors (two partitions swap);
        # every tie cell must hug one of those constructed curves.
        from trivisit.geom_core import Segment
        from trivisit.fleet_costs import largest_angle_vertex  # noqa: F401

        for t in (EQ, RI):
            rm = raster_region_map(t, 48, "r2")
            chain = r2_separator(t)
            chain_pts = [p for p, _ in chain.sample(600)]
            feet = {
                VertexId.A: r3_regions(t).foot_a,
                VertexId.B: r3_regions(t).foot_b,
                VertexId.C: r3_regions(t).foot_c,
            }
            bisectors = [Segment(t.vertex(v), feet[v]) for v in VertexId]
            edges = [Segment(t.a, t.b), Segment(t.b, t.c), Segment(t.c, t.a)]
            pitch = rm.pitch
            for cell in rm.cells:
                if not cell.tie:
                    continue
                if min(dist_point_segment(cell.point, e) for e in edges) < 1e-9:
                    # starting on an edge makes its visit free, collapsing two
                    # partitions identically; the boundary is not a separator
                    continue
                d = min(cell.point.dist(q) for q in chain_pts)
                d = min(d, min(dist_point_segment(cell.point, s) for s in bisectors))
                assert d <= 2.0 * pitch, (cell.point, cell.labels, d)

    def test_r3_tie_cells_near_bisectors(self):
        for t in (EQ, RI, THIN):
            rm = raster_region_map(t, 48, "r3")
            segs = r3_regions(t).separators
            pitch = rm.pitch
            for cell in rm.cells:
                if not cell.tie:
                    continue
                d = min(dist_point_segment(cell.point, s) for s in segs)
                assert d <= 2.0 * pitch, (cell.point, d)

    def test_csv_and_svg_emission(self, tmp_path):
        rm = raster_region_map(EQ, 32, "r1")
        csv_path = tmp_path / "map.csv"
        svg_path = tmp_path / "map.svg"
        rm.to_csv(csv_path)
        rm.to_svg(svg_path, [r2_separator(EQ)])
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "i,j,x,y,label"
        assert len(lines) == len(rm.cells) + 1
        svg = svg_path.read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg and "</svg>" in svg
        assert "<polygon" in svg  # triangle outline

    def test_every_label_has_a_colour(self, tmp_path):
        # Every label of every mode has a fixed colour, so a cell's colour
        # does not depend on the other labels of its map.  The r2 map of the
        # 30/60 triangle at n = 64 holds five single R/both cells.
        labels = {label for table in regions._LABEL_TABLES.values() for code in table for label in code}
        assert labels == set(regions._LABEL_COLORS)
        rm = raster_region_map(triangle_from_angles(math.radians(30), math.radians(60)), 64, "r2")
        assert sum(cell.labels == ("R/both",) for cell in rm.cells) == 5
        rm.to_svg(tmp_path / "m.svg")
        assert f'stroke="{regions._LABEL_COLORS["R/both"]}"' in (tmp_path / "m.svg").read_text()

    @pytest.mark.parametrize("mode", ["r1", "r2", "r3"])
    def test_lazy_cells_agree(self, mode):
        rm = raster_region_map(THIN, 40, mode)
        cells = rm.cells
        every = list(cells)
        assert len(cells) == len(every) == 40 * 41 // 2
        for k in (0, len(cells) // 2, len(cells) - 1):
            assert cells[k] == every[k]
        assert cells[-1] == every[-1]
        assert [(c.i, c.j) for c in every] == [(i, j) for i in range(40) for j in range(40 - i)]
        assert cells.tie.tolist() == [len(c.labels) > 1 for c in every]
        with pytest.raises(IndexError):
            cells[len(cells)]
        for k in (slice(0, 2), slice(0, 1), 1.0):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                cells[k]


RASTER_GOLDEN = json.loads((Path(__file__).parent / "data" / "raster_golden.json").read_text())["maps"]


@pytest.mark.parametrize(
    "golden", RASTER_GOLDEN, ids=[f"{g['shape']}-{g['mode']}-{g['n']}" for g in RASTER_GOLDEN]
)
def test_raster_matches_golden(golden, tmp_path):
    _assert_golden(golden, golden["n"], tmp_path)


def test_numpy_integer_grid_matches_golden(tmp_path):
    golden = next(g for g in RASTER_GOLDEN if g["n"] == 64)
    _assert_golden(golden, np.int64(64), tmp_path)


def _assert_golden(golden, n, tmp_path):
    b, c = golden["angles_deg"]
    rm = raster_region_map(triangle_from_angles(math.radians(b), math.radians(c)), n, golden["mode"])
    assert type(rm.n) is int
    rm.to_csv(tmp_path / "m.csv")
    rm.to_svg(tmp_path / "m.svg")
    assert len(rm.cells) == golden["cells"]
    assert int(rm.cells.tie.sum()) == golden["tie_cells"]
    assert hashlib.sha256((tmp_path / "m.csv").read_bytes()).hexdigest() == golden["csv_sha256"]
    assert hashlib.sha256((tmp_path / "m.svg").read_bytes()).hexdigest() == golden["svg_sha256"]


def _assert_g17(values):
    """Every ``_format_g17`` row is ``b"%.17g" % v`` padded with NULs."""
    values = np.asarray(values, dtype=np.float64)
    want = [(b"%.17g" % v).ljust(regions._G17_WIDTH, b"\0") for v in values.tolist()]
    got = [row.tobytes() for row in regions._format_g17(values)]
    bad = [(v, w, g) for v, w, g in zip(values.tolist(), want, got) if w != g]
    assert not bad, bad[:5]


def test_format_g17_random_bit_patterns():
    # every exponent, subnormals, NaN payloads, +-inf and +-0
    bits = np.random.default_rng(1717).integers(0, 2**64, size=262_144, dtype=np.uint64)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324])
    _assert_g17(np.concatenate((bits.view(np.float64), special)))


def test_format_g17_edges():
    lo, hi = regions._G17_FAST
    edges = [lo, hi, 1.0, 0.1, 0.3, 1 / 3, 9.9999999999999999e14, 99999999999999990.0]
    edges += [10.0**e for e in range(-6, 18)]
    edges = np.array(edges)
    edges = np.concatenate((edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)))
    ties = [562949953421312.125, 562949953421312.375, 562949953421312.625, 562949953421312.875]
    _assert_g17(np.concatenate((edges, -edges, ties)))
    rows = regions._format_g17(np.array(ties + [np.nextafter(1.0, 0.0)]))
    got = [row.tobytes().rstrip(b"\0") for row in rows]
    assert got == [b"562949953421312.12", b"562949953421312.38", b"562949953421312.62", b"562949953421312.88",
                   b"0.99999999999999989"]


@given(st.lists(st.floats() | st.floats(-2.0**50, 2.0**50), min_size=1, max_size=64))
def test_format_g17_matches_percent_format(values):
    _assert_g17(values)


_RUN_POOL = (0.0, -0.0, math.nan, 1.0, math.nextafter(1.0, 0.0), 2.0**50 + 2.0, 2.0**-13 / 3)


@example([0.0, -0.0, -0.0, 0.0, math.nan, math.nan])
@given(st.lists(st.sampled_from(_RUN_POOL), min_size=1, max_size=64))
def test_format_runs_matches_format_g17(values):
    # "0" next to "-0" shows that 0.0 and -0.0 stay two runs.  Both columns
    # of an (N, 2) array, as ``to_csv`` passes them.
    xy = np.array([values, values[::-1]]).T
    for v in (xy[:, 0], xy[:, 1]):
        np.testing.assert_array_equal(regions._format_runs(v), regions._format_g17(v))


def _percent_to_csv(rm, path):
    """The one-pass ``%`` writer: the reference ``RegionMap.to_csv`` must
    match byte for byte."""
    c = rm.cells
    labels = np.array(["+".join(lab) for lab in c.table], dtype=object)
    rows = np.empty((len(c), 5), dtype=object)
    rows[:, 0] = c.i
    rows[:, 1] = c.j
    rows[:, 2:4] = c.xy
    rows[:, 4] = labels[c.codes]
    with open(path, "w", newline="") as fh:
        fh.write("i,j,x,y,label\r\n")
        fh.write(("%d,%d,%.17g,%.17g,%s\r\n" * len(c)) % tuple(rows.ravel().tolist()))


class TestPosedMaps:
    """A map's label codes are the standard form's, cell by cell, under
    every rotation and translation, at scales 10^±3·2^±1000."""

    @settings(max_examples=8)
    @given(poses.instances({"least": 0.5}, ("incenter",), n=3))
    def test_label_codes_match_standard_form(self, instances):
        for inst, mode in itertools.product(instances, ("r1", "r2", "r3")):
            want = raster_region_map(inst.std, 32, mode).cells.codes
            np.testing.assert_array_equal(raster_region_map(inst.t, 32, mode).cells.codes, want, err_msg=mode)

    def test_side_of_1e_12_matches_standard_form(self):
        # A right isosceles triangle with a base of 1e-12: its maps and
        # chains are its standard form's, mapped to it bit for bit.
        t = Triangle((0.5e-12, 0.5e-12), (0.0, 0.0), (1e-12, 0.0))
        std, sim = t.standard()
        pose = sim.inverse()
        for mode in ("r1", "r2", "r3"):
            got, want = raster_region_map(t, 32, mode).cells, raster_region_map(std, 32, mode).cells
            np.testing.assert_array_equal(got.codes, want.codes, err_msg=mode)
            assert [c.point for c in got] == [pose.apply(c.point) for c in want], mode
        for build in (r2_separator, *(functools.partial(r1_lrd_rld_locus, apex=v) for v in (None, *VertexId))):
            got, want = build(t), build(std)
            assert [(type(p), p.label) for p in got.pieces] == [(type(p), p.label) for p in want.pieces]
            assert got.sample(40) == [(pose.apply(p), label) for p, label in want.sample(40)]


# Sampled chain points of a posed triangle lie within this many ulps of M,
# its largest coordinate, per sin^2 of its least angle, of the standard
# form's points mapped by the pose: rounding the pose moves the standard
# form's vertices by a few ulps of M in base lengths, and a chain's points
# move by up to about 1/sin^2 of the least angle times that.  Over 1,500
# sampled posed triangles, 5 chains each (angles of at least 0.5 deg, scale
# 10^±3·2^±1000, up to 50 base lengths off the origin), the largest was 3.35.
_CHAIN_ULPS = 16


class TestPosedChains:
    """The separator chains of a posed triangle are its standard form's,
    mapped once: the same piece types and labels, and sampled points within
    ``_CHAIN_ULPS``.  In the pose, the two-robot separator and the locus at
    the largest angle tie within BOUNDARY_TOL base lengths; the locus at a
    vertex other than a right triangle's right angle does not tie even in
    standard form.  The translation stays within 50 base lengths: further
    off, rounding moves a right angle of the standard form by more than the
    1e-12 that ``r1_lrd_rld_locus`` takes for exact, and so can change its
    pieces."""

    @settings(max_examples=8)
    @given(poses.instances({"least": 0.5}, ("incenter",), shift=50.0, n=3))
    def test_chains_match_standard_form(self, instances):
        for inst in instances:
            m = max(abs(x) for v in inst.t.vertices for x in v)
            bound = _CHAIN_ULPS * math.ulp(m) / min(math.sin(inst.std.angle(v)) for v in VertexId) ** 2
            for apex in ("r2", None, *VertexId):
                build = r2_separator if apex == "r2" else functools.partial(r1_lrd_rld_locus, apex=apex)
                got, want = build(inst.t), build(inst.std)
                assert [(type(p), p.label) for p in got.pieces] == [(type(p), p.label) for p in want.pieces]
                sample = got.sample(40)
                gaps = [p.dist(inst.pose(q)) for (p, _), (q, _) in zip(sample, want.sample(40))]
                assert max(gaps) <= bound, (apex, max(gaps) / bound)
                if apex in ("r2", None):
                    assert max(tie_gap(inst.t, p, label) for p, label in sample) <= BOUNDARY_TOL * inst.pose.scale


# A base parallel to the y axis: the pose maps each lattice row to a run of
# mostly bit-equal x values.
VERTICAL = Triangle((3.0, 1.0), (-2.5, -1.0), (-2.5, 5.0))


def _posed(scale, dx, dy):
    t = triangle_from_angles(math.radians(70), math.radians(55))
    return Triangle(*(Point2(v.x * scale + dx, v.y * scale + dy) for v in t.vertices))


@pytest.mark.parametrize(
    "t, mode",
    [
        (_posed(1e-6, 0.0, 0.0), "r1"),       # every coordinate below 2^-13: all take %.17g
        (_posed(1.0, -3.0, -2.0), "r2"),      # negative quadrant
        (_posed(1.0, 1e9, 1e9), "r3"),        # 10 significant digits before the point
        (VERTICAL, "r1"),                     # x repeats along lattice rows
    ],
    ids=["tiny", "negative", "far", "vertical"],
)
def test_to_csv_matches_percent_writer(t, mode, tmp_path):
    rm = raster_region_map(t, 40, mode)
    rm.to_csv(tmp_path / "m.csv")
    _percent_to_csv(rm, tmp_path / "ref.csv")
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_to_csv_chunks_fall_mid_map(tmp_path, monkeypatch):
    monkeypatch.setattr(regions, "_CSV_CHUNK", 7)
    rm = raster_region_map(THIN, 16, "r1")
    assert len(rm.cells) % 7
    rm.to_csv(tmp_path / "m.csv")
    _percent_to_csv(rm, tmp_path / "ref.csv")
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("mode", ["r1", "r2", "r3"])
def test_label_blocks_fall_mid_map(monkeypatch, mode):
    # 2,080 cells: the whole map in one block, then in 7-point blocks, the
    # last one partial
    t = triangle_from_angles(math.radians(45), math.radians(45))
    monkeypatch.setattr(regions, "_LABEL_BLOCK", 2080)
    whole = raster_region_map(t, 64, mode).cells.codes
    monkeypatch.setattr(regions, "_LABEL_BLOCK", 7)
    assert len(whole) % 7
    np.testing.assert_array_equal(raster_region_map(t, 64, mode).cells.codes, whole)


CHAINS_GOLDEN_PATH = Path(__file__).parent / "data" / "chains_golden.json"
CHAIN_ANGLES = ((60, 60), (45, 45), (85, 85), (50, 70), (70, 55), (45, 90), (80, 50), (30, 80), (89, 46), (61, 62),
                (1, 89.5))


def chain_record(build):
    """Type, label and ``float.hex`` of ``point_at(s/8)``, s = 0..8, of every
    piece of the chain ``build()`` returns, or the class name of the
    ``GeometryError`` it raises."""
    try:
        chain = build()
    except GeometryError as exc:
        return type(exc).__name__
    return [
        [type(piece).__name__, piece.label, [[p.x.hex(), p.y.hex()] for p in (piece.point_at(s / 8) for s in range(9))]]
        for piece in chain.pieces
    ]


def chains_record(b_deg, c_deg):
    t = triangle_from_angles(math.radians(b_deg), math.radians(c_deg))
    return {
        "angles_deg": [b_deg, c_deg],
        "r2_separator": chain_record(lambda: r2_separator(t)),
        "r1_lrd_rld_locus": {
            "largest" if apex is None else apex.value: chain_record(lambda: r1_lrd_rld_locus(t, apex))
            for apex in (None, *VertexId)
        },
    }


@pytest.mark.parametrize("angles", CHAIN_ANGLES, ids=[f"{b}-{c}" for b, c in CHAIN_ANGLES])
def test_chains_match_golden(angles):
    # Pins the separator chains' geometry bit for bit; re-record with
    # ``python tests/test_regions.py`` only for a change meant to move them.
    golden = {tuple(g["angles_deg"]): g for g in json.loads(CHAINS_GOLDEN_PATH.read_text())["triangles"]}
    assert chains_record(*angles) == golden[angles]


_SIDE_SUFFIX = {"single": "/one", "pair": "/two", "tie": "/both"}


def scalar_labels(t, p, mode):
    if mode == "r1":
        return {o.value for o in r1(t, p).orders}
    if mode == "r2":
        return {w.single_edge.value + _SIDE_SUFFIX[w.determined_by] for w in r2(t, p).witnesses}
    return {e.value for e in r3(t, p).edges}


@pytest.mark.parametrize("mode", ["r1", "r2", "r3"])
@pytest.mark.parametrize("angles", [(60, 60), (45, 45), (85, 85), (50, 70)], ids=["EQ", "RI", "THIN", "SC"])
def test_raster_labels_match_scalar(angles, mode):
    # Every cell of a raster carries exactly the orders, partitions or edges
    # that the scalar evaluator reports at its point; the symmetric shapes'
    # maps have tie cells on their axes.
    t = triangle_from_angles(*(math.radians(a) for a in angles))
    rmap = raster_region_map(t, 24, mode)
    for cell in rmap.cells:
        assert set(cell.labels) == scalar_labels(t, cell.point, mode), (cell.i, cell.j)


if __name__ == "__main__":
    record = {"triangles": [chains_record(b, c) for b, c in CHAIN_ANGLES]}
    CHAINS_GOLDEN_PATH.write_text(json.dumps(record, indent=1) + "\n")
