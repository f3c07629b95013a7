import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import poses
from trivisit import tradeoffs, verify
from trivisit._kernels import TriangleKernel, barycentric_grid
from trivisit.geom_core import (
    Point2,
    VertexId,
    altitude_midpoint,
    incenter,
    triangle_from_angles,
    vertex_from_angles,
)
from trivisit.tradeoffs import (
    SweepRow,
    certify_max_ratio,
    describe_shape,
    max_ratio,
    ratio_at,
    sweep_triangles,
)

from conftest import apexes, random_triangle
from poses import EQ, RI

SQRT2 = math.sqrt(2.0)

# Fine steps that divide 180, each with the cells that the index rule adds
# to the grid of the float rule eps < 180 - B - C <= 90.
_FINE_STEPS = {0.09: 235, 0.1: 25, 0.12: 178, 0.15: 152, 0.2: 12, 0.3: 76, 1 / 3: 109, 0.6: 39, 0.9: 6}


def _grid_cells(step):
    """The sweep's cells at ``step``, as (i, j) angle indices in row order."""
    grid = tradeoffs._sweep_cells(step, 0.5)
    return list(zip(grid.i.tolist(), grid.j.tolist()))


def _grid_angles(step):
    """The sweep's cells at ``step``, as their (B, C) angles in degrees."""
    return [(i * step, j * step) for i, j in _grid_cells(step)]


class TestRatioAt:
    def test_known_values(self):
        assert ratio_at(EQ, incenter(EQ), 1, 3) == pytest.approx(4.0, abs=1e-9)
        assert ratio_at(EQ, incenter(EQ), 2, 3) == pytest.approx(2.0, abs=1e-9)
        assert ratio_at(RI, Point2(0.5, 0.25), 1, 2) == pytest.approx(3.0, abs=1e-9)

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError):
            ratio_at(EQ, incenter(EQ), 3, 1)
        with pytest.raises(ValueError):
            ratio_at(EQ, incenter(EQ), 2, 2)

    def test_vertex_is_finite(self):
        # all three edge distances cannot vanish at once
        assert ratio_at(EQ, EQ.a, 1, 3) < 10


class TestMaxRatio:
    def test_equilateral_one_vs_two(self):
        rep = max_ratio(EQ, 1, 2)
        assert rep.ratio == pytest.approx(2.5, abs=1e-6)
        mid = Point2(0.5, math.sqrt(3) / 4)
        assert rep.argmax.dist(mid) < 1e-4

    def test_right_isosceles_two_vs_three(self):
        rep = max_ratio(RI, 2, 3)
        assert rep.ratio == pytest.approx(SQRT2, abs=1e-6)
        assert rep.argmax.dist(incenter(RI)) < 1e-4

    def test_equilateral_one_vs_three(self):
        rep = max_ratio(EQ, 1, 3)
        assert rep.ratio == pytest.approx(4.0, abs=1e-6)
        assert rep.argmax.dist(incenter(EQ)) < 1e-4

    def test_ratio_consistent_with_costs(self):
        rep = max_ratio(EQ, 1, 3)
        assert rep.ratio == pytest.approx(rep.rn / rep.rm, abs=1e-12)

    @settings(max_examples=10)
    @given(poses.instances({"least": 1.0}, mirror=None))
    def test_similarity_invariance(self, inst):
        r1v = max_ratio(inst.std, 1, 3).ratio
        r2v = max_ratio(inst.t, 1, 3).ratio
        assert r1v == pytest.approx(r2v, abs=1e-9)

    def test_value_not_below_samples(self, rng):
        # no lattice point, vertices included, beats the reported maximum
        # materially
        for _ in range(10):
            t = random_triangle(rng)
            rep = max_ratio(t, 1, 2)
            std, _ = t.standard()
            v1, v2 = TriangleKernel(*std.a).costs(barycentric_grid(std, 48), 1, 2)
            assert rep.ratio >= float((v1 / v2).max()) - 1e-9


@pytest.mark.parametrize("step", [5.0, 1.0])
def test_seeds_equal_incenter_and_altitude_midpoints(step):
    """The kernel's seeds are the geom_core points, bit for bit, on every
    cell of the grid."""
    cells = _grid_angles(step)
    for lo in range(0, len(cells), 256):
        stds = [triangle_from_angles(math.radians(b), math.radians(c)) for b, c in cells[lo:lo + 256]]
        seeds = TriangleKernel(*apexes(stds)).seeds()
        for s, got in zip(stds, seeds.tolist()):
            want = [incenter(s), *(altitude_midpoint(s, v) for v in VertexId)]
            assert [[v.hex() for v in xy] for xy in got] == [[v.hex() for v in xy] for xy in want]


class TestDescribeShape:
    def test_shapes(self):
        assert describe_shape((60, 60, 60)) == "equilateral"
        assert describe_shape((90, 45, 45)) == "right isosceles"
        assert describe_shape((10, 85, 85)) == "thin isosceles"
        assert describe_shape((90, 60, 30)) == "right"
        assert describe_shape((80, 50, 50)) == "isosceles"
        assert describe_shape((75, 65, 40)) == "scalene"


class TestSweep:
    def test_coarse_sweep_summary(self):
        sw = sweep_triangles(2, 3, step_deg=15.0)
        summary = sw.summary()
        assert summary["sup"]["shape"] == "equilateral"
        assert summary["sup"]["value"] == pytest.approx(2.0, abs=1e-6)
        assert summary["inf"]["value"] >= SQRT2 - 1e-9
        assert summary["inf"]["attained"] is False

    def test_canonical_extreme_prefers_symmetric_witness(self):
        # every right triangle attains the (1,2) supremum of 3; the reported
        # cell must still be the right isosceles
        sw = sweep_triangles(1, 2, step_deg=5.0)
        assert sw.summary()["sup"]["shape"] == "right isosceles"
        assert sw.summary()["sup"]["value"] == pytest.approx(3.0, abs=1e-6)

    def test_rows_cover_grid(self):
        sw = sweep_triangles(1, 3, step_deg=10.0)
        for row in sw.rows:
            a = 180.0 - row.b_deg - row.c_deg
            assert 0.5 < row.b_deg <= 90.0
            assert 0.5 < row.c_deg <= 90.0
            assert 0.5 < a <= 90.0
        assert any(r.b_deg == 60.0 and r.c_deg == 60.0 for r in sw.rows)

    def test_independent_of_chunk_size(self, monkeypatch):
        # A chunk of one cell builds its row on plain floats, a chunk of two
        # or more in one array pass; the 5 deg grid computes 36 cells, so a
        # chunk of 33 leaves a tail of 3.
        def rows(step):
            return [
                (r.b_deg, r.c_deg, *(float.hex(v) for v in (r.ratio, r.rn, r.rm, *r.argmax)))
                for r in sweep_triangles(1, 2, step_deg=step).rows
            ]

        default = {step: rows(step) for step in (10.0, 5.0)}
        for step, chunks in ((10.0, (1, 7)), (5.0, (1, 2, 33))):
            for chunk in chunks:
                monkeypatch.setattr(tradeoffs, "_CHUNK", chunk)
                assert rows(step) == default[step], (step, chunk)

    def test_one_kernel_per_sweep(self, monkeypatch):
        # Every computed cell of a 5 or 1 deg sweep is in one chunk.
        built = []

        def spy(p, q):
            built.append(len(p))
            return TriangleKernel(p, q)

        monkeypatch.setattr(tradeoffs, "TriangleKernel", spy)
        for step in (5.0, 1.0):
            sweep_triangles(1, 3, step_deg=step)
        assert built == [36, 720]

    @pytest.mark.parametrize("step, eps_apex", [
        (0.0, 0.5), (-1.0, 0.5), (100.0, 0.5), (1.0, 95.0), (math.inf, 0.5), (math.nan, 0.5),
    ])
    def test_empty_or_bad_grid_rejected(self, step, eps_apex):
        with pytest.raises(ValueError):
            sweep_triangles(1, 3, step_deg=step, eps_apex_deg=eps_apex)

    @pytest.mark.parametrize("step", [1e-300, 5e-324, 0.0899])
    def test_tiny_step_rejected_before_its_grid(self, monkeypatch, step):
        # Building the angle list first took floor(90 / step) loop steps:
        # 1e-300 never returned.
        def no_grid(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(tradeoffs, "_sweep_cells", no_grid)
        with pytest.raises(ValueError, match="more than 1000 angles per axis"):
            sweep_triangles(1, 3, step_deg=step)

    @pytest.mark.parametrize("step, count, digest", [
        (0.1, 406288, "58b8f1cdea6fead4e76d91273043ae929f6daff56187b588ac4318ff1c9dc35a"),
        (1.0, 4183, "3fdac4e6b803863872a143225dea82feb6d5de6baea4df55a6c03eef30080a64"),
        (5.0, 187, "109392c9aeae5c38e297e3bd40b4e0dd9885d324731c2e0f296ea234395f9c4d"),
        (7.0, 78, "2300188fc77c791e33a543552a49e628c23613ca451d8785896ea3647f299149"),
    ])
    def test_grid_kept_within_the_angle_bound(self, monkeypatch, step, count, digest):
        # The cells, by the sha256 of the repr of their angles, are those
        # from before the bound (at 0.1 deg with the 25 cells that
        # test_lattice_adds_only_right_angles_at_a pins), and the sweep gets
        # past the bound to its grid.
        cells = _grid_angles(step)
        assert (len(cells), hashlib.sha256(repr(cells).encode()).hexdigest()) == (count, digest)
        empty = tradeoffs._sweep_cells(step, 90.0)
        assert len(empty.i) == 0
        monkeypatch.setattr(tradeoffs, "_sweep_cells", lambda *args: empty)
        with pytest.raises(ValueError, match="has no cell"):
            sweep_triangles(1, 3, step_deg=step)

    def test_max_ratio_reproduces_sweep_row(self):
        # (60, 50) has its apex at the largest angle and B >= C, so the sweep
        # computes it rather than filling it from another cell.
        row = next(r for r in sweep_triangles(2, 3, step_deg=10.0).rows if (r.b_deg, r.c_deg) == (60.0, 50.0))
        t = triangle_from_angles(math.radians(60.0), math.radians(50.0))
        rep = max_ratio(t, 2, 3)
        assert (rep.ratio, rep.rn, rep.rm, rep.argmax) == (row.ratio, row.rn, row.rm, row.argmax)

    def test_mirror_row_is_computed_row_reflected(self):
        rows = {(r.b_deg, r.c_deg): r for r in sweep_triangles(2, 3, step_deg=10.0).rows}
        row, mirror = rows[60.0, 50.0], rows[50.0, 60.0]
        assert (mirror.ratio, mirror.rn, mirror.rm) == (row.ratio, row.rn, row.rm)
        assert mirror.argmax == Point2(1.0 - row.argmax.x, row.argmax.y)

    @staticmethod
    def _built_cells(monkeypatch, n, m, step):
        """(rows by cell, the (B, C) cells whose apexes the sweep built)."""
        built = []

        def spy(ang_b, ang_c):
            built.append((ang_b, ang_c))
            return vertex_from_angles(ang_b, ang_c)

        monkeypatch.setattr(tradeoffs, "vertex_from_angles", spy)
        rows = {(r.b_deg, r.c_deg): r for r in sweep_triangles(n, m, step_deg=step).rows}
        by_radians = {(math.radians(b), math.radians(c)): (b, c) for b, c in rows}
        return rows, sorted(by_radians[cell] for cell in built)

    @pytest.mark.parametrize("step", [5.0, 10.0])
    @pytest.mark.parametrize("n, m", tradeoffs._PAIRS)
    def test_every_mirror_row_is_filled_from_its_computed_row(self, n, m, step, monkeypatch):
        rows, built = self._built_cells(monkeypatch, n, m, step)
        # Exactly the cells with A >= B >= C are built, one per triangle on
        # the grid; every other row is filled.
        assert built == sorted((b, c) for b, c in rows if 180.0 - b - c >= b >= c)
        for (b, c), mirror in rows.items():
            if b < c:
                row = rows[c, b]
                assert (mirror.ratio, mirror.rn, mirror.rm) == (row.ratio, row.rn, row.rm), (b, c)
                assert mirror.argmax == Point2(1.0 - row.argmax.x, row.argmax.y), (b, c)

    def test_off_grid_relabelings_are_computed(self, monkeypatch):
        # 180 is not a multiple of 7, so no cell's relabeling with another
        # apex is on the grid, and every cell with B >= C is computed.
        rows, built = self._built_cells(monkeypatch, 1, 3, 7.0)
        assert built == sorted((b, c) for b, c in rows if b >= c)

    @pytest.mark.parametrize("step", [0.3, 1 / 3, 0.6, 0.9])
    def test_fine_sweep_rows_equal_their_mirrors(self, step):
        # Float rounding of 180 - B - C once kept one of a mirror pair alone
        # at these steps: cells with B < C at 0.3, 1/3 and 0.6 deg, and with
        # B > C at 0.9 deg.  Every row now has its mirror's row.
        cells = _grid_angles(step)
        rows = {(r.b_deg, r.c_deg): r for r in sweep_triangles(1, 3, step_deg=step).rows}
        assert list(rows) == cells
        for (b, c), row in rows.items():
            assert row.ratio == row.rn / row.rm, (b, c)
            assert (c, b) in rows, (b, c)
            if b < c:
                mirror = rows[c, b]
                assert (row.ratio, row.rn, row.rm) == (mirror.ratio, mirror.rn, mirror.rm), (b, c)
                assert row.argmax == Point2(1.0 - mirror.argmax.x, mirror.argmax.y), (b, c)

    @pytest.mark.parametrize("step", [*_FINE_STEPS, 7.0])
    def test_every_cell_maps_to_a_computed_cell(self, step):
        # The index columns alone, with no cost evaluated.  Every cell's
        # mirror is on the grid, and a cell with B < C reads its mirror's
        # triangle with its mirror's vertices.  When 180 is a whole number
        # of steps, a cell with B >= C reads its triangle with the angle
        # indices sorted, which reads itself, its vertices in that order (A,
        # B, C on ties); 180 is not a multiple of 7, and every cell with
        # B >= C reads itself.  The cells, in order, are the scalar rule's.
        # Each rule is checked on every cell at once, as arrays: the sort is
        # stable and descending, as sorted(..., reverse=True) is.
        i, j, computed, source, vertex = tradeoffs._sweep_cells(step, 0.5)
        assert list(zip(i.tolist(), j.tolist())) == list(_reference_cells(step, 0.5))
        top = int(max(i.max(), j.max()))
        at = np.full((top + 1, top + 1), -1)
        at[i, j] = np.arange(len(i))
        mirror = at[j, i]
        whole = round(180 / step)
        assert (whole * step == 180.0) == (step != 7.0)
        assert source[computed].tolist() == list(range(len(computed)))
        assert _failing_cell(mirror >= 0, i, j) is None
        lt = i < j
        same = (source == source[mirror]) & (vertex == vertex[mirror]).all(axis=1)
        assert _failing_cell(same | ~lt, i, j) is None
        steps = np.stack((whole - i - j, i, j), axis=1)
        if step == 7.0:
            order, want = np.broadcast_to([0, 1, 2], steps.shape), steps[:, 1:]
        else:
            order = np.argsort(-steps, axis=1, kind="stable")
            want = np.take_along_axis(steps, order[:, 1:], axis=1)
        reads = computed[source]
        ok = (i[reads] == want[:, 0]) & (j[reads] == want[:, 1]) & (vertex == np.argsort(order, axis=1)).all(axis=1)
        assert _failing_cell(ok | lt, i, j) is None

    @pytest.mark.parametrize("step, added", _FINE_STEPS.items())
    def test_lattice_adds_only_right_angles_at_a(self, step, added):
        # The grid holds every cell of the float rule, in the same order, and
        # ``added`` more, each with A = 90 deg, which rounding of 180 - B - C
        # put above 90.
        # The float rule runs on the same float products and differences as
        # a scalar loop over (B, C), in row order, as one array pass.
        ks = np.arange(1, math.floor(90 / step) + 1)
        angles = ks * step
        inside = (0.5 < angles) & (angles <= 90.0)
        a = 180.0 - angles[:, None] - angles[None, :]
        old_i, old_j = np.nonzero(inside[:, None] & inside[None, :] & (0.5 < a) & (a <= 90.0))
        grid = tradeoffs._sweep_cells(step, 0.5)
        assert grid.i.min() >= 1 and grid.j.min() >= 1 and max(grid.i.max(), grid.j.max()) <= len(ks)
        kept = np.zeros((len(ks) + 1, len(ks) + 1), dtype=bool)
        kept[ks[old_i], ks[old_j]] = True
        kept = kept[grid.i, grid.j]
        assert grid.i[kept].tolist() == ks[old_i].tolist() and grid.j[kept].tolist() == ks[old_j].tolist()
        assert len(grid.i) - len(old_i) == added
        whole = round(180 / step)
        assert _failing_cell(kept | (2 * (whole - grid.i - grid.j) == whole), grid.i, grid.j) is None

    def test_mirrors_are_never_computed(self, monkeypatch):
        # The sweep builds exactly the triangles of the cells that read
        # themselves, none of them with B < C.  At 0.6 deg float rounding
        # once kept 6 cells with B < C whose mirror was off the grid.
        rows, built = self._built_cells(monkeypatch, 1, 3, 0.6)
        computed = tradeoffs._sweep_cells(0.6, 0.5).computed.tolist()
        angles = _grid_angles(0.6)
        assert built == sorted(angles[r] for r in computed)
        assert all(b >= c for b, c in built)

    @pytest.mark.parametrize("step", [10.0, 7.0, 5.0, 4.0])
    @pytest.mark.parametrize("n, m", tradeoffs._PAIRS)
    def test_ratio_is_rn_over_rm(self, n, m, step):
        # Computed, relabeled and mirrored rows alike.
        assert all(r.ratio == r.rn / r.rm for r in sweep_triangles(n, m, step_deg=step).rows)

    @pytest.mark.parametrize("step", [5.0, 4.0])
    @pytest.mark.parametrize("n, m", tradeoffs._PAIRS)
    def test_every_row_matches_its_own_max_ratio(self, n, m, step):
        # A computed cell (A >= B >= C) is max_ratio's triangle, so its row is
        # max_ratio's result bit for bit, argmax included.  A filled row is
        # its computed row relabeled: 1e-14 is about twice the largest move
        # from the direct value measured over the 5 and 1 deg sweeps (4.8e-15
        # relative in rn and rm, 2.9e-15 in the argmax).  On plateaus
        # (isosceles cells with tied seeds) the argmax may land on another
        # maximizer, as in test_sweep_matches_golden.
        for row in sweep_triangles(n, m, step_deg=step).rows:
            cell = (row.b_deg, row.c_deg)
            t = triangle_from_angles(math.radians(row.b_deg), math.radians(row.c_deg))
            rep = max_ratio(t, n, m)
            if 180.0 - row.b_deg - row.c_deg >= row.b_deg >= row.c_deg:
                assert _bits(rep) == _bits(row), cell
                continue
            for got, want in ((row.ratio, rep.ratio), (row.rn, rep.rn), (row.rm, rep.rm)):
                assert abs(got - want) <= 1e-14 * want, cell
            if row.argmax.dist(rep.argmax) > 1e-14:
                assert abs(ratio_at(t, row.argmax, n, m) - rep.ratio) <= 1e-12, cell


def _reference_cells(step, eps_apex):
    """The sweep's grid by the scalar rule that the index columns replaced:
    each cell (i, j) in row order, mapped to the cell whose row gives its
    row, its mirror when B < C."""
    steps = [i for i in range(1, math.floor(90.0 / step) + 1) if eps_apex < i * step <= 90.0]
    whole = round(180.0 / step)
    if whole * step != 180.0:
        return {(i, j): (j, i) if i < j else (i, j)
                for i in steps for j in steps if eps_apex < 180.0 - (i * step + j * step) <= 90.0}
    return {(i, j): (j, i) if i < j else tuple(sorted((whole - i - j, i, j), reverse=True)[1:])
            for i in steps for j in steps if 2 * (whole - i - j) <= whole and eps_apex < (whole - i - j) * step}


def _relabeled_row(b, c, steps, apex, row):
    """Row of cell (b, c), whose angles A, B and C are ``steps`` grid steps,
    from ``row``, the computed row of the same triangle with other labels,
    whose standard form has its apex at ``apex``: the scalar fill, one row
    at a time, that the sweep's array pass replaced."""
    order = sorted(range(3), key=steps.__getitem__, reverse=True)  # stable on ties
    (ax, ay), (bx, by), (cx, cy) = ((apex, (0.0, 0.0), (1.0, 0.0))[order.index(k)] for k in range(3))
    dx, dy, ux, uy = cx - bx, cy - by, row.argmax.x - bx, row.argmax.y - by
    dd, side = dx * dx + dy * dy, math.hypot(dx, dy)
    turn = math.copysign(1.0, dx * (ay - by) - dy * (ax - bx))
    rn, rm = row.rn / side, row.rm / side
    return SweepRow(b, c, rn / rm, Point2((ux * dx + uy * dy) / dd, turn * (dx * uy - dy * ux) / dd), rn, rm)


def _mirror_row(row):
    """Row of the mirror-image cell: swapping B and C reflects the standard
    form in x = 1/2, which leaves every cost unchanged."""
    return SweepRow(row.c_deg, row.b_deg, row.ratio, Point2(1.0 - row.argmax.x, row.argmax.y), row.rn, row.rm)


def _row_hexes(r):
    return [v.hex() for v in (r.b_deg, r.c_deg, r.ratio, r.rn, r.rm, r.argmax.x, r.argmax.y)]


def _row_bits(rows):
    """Each row's seven floats as 64-bit patterns, one array row per row:
    rows are equal by ``_row_hexes`` where their array rows are equal."""
    return np.array([(r.b_deg, r.c_deg, r.ratio, r.rn, r.rm, r.argmax.x, r.argmax.y) for r in rows]).view(np.int64)


def _failing_cell(ok, i, j):
    """The first cell (i, j) where the array ``ok`` is false, or None."""
    bad = np.flatnonzero(~ok)
    return (int(i[bad[0]]), int(j[bad[0]])) if bad.size else None


@pytest.mark.parametrize("step", [0.3, 0.6, 0.9, 1.0, 5.0, 7.0])
@pytest.mark.parametrize("n, m", tradeoffs._PAIRS)
def test_rows_equal_the_scalar_fill(n, m, step):
    # Every row that the sweep fills in its array pass, relabeled or
    # mirrored, is by float.hex the row that the scalar fill gives from its
    # triangle's computed row, on the grid of the scalar rule.  Relabelings
    # happen at 0.3, 0.6, 0.9, 1 and 5 deg; at 7 deg every row with B < C is
    # a mirror of a computed row.
    rows = sweep_triangles(n, m, step_deg=step).rows
    cells = _reference_cells(step, 0.5)
    assert [(r.b_deg, r.c_deg) for r in rows] == [(i * step, j * step) for i, j in cells]
    got = dict(zip(cells, rows))
    whole = round(180.0 / step)
    want = {}
    for (i, j), src in cells.items():
        if i >= j:
            apex = vertex_from_angles(math.radians(src[0] * step), math.radians(src[1] * step))
            want[i, j] = got[i, j] if src == (i, j) else _relabeled_row(
                i * step, j * step, (whole - i - j, i, j), apex, got[src])
    for (i, j), src in cells.items():
        if i < j:
            want[i, j] = _mirror_row(want[src])
    relabeled = sum(i >= j and src != (i, j) for (i, j), src in cells.items())
    assert (relabeled > 0) == (step != 7.0)
    got, expect = _row_bits(rows), _row_bits([want[cell] for cell in cells])
    bad = np.flatnonzero((got != expect).any(axis=1))
    assert not bad.size, (_row_hexes(rows[bad[0]]), _row_hexes(want[list(cells)[bad[0]]]))


def test_sweep_angles_are_floats_whatever_the_step_type():
    # An int step sweeps the grid of its float, and bools are no steps.
    sw, want = sweep_triangles(1, 3, step_deg=5, eps_apex_deg=1), sweep_triangles(1, 3, step_deg=5.0, eps_apex_deg=1.0)
    assert [_row_hexes(r) for r in sw.rows] == [_row_hexes(r) for r in want.rows]
    assert {type(v) for r in sw.rows for v in (r.b_deg, r.c_deg)} == {float}
    summary = sw.summary()
    assert (type(summary["step_deg"]), type(summary["eps_apex_deg"])) == (float, float)
    assert json.dumps(summary) == json.dumps(want.summary())
    for step, eps_apex in ((True, 0.5), (1.0, False), (1.0, True)):
        with pytest.raises(ValueError):
            sweep_triangles(1, 3, step_deg=step, eps_apex_deg=eps_apex)


def test_sweep_rows_are_frozen_dataclasses():
    # Callers copy and perturb rows through ``dataclasses``, and a row is
    # not a tuple of its fields.
    row = sweep_triangles(1, 3, step_deg=30.0).rows[0]
    moved = dataclasses.replace(row, ratio=2.0)
    assert (moved.ratio, moved.argmax, dataclasses.asdict(moved)["rn"]) == (2.0, row.argmax, row.rn)
    assert row != (row.b_deg, row.c_deg, row.ratio, row.argmax, row.rn, row.rm)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.ratio = 2.0


# Named triangles by their angles; each is certified as the 5 deg sweep
# computes it, with its angles sorted so that A >= B >= C.
_CERT_SHAPES = {
    "equilateral": (60.0, 60.0, 60.0),
    "right isosceles": (90.0, 45.0, 45.0),
    "50/70": (70.0, 60.0, 50.0),
    "85/85": (85.0, 85.0, 10.0),
}


def _computed_cells(n, m):
    """(standard forms, sweep rows) of the computed cells of ``_CERT_SHAPES``
    in the 5 deg sweep."""
    rows = {(r.b_deg, r.c_deg): r for r in sweep_triangles(n, m, step_deg=5.0).rows}
    picked = [rows[b, c] for _, b, c in _CERT_SHAPES.values()]
    return [triangle_from_angles(math.radians(r.b_deg), math.radians(r.c_deg)) for r in picked], picked


def _bits(r):
    """A max_ratio result or sweep row as ``float.hex``, argmax included."""
    return [v.hex() for v in (r.ratio, r.rn, r.rm, r.argmax.x, r.argmax.y)]


def _lattice_max(std, n, m):
    """The largest R_n/R_m over the 256-per-side lattice of ``std``."""
    rn, rm = TriangleKernel(*std.a).costs(barycentric_grid(std, 256), n, m)
    return float((rn / rm).max())


class TestCertifyMaxRatio:
    @pytest.mark.parametrize("n, m", tradeoffs._PAIRS)
    def test_seeds_are_certified_maxima(self, n, m):
        delta = verify._CERT_DELTA[n, m]
        stds, rows = _computed_cells(n, m)
        for name, std, row, cert in zip(_CERT_SHAPES, stds, rows, certify_max_ratio(*apexes(stds), n, m, delta)):
            assert cert.status == "certified" and cert.witness is None, name
            # The lower bound is the seeds' value, computed as the
            # sweep computes its row.
            assert cert.lower.hex() == row.ratio.hex(), name
            assert cert.upper >= _lattice_max(std, n, m), name
            assert cert.upper - cert.lower <= delta, name
            assert cert.boxes >= 1 and cert.pair == (n, m)

    @pytest.mark.parametrize("n, m", tradeoffs._PAIRS)
    def test_a_lower_bound_cut_by_ten_deltas_is_refuted(self, n, m, monkeypatch):
        # The seeds' values cut by ten deltas, as R_n = cut over R_m = 1.
        delta = verify._CERT_DELTA[n, m]
        stds, rows = _computed_cells(n, m)
        cuts = [r.ratio - 10 * delta for r in rows]
        monkeypatch.setattr(tradeoffs, "_maximize", lambda *args: (None, None, np.array(cuts), np.ones(len(cuts))))
        for name, std, cut, cert in zip(_CERT_SHAPES, stds, cuts, certify_max_ratio(*apexes(stds), n, m, delta)):
            assert cert.status == "refuted" and cert.lower == cut, name
            assert std.contains(cert.witness), name
            assert ratio_at(std, cert.witness, n, m) > cut + delta, name

    def test_thin_isosceles_maxima_are_certified(self):
        # Criterion 7's triangles, whose 1 and 0.5 deg apexes are no cell
        # of the 1 deg sweep that criterion 14 certifies: max_ratio's value
        # is the lower bound, and it is the maximum within delta.
        delta = verify._CERT_DELTA[1, 3]
        halves = [math.radians((180.0 - apex) / 2.0) for apex in verify._THIN_APEX_DEG]
        tris = [triangle_from_angles(half, half) for half in halves]
        stds = [t.standard()[0] for t in tris]
        for apex, t, cert in zip(verify._THIN_APEX_DEG, tris, certify_max_ratio(*apexes(stds), 1, 3, delta)):
            assert cert.status == "certified", (apex, cert)
            assert cert.lower.hex() == max_ratio(t, 1, 3).ratio.hex(), apex
            assert cert.lower <= cert.upper <= cert.lower + delta, apex

    def test_box_cap_leaves_a_cell_uncertified_with_a_valid_upper_bound(self, monkeypatch):
        monkeypatch.setattr(tradeoffs, "_BOX_CAP", 40)
        stds, _ = _computed_cells(1, 3)
        for std, cert in zip(stds, certify_max_ratio(*apexes(stds), 1, 3, 1e-6)):
            assert cert.status == "uncertified" and cert.boxes <= 40
            assert cert.upper >= _lattice_max(std, 1, 3)


GOLDEN = json.loads((Path(__file__).parent / "data" / "sweep_10deg.json").read_text())


@pytest.mark.parametrize("pair", sorted(GOLDEN["pairs"]))
def test_sweep_matches_golden(pair):
    """10-degree sweep rows recorded from the per-cell scalar search that
    preceded the lockstep one."""
    n, m = (int(v) for v in pair.split(","))
    golden = GOLDEN["pairs"][pair]
    sw = sweep_triangles(n, m, step_deg=GOLDEN["step_deg"])
    assert [(r.b_deg, r.c_deg) for r in sw.rows] == [(g[0], g[1]) for g in golden["rows"]]
    for row, (b, c, ratio, rn, rm, gx, gy) in zip(sw.rows, golden["rows"]):
        assert abs(row.ratio - ratio) <= 1e-12, (b, c)
        assert abs(row.rn - rn) <= 1e-12 and abs(row.rm - rm) <= 1e-12, (b, c)
        # On a plateau the argmax may move along it, but the ratio at the
        # golden argmax must still be the row's maximum.
        std, _ = triangle_from_angles(math.radians(b), math.radians(c)).standard()
        moved = math.hypot(row.argmax.x - gx, row.argmax.y - gy) > 1e-9
        assert not moved or abs(ratio_at(std, Point2(gx, gy), n, m) - row.ratio) <= 1e-12, (b, c)
    summary = sw.summary()
    for side in ("sup", "inf"):
        assert {key: summary[side][key] for key in ("b_deg", "c_deg", "shape")} == golden[side]


RATIO_GOLDEN = json.loads((Path(__file__).parent / "data" / "ratio_golden.json").read_text())


def test_max_ratio_matches_golden():
    """Every recorded max_ratio result, bit for bit: named shapes down to a
    0.5 degree apex and seeded random ones, all pairs.  The rows were
    recorded at grids 256, 128 and 48, and a shape's three rows agree: the
    best seed won at every grid."""
    by_shape = {}
    for name, b, c, n, m, grid, *expected in RATIO_GOLDEN["cases"]:
        by_shape.setdefault((name, b, c, n, m), {})[grid] = expected
    assert len(by_shape) == 102
    for (name, b, c, n, m), rows in by_shape.items():
        assert sorted(rows) == [48, 128, 256], (name, n, m)
        expected = rows[256]
        assert rows[128] == rows[48] == expected, (name, n, m)
        rep = max_ratio(triangle_from_angles(float.fromhex(b), float.fromhex(c)), n, m)
        assert _bits(rep) == expected, (name, n, m)


@pytest.mark.parametrize("pair", sorted(RATIO_GOLDEN["sweeps"]))
def test_sweep_matches_ratio_golden(pair):
    n, m = (int(v) for v in pair.split(","))
    sw = sweep_triangles(n, m, step_deg=RATIO_GOLDEN["step_deg"])
    got = [[r.b_deg, r.c_deg, *(v.hex() for v in (r.ratio, r.rn, r.rm, r.argmax.x, r.argmax.y))] for r in sw.rows]
    assert got == RATIO_GOLDEN["sweeps"][pair]
