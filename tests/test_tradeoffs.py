import json
import math
from pathlib import Path

import pytest

from trivisit import tradeoffs
from trivisit.geom_core import Point2, Similarity, Triangle, incenter, triangle_from_angles
from trivisit.tradeoffs import (
    describe_shape,
    max_ratio,
    ratio_at,
    sweep_triangles,
)

from conftest import random_interior_point, random_triangle

EQ = triangle_from_angles(math.pi / 3, math.pi / 3)
RI = triangle_from_angles(math.pi / 4, math.pi / 4)
SQRT2 = math.sqrt(2.0)


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
        rep = max_ratio(EQ, 1, 3, grid=64)
        assert rep.ratio == pytest.approx(rep.rn / rep.rm, abs=1e-12)

    def test_similarity_invariance(self, rng):
        for _ in range(10):
            t = random_triangle(rng)
            sim = Similarity(rng.uniform(0, 6), rng.uniform(0.3, 3), Point2(1.0, -2.0))
            t2 = Triangle(sim.apply(t.a), sim.apply(t.b), sim.apply(t.c))
            r1v = max_ratio(t, 1, 3, grid=48).ratio
            r2v = max_ratio(t2, 1, 3, grid=48).ratio
            assert r1v == pytest.approx(r2v, abs=1e-9)

    def test_value_not_below_samples(self, rng):
        # seeds and grid points never beat the reported maximum materially
        from trivisit._kernels import TriangleKernel, barycentric_grid

        for _ in range(10):
            t = random_triangle(rng)
            rep = max_ratio(t, 1, 2, grid=48)
            std, _ = t.standard()
            k = TriangleKernel(std)
            pts = barycentric_grid(std, 48, include_vertices=False)
            vals = k.r1(pts) / k.r2(pts)
            assert rep.ratio >= float(vals.max()) - 1e-9

    def test_witnesses_attached_on_request(self):
        rep = max_ratio(EQ, 2, 3, grid=32, with_witnesses=True)
        assert rep.witnesses is not None
        assert rep.witnesses.r2.cost == pytest.approx(rep.rn, abs=1e-9)


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
        def rows():
            return [
                (r.b_deg, r.c_deg, r.ratio, r.rn, r.rm, tuple(r.argmax))
                for r in sweep_triangles(1, 2, step_deg=10.0).rows
            ]

        default = rows()
        for chunk in (1, 7):
            monkeypatch.setattr(tradeoffs, "_CHUNK", chunk)
            assert rows() == default

    def test_max_ratio_reproduces_sweep_row(self):
        row = next(r for r in sweep_triangles(2, 3, step_deg=10.0).rows if (r.b_deg, r.c_deg) == (50.0, 70.0))
        t = triangle_from_angles(math.radians(50.0), math.radians(70.0))
        rep = max_ratio(t, 2, 3, grid=24, refine_tol=1e-6)
        assert (rep.ratio, rep.rn, rep.rm, rep.argmax) == (row.ratio, row.rn, row.rm, row.argmax)


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
