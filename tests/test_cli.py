import hashlib
import json
import math
from pathlib import Path

import pytest

from trivisit import cli
from trivisit.cli import EXIT_GEOMETRY, EXIT_USAGE, EvalReport, _eval_json, _json, eval_report, json_dumps, main
from trivisit.geom_core import ObtuseTriangleError, Point2, Triangle, triangle_from_angles
from trivisit.oracle import CERTIFY_TOL
from trivisit.regions import raster_region_map


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJsonDumps:
    def test_round_trips_through_stdlib(self):
        obj = {"a": 1.1547005383792515, "b": [1, 2.5, None, True], "c": {"d": "x"}}
        assert json.loads(json_dumps(obj)) == obj

    def test_seventeen_digits(self):
        assert json_dumps(0.1) == "0.10000000000000001"


class TestEval:
    def test_equilateral_incenterish_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--angles", "60,60", "--point", "0.5,0.288675"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "trivisit/1"
        assert doc["r1"]["cost"] == pytest.approx(1.15470054, abs=5e-7)
        assert doc["r2"]["cost"] == pytest.approx(0.57735027, abs=5e-7)
        assert doc["r3"]["cost"] == pytest.approx(0.28867513, abs=5e-7)

    def test_right_isosceles_mid_altitude(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--angles", "45,45", "--point", "0.5,0.25")
        assert code == 0
        doc = json.loads(out)
        assert doc["r1"]["cost"] == pytest.approx(0.75, abs=1e-9)
        assert doc["r2"]["cost"] == pytest.approx(0.25, abs=1e-9)

    def test_far_from_origin_vertex_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval",
            "--vertices", "74034.58959750044,-4431.205093016029,74026.05820673211,-4438.941268104179,"
                          "74034.20284624322,-4442.786978033005",
            "--point", "74026.05820673211,-4438.941268104179",
        )
        assert code == 0
        assert json.loads(out)["schema"] == "trivisit/1"

    def test_point_accepted_just_outside_exits_0(self, capsys):
        # 5e-10 outside CA near C: Triangle.contains accepts it, and R3
        # exceeds R2 there by 4.4e-10, within twice the distance outside.
        code, out, _ = run_cli(
            capsys, "eval", "--vertices", "0.5,0.8,0,0,1,0", "--point=0.9999994704250592,8.482633034750894e-07"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["r3"]["cost"] == pytest.approx(doc["r2"]["cost"], abs=1e-9)

    def test_small_far_triangle_vertex_certifies(self, capsys):
        # Vertex C of a small triangle about 730 from the origin, up to the
        # last digit: the pose's gate accepts it, and no second gate in
        # standard form, where an ulp of the pose is many base lengths,
        # rejects it.  Its costs agree with the oracle's.
        code, out, err = run_cli(
            capsys, "eval", "--oracle",
            "--vertices=-43.01990492393453,728.3900355068699,-43.01990327223518,728.3900357925199,"
            "-43.01990448432249,728.3900371079799", "--point=-43.01990448432249,728.39003710798",
        )
        assert code == 0, err
        oracle = json.loads(out)["oracle"]
        assert all(abs(oracle[k]) <= CERTIFY_TOL for k in ("delta_r1", "delta_r2", "delta_r3")), oracle

    def test_costs_at_two_to_the_1000_are_exact(self, capsys):
        # The gates square coordinate differences scaled by a power of two,
        # so a triangle posed at 2^1000 is accepted, and its costs are the
        # unit triangle's times 2^1000 exactly.
        unit = (0.5, 0.8, 0.0, 0.0, 1.0, 0.0, 0.5, 0.3)
        docs = []
        for k in (0, 1000):
            x = [repr(math.ldexp(v, k)) for v in unit]
            code, out, err = run_cli(capsys, "eval", "--vertices=" + ",".join(x[:6]), "--point=" + ",".join(x[6:]))
            assert code == 0, err
            docs.append(json.loads(out))
        for key in ("r1", "r2", "r3"):
            assert docs[1][key]["cost"] == math.ldexp(docs[0][key]["cost"], 1000), key

    def test_point_outside_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--angles", "60,60", "--point", "2,2")
        assert code == EXIT_GEOMETRY
        assert "outside" in err

    def test_obtuse_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--angles", "20,30", "--point", "0.5,0.1")
        assert code == EXIT_GEOMETRY

    def test_small_far_obtuse_triangle_exits_2(self, capsys):
        # A 100 deg apex over a base of 1e-11 at (1000, 1000), where an ulp
        # is 1.1% of the base, is 9.9 ulps of rounding obtuse.  The pose's
        # gate allows the 8 ulps by which the standard form may move the
        # apex, so it rejects the pose itself.
        v = (1000 + 0.5e-11, 1000 + 0.5e-11 / math.tan(math.radians(50)), 1000.0, 1000.0, 1000 + 1e-11, 1000.0)
        with pytest.raises(ObtuseTriangleError):
            Triangle(v[:2], v[2:4], v[4:])
        code, _, err = run_cli(capsys, "eval", "--vertices=" + ",".join(map(repr, v)), "--point=1000,1000")
        assert code == EXIT_GEOMETRY and "obtuse" in err, err

    def test_vertices_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval",
            "--vertices", "0.5,0.5,0,0,1,0",
            "--point", "0.5,0.25",
        )
        assert code == 0
        assert json.loads(out)["r1"]["cost"] == pytest.approx(0.75, abs=1e-9)

    def test_oracle_flag_adds_deltas(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--angles", "60,60", "--point", "0.4,0.2", "--oracle"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["oracle"]["delta_r1"]) < 1e-6
        assert abs(doc["oracle"]["delta_r2"]) < 1e-6
        assert set(doc["oracle"]["ordered"]) == {"LRD", "LDR", "RLD", "RDL", "DLR", "DRL"}

    def test_byte_identical_output(self, capsys):
        _, out1, _ = run_cli(capsys, "eval", "--angles", "71,63", "--point", "0.41,0.3")
        _, out2, _ = run_cli(capsys, "eval", "--angles", "71,63", "--point", "0.41,0.3")
        assert out1 == out2

    def test_missing_triangle_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--point", "0.5,0.2")
        assert code == EXIT_USAGE

    def test_bad_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--angles"])
        assert err.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["eval", "--angles", "60,60", "--point", "0.5,0.2"],
    ["regions", "--angles", "60,60", "--grid", "16"],
    ["ratio", "--angles", "60,60", "--n", "1", "--m", "3"],
    ["sweep", "--n", "2", "--m", "3"],
])
def test_json_flag_only_on_verify(capsys, argv):
    # JSON is the only output of these commands, so they take no --json flag.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --json" in capsys.readouterr().err


class TestRegionsCmd:
    def test_writes_svg_and_csv(self, capsys, tmp_path):
        out = tmp_path / "eq.svg"
        code, stdout, _ = run_cli(
            capsys, "regions", "--angles", "60,60", "--mode", "r1",
            "--grid", "48", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(stdout)
        assert out.exists()
        assert (tmp_path / "eq.csv").exists()
        assert doc["cells"] == 48 * 49 // 2

    @pytest.mark.parametrize("mode", ["r1", "r2", "r3"])
    def test_counts_match_region_map(self, capsys, tmp_path, mode):
        code, stdout, _ = run_cli(
            capsys, "regions", "--angles", "50,70", "--mode", mode,
            "--grid", "40", "--out", str(tmp_path / "m.svg"),
        )
        assert code == 0
        rm = raster_region_map(triangle_from_angles(math.radians(50), math.radians(70)), 40, mode)
        doc = json.loads(stdout)
        assert doc["cells"] == len(rm.cells)
        assert doc["tie_cells"] == sum(c.tie for c in rm.cells)

    def test_non_obtuse_boundary_valid(self, capsys, tmp_path):
        out = tmp_path / "b.svg"
        code, _, _ = run_cli(
            capsys, "regions", "--angles", "89,45", "--grid", "32", "--out", str(out)
        )
        assert code == 0


class TestRatioCmd:
    def test_equilateral_one_three(self, capsys):
        code, out, _ = run_cli(capsys, "ratio", "--angles", "60,60", "--n", "1", "--m", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == pytest.approx(4.0, abs=1e-6)
        assert doc["argmax"][0] == pytest.approx(0.5, abs=1e-4)
        assert doc["argmax"][1] == pytest.approx(0.28867513, abs=1e-4)
        assert set(doc) == {"schema", "pair", "ratio", "argmax", "rn", "rm"}

    def test_bad_pair_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "ratio", "--angles", "60,60", "--n", "3", "--m", "1")
        assert code == EXIT_USAGE

    def test_grid_flag_exits_1(self, capsys):
        # The maximum is the best of the seeds; there is no grid to size.
        with pytest.raises(SystemExit) as exc:
            main(["ratio", "--angles", "60,60", "--n", "1", "--m", "3", "--grid", "256"])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --grid 256" in err


class TestSweepCmd:
    def test_coarse_sweep(self, capsys, tmp_path):
        out = tmp_path / "sw.csv"
        code, stdout, _ = run_cli(
            capsys, "sweep", "--n", "2", "--m", "3", "--step", "15", "--out", str(out)
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["sup"]["value"] == pytest.approx(2.0, abs=1e-3)
        assert doc["sup"]["shape"] == "equilateral"
        rows = out.read_text().splitlines()
        assert rows[0] == "B_deg,C_deg,ratio,argmax_x,argmax_y,Rn,Rm"
        assert len(rows) == doc["cells"] + 1

    def test_every_cell_has_its_mirror_exit_0(self, capsys, tmp_path):
        # At 0.6 deg the sweep once ended in a KeyError, where float rounding
        # kept cells with B < C whose mirror was off the grid.
        out = tmp_path / "sw.csv"
        code, stdout, _ = run_cli(capsys, "sweep", "--n", "1", "--m", "3", "--step", "0.6", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == json.loads(stdout)["cells"] + 1 == 11474
        cells = {tuple(line.split(",")[:2]) for line in lines[1:]}
        assert all((c, b) in cells for b, c in cells)

    @pytest.mark.parametrize("flags", [
        ("--step", "0"), ("--step", "-1"), ("--step", "100"), ("--eps-apex", "95"),
        ("--eps-apex", "-5"), ("--eps-apex", "nan"), ("--step", "1e-300"),
    ])
    def test_bad_grid_exits_1_without_csv(self, capsys, tmp_path, flags):
        out = tmp_path / "sw.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--n", "1", "--m", "3", *flags, "--out", str(out))
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err.startswith("trivisit: error: sweep ")
        assert not out.exists()


class TestVerifyCmd:
    # The real criteria run in tests/test_acceptance.py; here only the
    # command surface is exercised, with stubbed criteria for speed.

    @staticmethod
    def _stub(results):
        from trivisit import verify

        def fake_run(quick=False):
            return results

        return fake_run

    def test_all_pass_exits_0(self, capsys, monkeypatch):
        from trivisit import verify

        results = [verify.CriterionResult(1, "alpha", True, "ok"),
                   verify.CriterionResult(2, "beta", True, "ok")]
        monkeypatch.setattr(verify, "run_criteria", self._stub(results))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "[PASS]" in out and "2/2 criteria passed" in out

    def test_failure_exits_3(self, capsys, monkeypatch):
        from trivisit import verify
        from trivisit.cli import EXIT_VERIFY

        results = [verify.CriterionResult(1, "alpha", True, "ok"),
                   verify.CriterionResult(2, "beta", False, "bad")]
        monkeypatch.setattr(verify, "run_criteria", self._stub(results))
        code, out, _ = run_cli(capsys, "verify", "--json")
        assert code == EXIT_VERIFY
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["criteria"][1]["detail"] == "bad"

    def test_single_quick_criterion_passes(self, capsys):
        # one cheap real criterion end to end through the library surface
        from trivisit import verify

        res = verify.run_criterion(4, quick=True)
        assert res.passed, res.detail


EVAL_GOLDEN = json.loads((Path(__file__).parent / "data" / "eval_golden.json").read_text())["instances"]


def test_eval_matches_golden():
    """Every recorded ``eval`` report is reproduced byte for byte: ties,
    vertices, edge points, and scales from 1e-3 to 1e3 under rotations."""
    changed = [
        g["what"]
        for g in EVAL_GOLDEN
        if hashlib.sha256(json_dumps(eval_report(Triangle(*g["vertices"]), Point2(*g["point"]))).encode()).hexdigest()
        != g["sha256"]
    ]
    assert len(EVAL_GOLDEN) == 200
    assert changed == []


def _synthetic_reports():
    """Reports of the ``eval`` shape with values no triangle gives: NaN and
    infinite costs, signed zeros, integral floats on both sides of 1e16, an
    integer cost, no order, no edges or witnesses, quotes and backslashes."""
    base = eval_report(triangle_from_angles(math.radians(70), math.radians(55)), Point2(0.4, 0.2))
    traj = base["r1"]["trajectory"]
    odd = {
        **traj,
        "waypoints": [[-0.0, 0.0], [1e16, -1e16], [9999999999999998.0, -9999999999999998.0], [1e17, 3.0]],
        "cost": math.nan, "kind": 'say "hi"', "order": None, "edges": [], "tie": True,
    }
    reports = []
    for cost in (math.nan, math.inf, -math.inf, -0.0, 0.0, 0, 2.0, 1e16, 1.0000000000000002e16, 1e300, 5e-324):
        rep = json.loads(json.dumps(base))
        rep["r1"]["cost"] = rep["r2"]["cost"] = rep["r3"]["cost"] = cost
        rep["r1"]["trajectory"] = odd
        rep["r2"]["witnesses"][0]["single"] = {**odd, "kind": "back\\slash", "edges": ["L", "D", "R"]}
        rep["input"]["angles_deg"] = [cost, -cost, 90.0]
        reports.append(rep)
    empty = json.loads(json.dumps(base))
    empty["r3"]["edges"], empty["r2"]["witnesses"], empty["r1"]["orders"] = [], [], []
    empty["schema"] = 'a\\b"c'
    return reports + [empty]


class TestEvalWriter:
    """``json_dumps`` writes an ``eval`` report in one pass (``_eval_json``),
    which must give the bytes of the generic walk (``_json``)."""

    def test_golden_reports(self):
        for g in EVAL_GOLDEN:
            rep = eval_report(Triangle(*g["vertices"]), Point2(*g["point"]))
            assert _eval_json(rep) == _json(rep, 0) == json_dumps(rep)

    def test_oracle_reports(self):
        for g in EVAL_GOLDEN[::10]:
            rep = eval_report(Triangle(*g["vertices"]), Point2(*g["point"]), with_oracle=True)
            assert _eval_json(rep) == _json(rep, 0) == json_dumps(rep)

    def test_synthetic_reports(self):
        for rep in _synthetic_reports():
            assert _eval_json(rep) == _json(rep, 0) == json_dumps(rep)

    def test_report_type_picks_the_writer(self, monkeypatch):
        """An ``EvalReport`` is written by ``_eval_json``; a plain copy of it
        and mis-shaped reports take the generic walk, the copy in the same
        bytes as the report."""
        reports = [eval_report(Triangle(*g["vertices"]), Point2(*g["point"])) for g in EVAL_GOLDEN]
        texts = [json_dumps(rep) for rep in reports]
        variants = []
        for path, value in ((("r1", "cost"), [1.0, 2.0]), (("r3", "edges"), "LD"), (("input", "point"), {"x": 1.0}),
                            (("r2", "witnesses"), [{"single_edge": "L"}]), (("r1", "trajectory"), {"cost": 1.0})):
            bad = json.loads(json.dumps(reports[0]))
            bad[path[0]][path[1]] = value
            variants.append(bad)
        bad = json.loads(json.dumps(reports[0]))
        bad["r1"]["trajectory"]["waypoints"] = [[1.0, 2.0, 3.0]]
        variants.append(bad)

        def one_pass_writer(report):
            raise AssertionError("one-pass writer called")

        monkeypatch.setattr(cli, "_eval_json", one_pass_writer)
        for rep, text in zip(reports, texts):
            assert isinstance(rep, EvalReport)
            with pytest.raises(AssertionError, match="one-pass writer called"):
                json_dumps(rep)
            assert json_dumps(dict(rep)) == _json(dict(rep), 0) == text
        for bad in variants:
            assert json_dumps(bad) == _json(bad, 0)
