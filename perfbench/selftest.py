"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Smoke runs of every workload at tiny size, in both modes, check that every
metric named in BENCHMARK.json is printed with its unit.  The perturbation
tests show that each workload's check rejects a wrong answer, so a check
that can never fail is caught.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import run
from tracing import PER_LAYER, Tracer, read_spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LIB = run.import_library()


def make(name: str, tmp_path, seed: int = 5):
    return WORKLOADS[name](LIB, seed, True, str(tmp_path))


def outcome(wl, x):
    try:
        result, error = wl.call(x), None
    except Exception as exc:
        result, error = None, exc
    return wl.check(x, result, error)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert isinstance(result["metrics"][m["name"]]["value"], float)
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in lines[:-1])


def test_exits_nonzero_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_at_reference_scales_each_call_by_the_loop_times_around_it():
    ref = calibrate.REFERENCE_S
    marks = [(0, ref), (2, 3 * ref), (3, ref)]
    # Calls 0 and 1 sit between loop times ref and 3 ref (mean 2 ref), call 2
    # between 3 ref and ref: each reads half its raw time.
    assert list(calibrate.at_reference([2.0, 4.0, 6.0], marks)) == [1.0, 2.0, 3.0]
    assert calibrate.loop_time() > 0


def test_sweep_check_rejects_perturbed_ratio(tmp_path):
    wl = make("sweep", tmp_path)
    pair = wl.input(0)
    res = wl.call(pair)
    assert wl.check(pair, res, None).failed == 0
    row = res.rows[0]
    rows = (dataclasses.replace(row, ratio=row.ratio * (1 + 1e-6)),) + res.rows[1:]
    assert wl.check(pair, dataclasses.replace(res, rows=rows), None).failed >= 1
    # A table off the paper's supremum fails every cell of the pair.
    low = tuple(dataclasses.replace(r, ratio=r.ratio * 0.99, rn=r.rn * 0.99) for r in res.rows)
    assert wl.check(pair, dataclasses.replace(res, rows=low), None).failed == len(res.rows)


def test_raster_check_rejects_swapped_labels(tmp_path):
    wl = make("raster", tmp_path)
    x = wl.input(0)
    rmap = wl.call(x)
    assert wl.check(x, rmap, None).failed == 0
    names = sorted({label for cell in rmap.cells for label in cell.labels})
    swapped = tuple(
        dataclasses.replace(cell, labels=tuple(n for n in names if n not in cell.labels)) for cell in rmap.cells
    )
    assert wl.check(x, dataclasses.replace(rmap, cells=swapped), None).failed == 1
    # A CSV missing its last row fails too.
    lines = Path(wl.csv).read_text().splitlines(keepends=True)
    Path(wl.csv).write_text("".join(lines[:-1]))
    assert wl.check(x, rmap, None).failed == 1


def test_eval_check_rejects_perturbed_costs(tmp_path):
    wl = make("eval", tmp_path)
    x = next(x for x in map(wl.make, range(100)) if not x.tiny)
    t, report, text = wl.call(x)
    assert wl.problems(t, report, text) == []
    for key in ("r1", "r3"):
        bad = json.loads(text)
        bad[key]["cost"] *= 1 + 1e-6
        found = wl.problems(t, bad, LIB.cli.json_dumps(bad))
        assert any("posed" in p for p in found), (key, found)
    assert wl.problems(t, report, text.replace('"r1"', '"r0"', 1)) == ["JSON text does not round-trip the report"]


def test_eval_known_defect_is_not_a_failure_but_other_rejections_are(tmp_path):
    wl = make("eval", tmp_path)
    tiny = next(x for x in map(wl.make, range(1000)) if x.tiny)
    o = outcome(wl, tiny)
    # Once the 1e-7-side defect is fixed, the instance passes the full check.
    assert (o.failed, o.defect) in ((0, 1), (0, 0))
    obtuse = dataclasses.replace(tiny, vertices=((0.5, 0.1), (0.0, 0.0), (1.0, 0.0)), tiny=False)
    assert outcome(wl, obtuse).failed == 1


def test_certify_check_rejects_perturbed_costs(tmp_path, monkeypatch):
    wl = make("certify", tmp_path)
    tally = run.Tally()
    run.run_op(wl, 0, tally)
    assert tally.failed == 0
    closed = wl.closed_costs
    monkeypatch.setattr(wl, "closed_costs", lambda t, p: {k: v * (1 + 1e-4) for k, v in closed(t, p).items()})
    run.run_op(wl, 0, tally)
    assert tally.failed == 1


def test_tracer_links_pool_spans_and_restores(tmp_path):
    wl = make("sweep", tmp_path)
    original = LIB.tradeoffs.max_ratio
    tracer = Tracer(LIB)
    tally = run.Tally()
    run.run_op(wl, 0, tally, tracer)
    assert LIB.tradeoffs.max_ratio is original
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    spans = {s[0]: s for s in read_spans(path)}
    top = [s for s in spans.values() if s[1] is None]
    assert [s[3] for s in top] == ["tradeoffs.sweep_triangles"]
    cells = [s for s in spans.values() if s[3] == "tradeoffs.max_ratio"]
    assert len(cells) == len(wl.cells) and all(s[1] == top[0][0] for s in cells)
    # Nested kernel methods (cost -> r1 -> r1_all) record one span each call.
    assert all(spans[s[1]][3] != "kernels.eval" for s in spans.values() if s[3] == "kernels.eval")
    assert sum(1 for s in spans.values() if s[3] == "kernels.TriangleKernel") == len(wl.cells)
