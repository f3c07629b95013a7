"""Acceptance suite: one test per criterion, full sample sizes.

Each test prints a PASS/FAIL line with the measured values (visible with
``pytest -s`` or on failure), asserts the criterion outcome, and pins the
whole result to its entry in ``data/verify_full.json``, the recorded
``trivisit verify --json`` report, so that a drifting detail (criterion 10's
worst delta, criterion 13's sup and inf) fails here too.
"""

import json
from pathlib import Path

import pytest

from trivisit import verify

_DESCRIPTIONS = {cid: desc for cid, desc, _ in verify.CRITERIA}
_FULL_REPORT = {
    c["id"]: c for c in json.loads((Path(__file__).parent / "data" / "verify_full.json").read_text())["criteria"]
}


@pytest.mark.parametrize(
    "cid", sorted(_DESCRIPTIONS), ids=[f"criterion_{cid:02d}" for cid in sorted(_DESCRIPTIONS)]
)
def test_criterion(cid):
    result = verify.run_criterion(cid, quick=False)
    flag = "PASS" if result.passed else "FAIL"
    print(f"[{flag}] criterion {cid}: {_DESCRIPTIONS[cid]} -- {result.detail}")
    assert result.passed, f"criterion {cid} ({_DESCRIPTIONS[cid]}): {result.detail}"
    pinned = _FULL_REPORT[cid]
    assert (result.cid, result.description, result.passed, result.detail) == (
        pinned["id"], pinned["description"], pinned["passed"], pinned["detail"]
    )


# Details of the quick runs of criteria 8 and 9, recorded when each sample
# still had its own one-point kernel; the stacked kernel must reproduce them.
_QUICK_DETAILS = {
    8: "max R1/R3=3.71761; max R2/R3=1.84269; max R1/R2=2.9617; chain violation=0",
    9: "r13min=3.171245, r23min=1.414272, r12min=2.518729; R1(I)/R3(I) >= sqrt(10); "
       "R2(I)/R3(I) >= sqrt(2); R1(T)/R2(T) >= 5/2",
}


def test_raising_criterion_keeps_its_description(monkeypatch):
    def fail(*args):
        raise RuntimeError("no cost")

    monkeypatch.setattr(verify, "r1", fail)
    result = verify.run_criterion(4, quick=True)
    assert (result.passed, result.detail) == (False, "raised RuntimeError('no cost')")
    assert result.description == _DESCRIPTIONS[4]


@pytest.mark.parametrize("cid", sorted(_QUICK_DETAILS))
def test_batched_criterion_details(cid):
    assert verify.run_criterion(cid, quick=True).detail == _QUICK_DETAILS[cid]
