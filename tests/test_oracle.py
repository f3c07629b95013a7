import hashlib
import json
import math
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import poses
from trivisit import oracle, verify
from trivisit.cli import eval_report
from trivisit.fleet_costs import fleet_costs, r1, r2, r3
from trivisit.geom_core import Point2, Triangle, incenter, triangle_from_angles
from trivisit.oracle import (
    CERTIFY_TOL,
    DEFAULT_CONFIG,
    OracleConfig,
    OracleMismatchError,
    certify_instance,
    oracle_costs,
    oracle_ordered3,
    oracle_r2,
    oracle_r3,
    oracle_two_ordered,
)
from trivisit.visitation import EdgeId, VisitOrder, visit_three_ordered, visit_two_ordered

from conftest import random_interior_point, random_triangle
from poses import EQ, RI

FAST = OracleConfig(coarse_resolution=24, tol=1e-11)


def _grid_seed3(row, res):
    """One order's grid seed as the oracle computed it before the six
    orders shared one pass: the reference for ``oracle._grid_seeds``."""
    px, py, a1x, a1y, d1x, d1y, a2x, a2y, d2x, d2y, a3x, a3y, d3x, d3y, _ = row
    ts = np.linspace(0.0, 1.0, res)
    x1 = np.array([a1x, a1y])[None, :] + ts[:, None] * np.array([d1x, d1y])[None, :]
    x2 = np.array([a2x, a2y])[None, :] + ts[:, None] * np.array([d2x, d2y])[None, :]
    leg1 = np.hypot(x1[:, 0] - px, x1[:, 1] - py)
    leg2 = np.hypot(x1[:, None, 0] - x2[None, :, 0], x1[:, None, 1] - x2[None, :, 1])
    d30 = np.array([d3x, d3y])
    tt = ((x2[:, 0] - a3x) * d30[0] + (x2[:, 1] - a3y) * d30[1]) / (d30 @ d30)
    tt = np.clip(tt, 0.0, 1.0)
    leg3 = np.hypot(x2[:, 0] - (a3x + tt * d30[0]), x2[:, 1] - (a3y + tt * d30[1]))
    total = leg1[:, None] + leg2 + leg3[None, :]
    i, j = np.unravel_index(int(np.argmin(total)), total.shape)
    return float(ts[i]), float(ts[j])


class TestConfig:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            OracleConfig(coarse_resolution=4)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            OracleConfig(tol=0.0)

    @pytest.mark.parametrize("tol", [-1e-10, math.nan, math.inf, 1e-16, 1e-20])
    def test_rejects_unusable_tol(self, tol):
        # Constructor only: a golden section below the floor never returns.
        with pytest.raises(ValueError):
            OracleConfig(tol=tol)

    def test_accepts_tol_floor(self):
        assert OracleConfig(tol=1e-15).tol == 1e-15

    @pytest.mark.parametrize("res", [64.0, True, "64", None])
    def test_rejects_non_int_grid(self, res):
        with pytest.raises(ValueError):
            OracleConfig(coarse_resolution=res)


class TestOrdered3:
    def test_equilateral_incenter_dlr(self):
        val = oracle_ordered3(EQ, incenter(EQ), VisitOrder.DLR)
        assert val == pytest.approx(1.1547005383792515, abs=1e-6)

    def test_right_isosceles_lrd(self):
        val = oracle_ordered3(RI, Point2(0.5, 0.25), VisitOrder.LRD)
        assert val == pytest.approx(0.75, abs=1e-6)

    def test_point_on_first_edge_reduces_to_two(self):
        p = Point2(0.4, 0.0)
        val = oracle_ordered3(EQ, p, VisitOrder.DLR, FAST)
        two = visit_two_ordered(EQ, p, EdgeId.L, EdgeId.R).cost
        assert val == pytest.approx(two, abs=1e-6)

    def test_convexity_certificate(self, rng):
        # midpoint value never above the average of the endpoints
        for _ in range(100):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            order = VisitOrder.LRD
            row = oracle._ordered3_row(t, p, order)

            def f(t1, t2):
                return oracle._fix_first(row, t1)(t2)

            a = (rng.uniform(0, 1), rng.uniform(0, 1))
            b = (rng.uniform(0, 1), rng.uniform(0, 1))
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            assert f(*mid) <= (f(*a) + f(*b)) / 2 + 1e-12

    @settings(max_examples=8)
    @given(poses.instances(n=3))
    def test_inline_inner_section_is_the_golden_one(self, batch):
        # One tree per ordered visit and tol, shared by every t1 as in
        # oracle_ordered3: each walk and the t1 objective on its end node give
        # the closure's bits, slivers, edge and vertex points included.  The
        # same t1s walked in reverse on a fresh tree give the same bits, so
        # growth order does not matter.  At tol 0.3 a section is a few steps,
        # and at tol >= 1 the root itself ends it.  A node is the flat list
        # [x, y, leg3, um, low, high, a, b, u1, u2].
        t1s = [k / 12 for k in range(13)] + [1.0 - oracle._INV_PHI, oracle._INV_PHI]
        for inst in batch:
            std, sim = inst.t.standard()
            ps = sim.apply(inst.t.require_inside(inst.q))
            for order in VisitOrder:
                row = oracle._ordered3_row(std, ps, order)
                for tol in (DEFAULT_CONFIG.tol, FAST.tol, 0.3, 1.0, 2.5):
                    want = [oracle._golden_min(oracle._fix_first(row, t1), 0.0, 1.0, tol) for t1 in t1s]
                    forward = oracle._SecondTree(row, tol)
                    ends = [forward.section(t1) for t1 in t1s]
                    backward = oracle._SecondTree(row, tol)
                    ends_back = [backward.section(t1) for t1 in reversed(t1s)][::-1]
                    for t1, w, (end, val), (end_back, val_back) in zip(t1s, want, ends, ends_back):
                        assert [v.hex() for v in w] == [end[3].hex(), val.hex()], (order, tol, t1)
                        assert [end_back[3].hex(), val_back.hex()] == [end[3].hex(), val.hex()], (order, tol, t1)
                    for t1, (end, _) in zip(t1s, reversed(ends)):
                        got = oracle._fix_second(row, end)(t1)
                        assert got.hex() == oracle._fix_first(row, t1)(end[3]).hex(), (order, tol, t1)
                node = oracle._section_node(row)
                for t1, t2 in zip(t1s, reversed(t1s)):
                    got = oracle._fix_second(row, node(t2))(t1)
                    assert got.hex() == oracle._fix_first(row, t1)(t2).hex(), (order, t1, t2)

    @settings(max_examples=12)
    @given(poses.instances(kinds=("vertex", "edge", "near-vertex"), n=4))
    def test_grid_seeds_are_the_per_order_seeds(self, batch):
        # One seed pass over the six orders, in which the order that swaps a
        # pair of first and second edges reads its leg2 matrix transposed,
        # gives every order the (t1, t2) of its own grid, bit for bit: at
        # DEFAULT_CONFIG's resolution, the region probes' and FAST's, on
        # shapes down to a 1e-6 deg apex.  Run alone, an order gets the same
        # seed.
        for inst in batch:
            std, sim = inst.t.standard()
            ps = sim.apply(inst.t.require_inside(inst.q))
            for res in (DEFAULT_CONFIG.coarse_resolution, 32, FAST.coarse_resolution):
                want = [[v.hex() for v in _grid_seed3(oracle._ordered3_row(std, ps, o), res)] for o in VisitOrder]
                got = [[v.hex() for v in seed] for seed in oracle._grid_seeds(std, ps, VisitOrder, res)]
                assert got == want, res
                alone = [[v.hex() for v in oracle._grid_seeds(std, ps, (o,), res)[0]] for o in VisitOrder]
                assert alone == want, res

    def test_never_below_closed_form(self, rng):
        # The search is an upper bound that converges down onto the optimum.
        for _ in range(40):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            for order in VisitOrder:
                closed = visit_three_ordered(t, p, order).cost
                assert oracle_ordered3(t, p, order, FAST) >= closed - 1e-10


class TestFleetOracles:
    def test_r3_identical(self, rng):
        for _ in range(50):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            assert oracle_r3(t, p) == pytest.approx(r3(t, p).cost, abs=1e-12)

    def test_equilateral_incenter_r2(self):
        assert oracle_r2(EQ, incenter(EQ)) == pytest.approx(0.5773502691896258, abs=1e-6)

    def test_random_agreement(self, rng):
        for _ in range(25):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            assert abs(oracle_costs(t, p, FAST)["r1"] - r1(t, p).cost) < 1e-6
            assert abs(oracle_r2(t, p, FAST) - r2(t, p).cost) < 1e-6


class TestCertify:
    def test_passes_on_consistent_instance(self):
        p = incenter(EQ)
        deltas = certify_instance(
            EQ,
            p,
            {
                "r1": r1(EQ, p).cost,
                "r2": r2(EQ, p).cost,
                "r3": r3(EQ, p).cost,
                "DLR": visit_three_ordered(EQ, p, VisitOrder.DLR).cost,
            },
        )
        assert max(abs(d) for d in deltas.values()) < 1e-6

    def test_raises_loudly_on_gap(self):
        p = incenter(EQ)
        with pytest.raises(OracleMismatchError) as err:
            certify_instance(EQ, p, {"r1": 0.5})
        assert "r1" in str(err.value)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_bound_is_certify_tol(self, sign):
        p = Point2(0.4, 0.2)
        ref = oracle_costs(EQ, p, FAST)
        closed = {key: ref[key] + sign * 0.9 * CERTIFY_TOL for key in ("r1", "r2", "r3")}
        assert certify_instance(EQ, p, closed, FAST) == pytest.approx(
            {key: sign * 0.9 * CERTIFY_TOL for key in closed}, rel=1e-6
        )
        for key in closed:
            with pytest.raises(OracleMismatchError, match=key):
                certify_instance(EQ, p, {key: ref[key] + sign * 1.1 * CERTIFY_TOL}, FAST)

    def test_nan_cost_is_a_gap(self):
        p = incenter(EQ)
        with pytest.raises(OracleMismatchError) as err:
            certify_instance(EQ, p, {"r3": r3(EQ, p).cost, "r1": math.nan}, FAST)
        assert "r1" in str(err.value) and "nan" in str(err.value)

    def test_nan_cost_fails_criterion_10(self, monkeypatch):
        # One instance, its r2 oracle cost NaN: the NaN must stay the worst
        # gap past r3 and name the key and the point.
        t, p = triangle_from_angles(math.radians(50), math.radians(70)), Point2(0.4, 0.3)
        real = verify.oracle_costs
        monkeypatch.setattr(verify, "_random_instances", lambda seed, count: ((t, p),))
        monkeypatch.setattr(verify, "oracle_costs", lambda t, p: {**real(t, p, FAST), "r2": math.nan})
        res = verify.run_criterion(10, quick=True)
        assert not res.passed
        assert f"(r2@{tuple(p)})=nan exceeds" in res.detail


def _nine_closed_costs(t, p):
    rep = fleet_costs(t, p)
    closed = {"r1": rep.r1.cost, "r2": rep.r2.cost, "r3": rep.r3.cost}
    closed.update({o.value: visit_three_ordered(t, p, o).cost for o in VisitOrder})
    return closed


@pytest.fixture
def ordered3_calls(monkeypatch):
    calls = []
    original = oracle.oracle_ordered3

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "oracle_ordered3", counted)
    return calls


class TestOracleCosts:
    def test_keys_in_order(self):
        costs = oracle_costs(EQ, incenter(EQ), FAST)
        assert list(costs) == [o.value for o in VisitOrder] + ["r1", "r2", "r3"]

    def test_equals_public_functions(self, rng):
        instances = [(EQ, incenter(EQ))]
        for _ in range(10):
            t = random_triangle(rng)
            instances.append((t, random_interior_point(rng, t)))
        for t, p in instances:
            costs = oracle_costs(t, p, FAST)
            for o in VisitOrder:
                assert costs[o.value] == oracle_ordered3(t, p, o, FAST)
            assert costs["r1"] == min(oracle_ordered3(t, p, o, FAST) for o in VisitOrder)
            assert costs["r2"] == oracle_r2(t, p, FAST)
            assert costs["r3"] == oracle_r3(t, p)

    def test_no_state_carries_between_calls(self):
        # A, B, A gives A's bits twice, and the six orders run in reverse
        # give the same bits: each ordered visit's tree is its own.
        a = (triangle_from_angles(math.radians(50), math.radians(70)), Point2(0.4, 0.3))
        b = (poses.shape(1e-3, 0.3), Point2(0.5, 1e-4))
        first = oracle_costs(*a)
        oracle_costs(*b)
        again = oracle_costs(*a)
        assert {k: v.hex() for k, v in again.items()} == {k: v.hex() for k, v in first.items()}
        backwards = {o.value: oracle_ordered3(*a, o) for o in reversed(VisitOrder)}
        assert {k: v.hex() for k, v in backwards.items()} == {o.value: first[o.value].hex() for o in VisitOrder}

    def test_criterion_10_instances_keep_their_bits(self):
        # Every bit of the nine costs on the first 100 of criterion 10's
        # instances, as one SHA-256 of their hex: a pin beyond the poses of
        # oracle_golden.json, recorded before the seed pass was shared.
        instances = verify._random_instances(424242, 100)
        lines = (" ".join(v.hex() for v in oracle_costs(t, p).values()) for t, p in instances)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "ed4060ffd9a5af0e6ded6d65b29ac5ea68b5afd32d2c2afc5cf389246798b2cd"

    def test_certify_runs_each_order_once(self, ordered3_calls):
        p = Point2(0.4, 0.3)
        t = triangle_from_angles(math.radians(50), math.radians(70))
        closed = _nine_closed_costs(t, p)
        ordered3_calls.clear()
        deltas = certify_instance(t, p, closed, FAST)
        assert list(deltas) == list(closed)
        assert sorted(o.value for o in ordered3_calls) == sorted(o.value for o in VisitOrder)

    def test_eval_oracle_runs_each_order_once(self, ordered3_calls):
        t = triangle_from_angles(math.radians(70), math.radians(55))
        eval_report(t, Point2(0.5, 0.2), with_oracle=True)
        assert sorted(o.value for o in ordered3_calls) == sorted(o.value for o in VisitOrder)

    def test_unknown_key_raises_before_oracle_work(self, ordered3_calls):
        p = incenter(EQ)
        with pytest.raises(ValueError):
            certify_instance(EQ, p, {"r1": r1(EQ, p).cost, "r4": 1.0})
        assert ordered3_calls == []


class TestTwoOrderedOracle:
    def test_matches_closed_form(self, rng):
        for _ in range(60):
            t = random_triangle(rng)
            p = random_interior_point(rng, t)
            closed = visit_two_ordered(t, p, EdgeId.D, EdgeId.R).cost
            assert abs(oracle_two_ordered(t, p, EdgeId.D, EdgeId.R, FAST) - closed) < 1e-6


ORACLE_GOLDEN = json.loads((Path(__file__).parent / "data" / "oracle_golden.json").read_text())["instances"]


@pytest.mark.parametrize("golden", ORACLE_GOLDEN, ids=[g["what"] for g in ORACLE_GOLDEN])
def test_oracle_matches_golden(golden):
    # Bit for bit: any change to the oracle's arithmetic shows here.
    t = Triangle(*golden["vertices"])
    p = Point2(*golden["point"])
    for label, cfg in (("default", DEFAULT_CONFIG), ("fast", FAST)):
        want = dict(golden[label])
        pairs = want.pop("two_ordered", None)
        assert {k: v.hex() for k, v in oracle_costs(t, p, cfg).items()} == want
        if pairs is not None:
            got = {e1.value + e2.value: oracle_two_ordered(t, p, e1, e2, cfg).hex() for e1, e2 in permutations(EdgeId, 2)}
            assert got == pairs
