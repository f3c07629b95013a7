import json
import math
from itertools import permutations
from pathlib import Path

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
        # One memo per ordered visit, shared by every t1 and both configs as
        # in oracle_ordered3: the inline section and the t1 objective give the
        # closure's bits, slivers, edge and vertex points included.
        t1s = [k / 12 for k in range(13)] + [1.0 - oracle._INV_PHI, oracle._INV_PHI]
        for inst in batch:
            std, sim = inst.t.standard()
            ps = sim.apply(inst.t.require_inside(inst.q))
            for order in VisitOrder:
                row = oracle._ordered3_row(std, ps, order)
                bounces = oracle._SecondBounces(row)
                for cfg in (DEFAULT_CONFIG, FAST):
                    for t1 in t1s:
                        got = oracle._min_second(row, bounces, t1, cfg.tol)
                        want = oracle._golden_min(oracle._fix_first(row, t1), 0.0, 1.0, cfg.tol)
                        assert [v.hex() for v in got] == [v.hex() for v in want], (order, cfg, t1)
                for t1, t2 in zip(t1s, reversed(t1s)):
                    got = oracle._fix_second(row, bounces[t2])(t1)
                    assert got.hex() == oracle._fix_first(row, t1)(t2).hex(), (order, t1, t2)

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
        # give the same bits: each ordered visit's memo is its own.
        a = (triangle_from_angles(math.radians(50), math.radians(70)), Point2(0.4, 0.3))
        b = (poses.shape(1e-3, 0.3), Point2(0.5, 1e-4))
        first = oracle_costs(*a)
        oracle_costs(*b)
        again = oracle_costs(*a)
        assert {k: v.hex() for k, v in again.items()} == {k: v.hex() for k, v in first.items()}
        backwards = {o.value: oracle_ordered3(*a, o) for o in reversed(VisitOrder)}
        assert {k: v.hex() for k, v in backwards.items()} == {o.value: first[o.value].hex() for o in VisitOrder}

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
