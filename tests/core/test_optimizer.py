"""Tests for the plan optimiser (Section 8's open problem)."""

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.optimizer import (
    choose_join_order,
    connected_prefix_orders,
    cost_order,
    optimized_plan,
)
from repro.db import ProbabilisticDatabase
from repro.query.parser import parse_query

from tests.conftest import make_rst_database, oracle_probability


@pytest.fixture
def db() -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5})
    db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
    db.add_relation("T", ("B",), {(1,): 1.0, (2,): 1.0})
    return db


def test_connected_prefix_orders():
    q = parse_query("R(x), S(x,y), T(y)")
    orders = list(connected_prefix_orders(q))
    assert ("R", "S", "T") in orders
    assert ("S", "T", "R") in orders
    assert ("R", "T", "S") not in orders  # R, T share no variable


def test_head_variables_do_not_connect():
    q = parse_query("q(h) :- R1(h,x), S1(h,x,y), R2(h,y)")
    orders = list(connected_prefix_orders(q))
    assert ("R1", "R2", "S1") not in orders


def test_disconnected_query_falls_back_to_permutations():
    q = parse_query("R(x), T(y)")
    orders = list(connected_prefix_orders(q))
    assert sorted(orders) == [("R", "T"), ("T", "R")]


def test_cost_order(db):
    q = parse_query("R(x), S(x,y), T(y)")
    bad = cost_order(q, db, ("R", "S", "T"))
    good = cost_order(q, db, ("S", "T", "R"))
    assert bad.offending == 1
    assert good.offending == 0
    assert good.cost < bad.cost


def test_choose_join_order_avoids_conditioning(db):
    q = parse_query("R(x), S(x,y), T(y)")
    choice = choose_join_order(q, db)
    assert choice.offending == 0
    assert choice.network_nodes == 1


def test_optimized_plan_is_correct(rng):
    q = parse_query("R(x), S(x,y), T(y)")
    for _ in range(10):
        db = make_rst_database(rng)
        plan = optimized_plan(q, db)
        result = PartialLineageEvaluator(db).evaluate(plan)
        assert result.boolean_probability() == pytest.approx(
            oracle_probability(q, db)
        )


def test_optimizer_never_worse_than_paper_order(rng):
    q = parse_query("R(x), S(x,y), T(y)")
    for _ in range(10):
        db = make_rst_database(rng)
        chosen = choose_join_order(q, db)
        fixed = cost_order(q, db, ("R", "S", "T"))
        assert chosen.cost <= fixed.cost


def test_max_orders_cap(db):
    q = parse_query("R(x), S(x,y), T(y)")
    choice = choose_join_order(q, db, max_orders=1)
    # only the first enumerated order is costed — still a valid choice
    assert choice.order in set(connected_prefix_orders(q))


def test_estimate_mode_first_join_exact(db):
    """For the first join the estimate equals the exact conditioning count."""
    from repro.core.optimizer import estimate_order

    q = parse_query("R(x), S(x,y), T(y)")
    for order in (("R", "S", "T"), ("S", "T", "R"), ("T", "S", "R")):
        est = estimate_order(q, db, order)
        exact = cost_order(q, db, order)
        # estimate may over- or under-charge later joins, but a zero-offending
        # exact order must also estimate (near-)zero for its first join
        if exact.offending == 0:
            assert est.offending == 0, order


def test_estimate_mode_first_join_honours_scan_constants():
    """The first join is costed over the scans' output: ``R(x, 1)`` gives
    S's tuple one partner, so nothing is conditioned there."""
    from repro.core.optimizer import estimate_order
    from tests.core.test_explain import constant_scan_db

    db = constant_scan_db()
    q = parse_query("q() :- S(x), R(x,1)")
    assert cost_order(q, db, ("S", "R")).offending == 0
    assert estimate_order(q, db, ("S", "R")).offending == 0


def test_estimate_mode_choice_is_reasonable(db, rng):
    q = parse_query("R(x), S(x,y), T(y)")
    fast = choose_join_order(q, db, mode="estimate")
    exact = choose_join_order(q, db, mode="evaluate")
    # the estimate-chosen order, costed exactly, is never a disaster: within
    # the worst exact order's cost
    from repro.core.optimizer import connected_prefix_orders

    exact_costs = {
        tuple(o): cost_order(q, db, tuple(o)).offending
        for o in connected_prefix_orders(q)
    }
    assert exact_costs[fast.order] <= max(exact_costs.values())
    assert exact_costs[exact.order] == min(exact_costs.values())


def test_unknown_mode_rejected(db):
    from repro.errors import PlanError

    q = parse_query("R(x), S(x,y), T(y)")
    with pytest.raises(PlanError, match="mode"):
        choose_join_order(q, db, mode="magic")
