"""Tests for the plan optimiser (Section 8's open problem)."""

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.inference import induced_width
from repro.core.optimizer import (
    PlanChoice,
    choose_join_order,
    connected_prefix_orders,
    cost_order,
)
from repro.core.plan import left_deep_plan
from repro.db import ProbabilisticDatabase
from repro.errors import PlanError
from repro.query.parser import parse_query
from repro.workload.generator import WorkloadParams, generate_database
from repro.workload.queries import TABLE1_QUERIES

from tests.conftest import make_rst_database, oracle_probability
from tests.core.test_explain import constant_scan_db


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
    # the count is over the scans' output: ``R(x, 1)`` leaves S's tuple
    # one partner, so nothing is conditioned
    q = parse_query("q() :- S(x), R(x,1)")
    assert cost_order(q, constant_scan_db(), ("S", "R")).offending == 0


def test_choose_join_order_avoids_conditioning(db):
    q = parse_query("R(x), S(x,y), T(y)")
    choice = choose_join_order(q, db)
    assert choice.offending == 0
    assert choice.network_nodes == 1


def test_chosen_order_plan_is_correct(rng):
    q = parse_query("R(x), S(x,y), T(y)")
    for _ in range(10):
        db = make_rst_database(rng)
        plan = left_deep_plan(q, list(choose_join_order(q, db).order))
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
        assert chosen.offending == min(
            cost_order(q, db, o).offending for o in connected_prefix_orders(q)
        )


def test_max_orders_cap(db):
    q = parse_query("R(x), S(x,y), T(y)")
    choice = choose_join_order(q, db, max_orders=1)
    # only the first enumerated order is costed — still a valid choice
    assert choice.order in set(connected_prefix_orders(q))


@pytest.mark.parametrize("max_orders", [0, -1])
def test_no_order_to_cost_is_a_plan_error(db, max_orders):
    q = parse_query("R(x), S(x,y), T(y)")
    with pytest.raises(PlanError, match="no left-deep order"):
        choose_join_order(q, db, max_orders=max_orders)


def first_minimum(query, db) -> PlanChoice:
    """The reference search: full cost of every order, first minimum wins."""
    best = None
    for order in connected_prefix_orders(query):
        choice = cost_order(query, db, order)
        if best is None or choice.cost < best.cost:
            best = choice
    return best


def test_choice_is_first_minimum_of_full_costs(rng):
    q = parse_query("R(x), S(x,y), T(y)")
    for _ in range(10):
        db = make_rst_database(rng)
        assert choose_join_order(q, db) == first_minimum(q, db)


@pytest.mark.parametrize("name", ["P2", "S2"])
def test_choice_is_first_minimum_among_ties(name):
    db = generate_database(WorkloadParams(N=2, m=30, r_f=0.3))
    q = TABLE1_QUERIES[name].query
    counts = [cost_order(q, db, o).offending for o in connected_prefix_orders(q)]
    assert counts.count(min(counts)) >= 2  # the instance has tied orders
    assert choose_join_order(q, db) == first_minimum(q, db)


def test_width_is_computed_only_for_tied_orders(monkeypatch):
    db = generate_database(WorkloadParams(N=2, m=30, r_f=0.3))
    q = TABLE1_QUERIES["S2"].query
    choices = [cost_order(q, db, o) for o in connected_prefix_orders(q)]
    least = min(c.offending for c in choices)
    tied = [c for c in choices if c.offending == least]
    assert all(c.network_nodes > 1 for c in tied)
    assert len(tied) < len(choices)

    calls = []

    def counting_width(factors):
        calls.append(1)
        return induced_width(factors)

    monkeypatch.setattr("repro.core.optimizer.induced_width", counting_width)
    choose_join_order(q, db)
    assert len(calls) == len(tied)
