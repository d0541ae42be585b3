"""Tests for EXPLAIN and DOT export."""

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.explain import explain, network_to_dot, result_to_dot
from repro.core.network import AndOrNetwork, NodeKind
from repro.core.plan import left_deep_plan
from repro.db import ProbabilisticDatabase
from repro.errors import PlanError
from repro.query.parser import parse_query


@pytest.fixture
def db() -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5, (2,): 1.0})
    db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5, (2, 1): 0.5})
    db.add_relation("T", ("B",), {(1,): 0.5, (2,): 0.5})
    return db


def test_explain_structure():
    q = parse_query("R(x), S(x,y)")
    out = explain(left_deep_plan(q))
    assert out.splitlines()[0] == "π[∅]"
    assert "⋈[x]" in out
    assert "scan R(x)" in out and "scan S(x, y)" in out


def test_explain_annotations(db):
    q = parse_query("R(x), S(x,y), T(y)")
    plan = left_deep_plan(q, ["R", "S", "T"])
    out = explain(plan, db)
    # R(1) is uncertain with two S partners: predicted conditioning
    assert "1 left + 0 right" in out
    assert "3 tuples, 3 uncertain" in out  # the S scan
    # derived-input join can't be predicted statically
    assert "data-dependent" in out


def test_explain_data_safe_prediction():
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5})
    db.add_relation("S", ("A", "B"), {(1, 1): 0.5})
    q = parse_query("R(x), S(x,y)")
    out = explain(left_deep_plan(q), db)
    assert "data safe" in out
    # the prediction matches reality
    result = PartialLineageEvaluator(db).evaluate_query(q)
    assert result.is_data_safe


def test_explain_prediction_matches_first_join(db):
    """For base-scan joins the static prediction equals the executor's
    actual conditioning count on that join."""
    q = parse_query("R(x), S(x,y), T(y)")
    plan = left_deep_plan(q, ["R", "S", "T"])
    result = PartialLineageEvaluator(db).evaluate(plan)
    first_join = next(s for s in result.stats if "⋈" in s.operator)
    out = explain(plan, db)
    assert f"offending: {first_join.conditioned} left + 0 right" in out


def constant_scan_db() -> ProbabilisticDatabase:
    """``R(x, 1)`` keeps one of R's three rows, so S's tuple has one partner
    in the scan although it has two in the base relation."""
    db = ProbabilisticDatabase()
    db.add_relation("S", ("A",), {(1,): 0.5})
    db.add_relation("R", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5, (2, 2): 0.5})
    db.add_relation("T", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
    return db


def test_explain_counts_over_the_scans_output():
    db = constant_scan_db()
    plan = left_deep_plan(
        parse_query("q() :- S(x), R(x,1), T(x,y)"), ["S", "R", "T"]
    )
    result = PartialLineageEvaluator(db).evaluate(plan)
    first_join = next(s for s in result.stats if "⋈" in s.operator)
    assert first_join.conditioned == 0
    out = explain(plan, db)
    assert "⋈[x]   -- data safe (no offending tuples)" in out
    assert "scan R(x, 1)   -- 1 tuples, 1 uncertain" in out


def test_explain_validates_against_db(db):
    q = parse_query("R(x), S(x,y)")
    plan = left_deep_plan(q)
    other = ProbabilisticDatabase()
    other.add_relation("R", ("Z", "W"), {(1, 2): 0.5})
    with pytest.raises(PlanError):
        explain(plan, other)


def test_network_to_dot():
    net = AndOrNetwork()
    u = net.add_leaf(0.3)
    v = net.add_leaf(0.8)
    w = net.add_gate(NodeKind.OR, [(u, 0.5), (v, 1.0)])
    dot = network_to_dot(net, highlight={w})
    assert dot.startswith("digraph andor {")
    assert 'label="ε"' in dot
    assert "p=0.3" in dot
    assert "∨" in dot
    assert f"n{u} -> n{w} [label=\"0.5\"]" in dot
    assert f"n{v} -> n{w};" in dot  # deterministic edge, no label
    assert "style=bold" in dot


def test_result_to_dot(db):
    q = parse_query("R(x), S(x,y), T(y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])
    dot = result_to_dot(result)
    assert dot.count("style=bold") >= 1
    assert dot.endswith("}")
