"""Property-based columnar-vs-SQLite engine equivalence.

Reuses the random conjunctive-query and random tuple-independent-instance
strategies of :mod:`tests.property.test_random_queries` and asserts the two
pL engines — the NumPy kernels of :mod:`repro.core.columnar` and the SQLite
backend of :mod:`repro.sqlbackend` — agree: the same answer set, answers
within 1e-12, the same offending-tuple count and the same network size —
also under random join orders. The SQLite backend shares no operator code
with the kernels, so it is an independent oracle; possible-worlds
enumeration (``test_random_query_matches_possible_worlds``) stays the
semantic one.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.executor import PartialLineageEvaluator
from repro.core.network import NodeKind
from repro.core.plan import left_deep_plan
from repro.db import ProbabilisticDatabase
from repro.query import parse_query
from repro.sqlbackend import SQLitePartialLineageEvaluator

from tests.property.test_random_queries import (
    random_instances,
    random_queries,
)

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def assert_same_networks(res_a, res_b, context=""):
    """Node-for-node identical networks, stats and provenance."""
    a, b = res_a.network, res_b.network
    assert len(a) == len(b), context
    for v in a.nodes():
        assert a.kind(v) == b.kind(v), (context, v)
        if a.kind(v) == NodeKind.LEAF:
            assert a.leaf_probability(v) == pytest.approx(
                b.leaf_probability(v), abs=1e-12
            ), (context, v)
        else:
            pa, pb = a.parents(v), b.parents(v)
            assert [p for p, _ in pa] == [p for p, _ in pb], (context, v)
            for (_, qa), (_, qb) in zip(pa, pb):
                assert qa == pytest.approx(qb, abs=1e-12), (context, v)
    assert [
        (s.operator, s.output_size, s.conditioned) for s in res_a.stats
    ] == [(s.operator, s.output_size, s.conditioned) for s in res_b.stats], (
        context
    )
    assert [
        (o.source, o.row, o.node) for o in res_a.conditioned_tuples
    ] == [(o.source, o.row, o.node) for o in res_b.conditioned_tuples], (
        context
    )
    assert_same_answers(res_a, res_b, context)


def assert_same_answers(res_a, res_b, context=""):
    assert res_a.offending_count == res_b.offending_count, context
    assert len(res_a.network) == len(res_b.network), context
    aa = res_a.answer_probabilities()
    ab = res_b.answer_probabilities()
    assert set(aa) == set(ab), context
    for k in aa:
        assert ab[k] == pytest.approx(aa[k], abs=1e-12), (context, k)


def _sqlite(db, plan):
    ev = SQLitePartialLineageEvaluator(db)
    try:
        return ev.evaluate(plan)
    finally:
        ev.close()


def _attributeless_left_instance() -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    db.add_relation("T", ("A",), {(0,): 0.5, (1,): 0.7})
    db.add_relation("R", ("A",), {(0,): 0.5, (1,): 0.6})
    db.add_relation("S", ("A", "B"), {(0, 0): 0.5, (1, 1): 0.4, (0, 1): 0.3})
    return db


@given(random_queries(), random_instances())
# T(0) binds only a constant, so the first join's left input has no
# attributes (the SQLite backend once emitted ``SELECT , ...`` for it).
@example(
    parse_query("q(y) :- T(0), R(y), S(y, y)"), _attributeless_left_instance()
)
@SETTINGS
def test_engines_agree_on_random_plans(query, db):
    plan = left_deep_plan(query)
    res_col = PartialLineageEvaluator(db).evaluate(plan)
    assert_same_answers(res_col, _sqlite(db, plan), str(query))


@given(random_queries(), random_instances(), st.randoms(use_true_random=False))
@SETTINGS
def test_engines_agree_on_random_join_orders(query, db, rng):
    order = [a.relation for a in query.atoms]
    rng.shuffle(order)
    plan = left_deep_plan(query, order)
    res_col = PartialLineageEvaluator(db).evaluate(plan)
    assert_same_answers(res_col, _sqlite(db, plan), f"{query} order={order}")


@given(random_queries(), random_instances())
@SETTINGS
def test_columnar_reevaluation_is_cached_and_stable(query, db):
    """Two evaluations through one evaluator (warm base-encode cache) build
    the same network as a fresh evaluator."""
    evaluator = PartialLineageEvaluator(db)
    first = evaluator.evaluate_query(query)
    second = evaluator.evaluate_query(query)
    assert_same_networks(first, second, str(query))
