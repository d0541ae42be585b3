"""Property-based dissociation soundness across all three backends.

Reuses the random self-join-free query and random tuple-independent
instance strategies: on every draw the dissociation enclosure must contain
the exact probability of every answer — for the columnar fold, the
row-at-a-time fold, and the pure-SQL fold — and the bounds-first top-k
certifier must return exactly the ranking the exact-all evaluation gives.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.executor import PartialLineageEvaluator
from repro.core.plan import left_deep_plan
from repro.dissociation import (
    DissociationEvaluator,
    certified_top_k,
    dissociation_bounds,
)
from repro.sqlbackend import SQLitePartialLineageEvaluator

from tests.property.test_random_queries import (
    random_instances,
    random_queries,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def exact_answers(db, query):
    return PartialLineageEvaluator(db).evaluate_query(
        query
    ).answer_probabilities()


@given(random_queries(), random_instances())
@SETTINGS
def test_bounds_enclose_exact_in_memory(query, db):
    exact = exact_answers(db, query)
    res = dissociation_bounds(db, query)
    for row, p in exact.items():
        assert res.interval(row).contains(p), (str(query), row)


@given(random_queries(), random_instances())
@SETTINGS
def test_bounds_enclose_exact_in_sql(query, db):
    ev = SQLitePartialLineageEvaluator(db)
    try:
        if not ev.storage.has_math_functions():
            pytest.skip("sqlite build lacks EXP/LN/POWER")
        sql = ev.dissociated_bounds_query(query)
    finally:
        ev.close()
    exact = exact_answers(db, query)
    for row, p in exact.items():
        assert sql.interval(row).contains(p), (str(query), row)
    col = dissociation_bounds(db, query)
    assert set(sql.bounds) == set(col.bounds), str(query)
    assert sql.dissociated == col.dissociated, str(query)
    for key, b in col.bounds.items():
        other = sql.bounds[key]
        assert other.lower == pytest.approx(b.lower, abs=1e-9), str(query)
        assert other.upper == pytest.approx(b.upper, abs=1e-9), str(query)


@given(random_queries(), random_instances(), st.integers(1, 3))
@SETTINGS
def test_certified_topk_matches_exact_ranking(query, db, k):
    plan = left_deep_plan(query)
    result = PartialLineageEvaluator(db).evaluate(plan)
    bounds = DissociationEvaluator(db).evaluate(plan)
    exact = result.answer_probabilities()
    cert = certified_top_k(result, bounds, k)
    expected = sorted(exact.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    assert [a.row for a in cert.answers] == [r for r, _ in expected], (
        str(query)
    )
    for answer, (_, p) in zip(cert.answers, expected):
        assert answer.probability == pytest.approx(p, abs=1e-9), str(query)
    assert cert.refined + cert.certified_out == cert.total_answers
