"""Numerical hygiene of the ``1 - Π(1-p)`` projection fold (both engines).

The fold must never leave ``[0, 1]``: a probability of ``1 + 1e-17`` fails
:meth:`PLRelation.add`'s range check and would otherwise poison every
inference downstream, and a non-empty OR folded to exactly 0 fails it too.
The columnar kernels fold in log space through ``log1p``/``expm1``, the
SQLite backend through ``1 - EXP(SUM(LN(1 - p)))`` — both are exercised on
the adversarial inputs (many near-1 factors, many subnormal-tiny factors,
exact 1.0) where float rounding gets closest to the boundary.
"""

import random

import pytest

from repro.core.columnar import (
    ValueInterner,
    from_plrelation,
    independent_project,
)
from repro.core.executor import PartialLineageEvaluator
from repro.core.network import EPSILON, AndOrNetwork
from repro.core.plrelation import PLRelation
from repro.db import ProbabilisticDatabase
from repro.query.parser import parse_query
from repro.sqlbackend import SQLitePartialLineageEvaluator

NASTY_PROBS = [
    [1.0 - 1e-16] * 60,
    [0.9999999999999999] * 40 + [1e-300] * 10,
    [5e-324] * 50,                      # subnormals: log1p/expm1 edge
    [1.0, 0.5, 1.0 - 1e-16],
    [random.Random(8).uniform(0.99, 1.0) for _ in range(50)],
]


def row_fold(probs: list[float]) -> float:
    net = AndOrNetwork()
    rel = PLRelation(("A", "B"), net)
    for i, p in enumerate(probs):
        rel.add((1, i), EPSILON, p)
    projected = independent_project(
        from_plrelation(rel, ValueInterner()), ("A",)
    )
    assert len(projected.probs) == 1
    return float(projected.probs[0])


@pytest.mark.parametrize("probs", NASTY_PROBS)
def test_row_fold_stays_in_unit_interval(probs):
    p = row_fold(probs)
    assert 0.0 <= p <= 1.0


@pytest.mark.parametrize("probs", NASTY_PROBS)
def test_engines_agree_on_nasty_folds(probs):
    db = ProbabilisticDatabase()
    db.add_relation(
        "R", ("A", "B"), {(1, i): p for i, p in enumerate(probs)}
    )
    q = parse_query("q(x) :- R(x,y)")
    sql = SQLitePartialLineageEvaluator(db)
    try:
        by_engine = {
            "columnar": PartialLineageEvaluator(db).evaluate_query(q),
            "sqlite": sql.evaluate_query(q),
        }
    finally:
        sql.close()
    answers = {k: r.answer_probabilities() for k, r in by_engine.items()}
    for engine_answers in answers.values():
        for p in engine_answers.values():
            assert 0.0 < p <= 1.0
    assert answers["sqlite"] == pytest.approx(answers["columnar"])


def test_fold_of_a_deterministic_member_is_one():
    assert row_fold([1.0, 0.3, 0.7]) == 1.0
