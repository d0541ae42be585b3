"""Plan-level dissociation bounds: soundness, exactness, engine parity."""

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.plan import left_deep_plan
from repro.db import ProbabilisticDatabase, brute_force_answer_probabilities
from repro.dissociation import DissociationEvaluator, dissociation_bounds
from repro.enclosure import Enclosure
from repro.query.grounding import answers_in_world
from repro.query.parser import parse_query

from tests.conftest import make_rst_database, oracle_probability

Q_RST = parse_query("q() :- R(x), S(x,y), T(y)")
Q_HEAD = parse_query("q(x) :- R(x), S(x,y), T(y)")


def answer_oracle(query, db):
    return brute_force_answer_probabilities(
        db, lambda w: answers_in_world(query, w)
    )


class TestBounds:
    def test_interval_arithmetic(self):
        b = Enclosure(0.2, 0.6, "dissociation", False)
        assert b.width == pytest.approx(0.4)
        assert b.midpoint == pytest.approx(0.4)
        assert b.contains(0.2) and b.contains(0.6)
        assert not b.contains(0.7)
        assert b.contains(0.6 + 1e-10)  # tolerance absorbs float noise

    def test_missing_row_is_trivially_enclosed(self):
        db = ProbabilisticDatabase()
        db.add_relation("R", ("A",), {(1,): 0.5})
        res = DissociationEvaluator(db).evaluate_query(
            parse_query("q(x) :- R(x)")
        )
        unknown = Enclosure(0.0, 1.0, "dissociation", False)
        assert res.interval((99,)) == unknown


class TestSoundness:
    def test_running_example_enclosure(self):
        from tests.core.test_executor import sec42_database

        db = sec42_database()
        exact = oracle_probability(Q_RST, db)
        res = DissociationEvaluator(db).evaluate_query(Q_RST, ["R", "S", "T"])
        assert not res.exact  # the Sec. 4.2 instance shares tuples
        assert res.dissociated > 0
        assert res.interval(()).contains(exact)

    def test_random_instances_boolean_and_headed(self, rng):
        for _ in range(25):
            db = make_rst_database(rng)
            exact = oracle_probability(Q_RST, db)
            res = dissociation_bounds(db, Q_RST, ["R", "S", "T"])
            assert res.interval(()).contains(exact), (dict(db["S"].items()))
            per_answer = answer_oracle(Q_HEAD, db)
            headed = dissociation_bounds(db, Q_HEAD, ["R", "S", "T"])
            for row, p in per_answer.items():
                assert headed.interval(row).contains(p)

    def test_data_safe_instance_is_exact(self):
        # One join partner per tuple: nothing dissociates, zero width.
        db = ProbabilisticDatabase()
        db.add_relation("R", ("A",), {(1,): 0.4, (2,): 0.6})
        db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (2, 2): 0.7})
        db.add_relation("T", ("B",), {(1,): 0.9, (2,): 0.8})
        exact = oracle_probability(Q_RST, db)
        res = dissociation_bounds(db, Q_RST, ["R", "S", "T"])
        assert res.exact and res.dissociated == 0
        assert res.max_width == 0.0
        b = res.interval(())
        assert b.lower == pytest.approx(exact, abs=1e-12)

    def test_deterministic_shared_tuples_stay_exact(self):
        # p = 1 tuples are exempt from dissociation (Prop. 3.2's exemption):
        # sharing them is harmless and must not widen the interval.
        db = ProbabilisticDatabase()
        db.add_relation("R", ("A",), {(1,): 1.0})
        db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
        db.add_relation("T", ("B",), {(1,): 1.0, (2,): 1.0})
        exact = oracle_probability(Q_RST, db)
        res = dissociation_bounds(db, Q_RST, ["R", "S", "T"])
        b = res.interval(())
        assert b.contains(exact)
        assert b.width == pytest.approx(0.0, abs=1e-12)


class TestComparisons:
    def test_filtered_plan_enclosure(self, rng):
        query = parse_query("q(x) :- R(x), S(x,y), T(y), y < 2")
        for _ in range(10):
            db = make_rst_database(rng)
            per_answer = answer_oracle(query, db)
            res = dissociation_bounds(db, query, ["R", "S", "T"])
            for row, p in per_answer.items():
                assert res.interval(row).contains(p)


class TestAgainstEvaluator:
    def test_bounds_enclose_pl_inference(self, rng):
        # Independent cross-check: the pL evaluator's exact answers must sit
        # inside the enclosures of the same plan.
        for _ in range(10):
            db = make_rst_database(rng)
            plan = left_deep_plan(Q_HEAD, ["R", "S", "T"])
            exact = PartialLineageEvaluator(db).evaluate(
                plan
            ).answer_probabilities()
            res = DissociationEvaluator(db).evaluate(plan)
            for row, p in exact.items():
                assert res.interval(row).contains(p)
