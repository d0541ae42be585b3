"""Plan-level dissociation bounds: soundness, exactness, engine parity."""

import sys
import threading

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.plan import Join, Project, Scan, Select, left_deep_plan
from repro.db import ProbabilisticDatabase, brute_force_answer_probabilities
from repro.dissociation import DissociationEvaluator, dissociation_bounds
from repro.enclosure import Enclosure
from repro.query.grounding import answers_in_world
from repro.query.parser import parse_query
from repro.query.syntax import Variable
from repro.sqlbackend import SQLitePartialLineageEvaluator

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


class TestSharedScanAgainstSQL:
    """The scan/select paths the fold shares with the pL kernels, checked
    against the pure-SQL fold: same answers in the same shape, same split
    count, bounds within 1e-9."""

    @staticmethod
    def db():
        db = ProbabilisticDatabase()
        db.add_relation("T", ("A",), {(0,): 0.5, (1,): 0.7})
        db.add_relation("R", ("A",), {(0,): 0.5, (1,): 0.6})
        db.add_relation(
            "S", ("A", "B"), {(0, 0): 0.5, (1, 1): 0.4, (0, 1): 0.3}
        )
        return db

    @staticmethod
    def plans():
        x, y = Variable("x"), Variable("y")
        r_s = Join(Scan("R", (y,)), Scan("S", (y, x)), ("y",))
        return {
            # T(0) binds only a constant: the first join's left input has no
            # attributes; S(y, y) repeats a variable.
            "attributeless-left": left_deep_plan(
                parse_query("q(y) :- T(0), R(y), S(y, y)")
            ),
            "absent-constant": left_deep_plan(
                parse_query("q(y) :- T(7), R(y), S(y, x)")
            ),
            "select-known": Project(Select(r_s, (("x", 1),)), ("y",)),
            "select-unknown": Project(Select(r_s, (("x", 42),)), ("y",)),
        }

    @pytest.mark.parametrize(
        "name",
        ["attributeless-left", "absent-constant", "select-known",
         "select-unknown"],
    )
    def test_matches_sql_fold(self, name):
        db = self.db()
        plan = self.plans()[name]
        sql = SQLitePartialLineageEvaluator(db)
        try:
            if not sql.storage.has_math_functions():
                pytest.skip("sqlite build lacks EXP/LN/POWER")
            expected = sql.dissociated_bounds(plan)
        finally:
            sql.close()
        res = DissociationEvaluator(db).evaluate(plan)
        assert set(res.bounds) == set(expected.bounds)
        assert res.dissociated == expected.dissociated
        for row, b in res.bounds.items():
            other = expected.bounds[row]
            assert b.lower == pytest.approx(other.lower, abs=1e-9)
            assert b.upper == pytest.approx(other.upper, abs=1e-9)
        if name.startswith("attributeless") or name == "select-known":
            assert res.bounds  # the shape under test produced answers
        else:
            assert not res.bounds


class TestReentrancy:
    def test_concurrent_calls_share_one_evaluator(self):
        """Threads sharing one cold evaluator (and so one scan cache and
        interner) get exactly the answers and split counts of a private
        evaluator per plan."""
        db = ProbabilisticDatabase()
        db.add_relation("R", ("A",), {(a,): 0.2 + 0.1 * a for a in range(6)})
        db.add_relation("S", ("A", "B"), {
            (a, b): 0.3 + 0.05 * b for a in range(6) for b in range(5)
            if (a + b) % 3
        })
        db.add_relation("T", ("B",), {(b,): 0.9 - 0.1 * b for b in range(5)})
        plans = [
            left_deep_plan(query, order)
            for query in (Q_RST, Q_HEAD)
            for order in (["R", "S", "T"], ["T", "S", "R"])
        ]
        expected = [DissociationEvaluator(db).evaluate(p) for p in plans]
        assert any(e.dissociated for e in expected)
        shared = DissociationEvaluator(db)
        failures = []

        def worker(offset: int) -> None:
            for i in range(40):
                k = (offset + i) % len(plans)
                res = shared.evaluate(plans[k])
                if (
                    list(res.bounds.items()) != list(expected[k].bounds.items())
                    or res.dissociated != expected[k].dissociated
                ):
                    failures.append((k, res.dissociated))

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
