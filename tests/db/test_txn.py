"""Buffered transactions: atomicity, snapshot isolation, hook discipline."""

import pytest

from repro.circuit import CircuitCache
from repro.core.executor import PartialLineageEvaluator
from repro.core.plan import left_deep_plan
from repro.db import ProbabilisticDatabase
from repro.errors import (
    ProbabilityError,
    SchemaError,
    TransactionConflictError,
    TransactionError,
)
from repro.query.parser import parse_query


@pytest.fixture
def db() -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5, (2,): 0.4})
    db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (2, 1): 0.9})
    return db


class TestBuffering:
    def test_uncommitted_writes_are_invisible(self, db):
        txn = db.begin()
        txn.insert("R", (3,), 0.25)
        txn.set_probability("R", (1,), 0.9)
        txn.delete("R", (2,))
        assert (3,) not in db["R"]
        assert db["R"].probability((1,)) == 0.5
        assert db["R"].probability((2,)) == 0.4

    def test_read_your_writes(self, db):
        txn = db.begin()
        txn.insert("R", (3,), 0.25)
        txn.delete("R", (2,))
        assert txn.probability("R", (3,)) == 0.25
        assert (2,) not in txn.relation("R")  # deleted in-txn
        assert txn.probability("R", (1,)) == 0.5  # untouched passthrough

    def test_commit_installs_everything_atomically(self, db):
        v0 = db.version
        with db.transaction() as txn:
            txn.insert("R", (3,), 0.25)
            txn.set_probability("S", (1, 1), 0.75)
        assert db["R"].probability((3,)) == 0.25
        assert db["S"].probability((1, 1)) == 0.75
        assert db.version > v0
        assert txn.state == "committed"

    def test_rollback_discards_everything(self, db):
        v0 = db.version
        txn = db.begin()
        txn.insert("R", (3,), 0.25)
        txn.rollback()
        assert (3,) not in db["R"]
        assert db.version == v0
        assert txn.state == "rolled_back"

    def test_context_manager_rolls_back_on_error(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                txn.insert("R", (3,), 0.25)
                raise RuntimeError("boom")
        assert txn.state == "rolled_back"
        assert (3,) not in db["R"]

    def test_eager_validation(self, db):
        txn = db.begin()
        with pytest.raises(ProbabilityError):
            txn.insert("R", (9,), 1.5)
        with pytest.raises(SchemaError):
            txn.insert("R", (1, 2), 0.5)  # arity mismatch
        with pytest.raises(SchemaError):
            txn.insert("Nope", (1,), 0.5)
        with pytest.raises(SchemaError):
            txn.set_probability("R", (99,), 0.5)  # row absent
        # The failed operations left nothing buffered.
        txn.commit()
        assert (9,) not in db["R"]

    def test_finished_txn_rejects_use(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("R", (3,), 0.5)
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.rollback()


class TestIsolationAndConflicts:
    def test_snapshot_keeps_pre_commit_state(self, db):
        snap = db.snapshot()
        with db.transaction() as txn:
            txn.set_probability("R", (1,), 0.99)
        assert snap["R"].probability((1,)) == 0.5
        assert db["R"].probability((1,)) == 0.99
        assert snap.version < db.version

    def test_first_committer_wins(self, db):
        t1 = db.begin()
        t2 = db.begin()
        t1.insert("R", (3,), 0.25)
        t2.insert("R", (4,), 0.25)
        t1.commit()
        with pytest.raises(TransactionConflictError):
            t2.commit()
        assert t2.state == "rolled_back"
        assert (4,) not in db["R"]

    def test_direct_mutation_also_conflicts(self, db):
        txn = db.begin()
        txn.insert("R", (3,), 0.25)
        db["R"].add((7,), 0.5)  # out-of-band write bumps the version
        with pytest.raises(TransactionConflictError):
            txn.commit()

    def test_disjoint_sequential_txns_both_land(self, db):
        with db.transaction() as t1:
            t1.insert("R", (3,), 0.25)
        with db.transaction() as t2:
            t2.insert("S", (3, 1), 0.25)
        assert db["R"].probability((3,)) == 0.25
        assert db["S"].probability((3, 1)) == 0.25


class TestHookDiscipline:
    def test_commit_fires_hooks_once_per_touched_relation(self, db):
        fired = []
        db["R"].subscribe(lambda name: fired.append(name))
        db["S"].subscribe(lambda name: fired.append(name))
        with db.transaction() as txn:
            txn.insert("R", (3,), 0.25)
            txn.set_probability("R", (1,), 0.9)  # same relation: still once
            txn.delete("S", (2, 1))
        assert sorted(fired) == ["R", "S"]

    def test_rollback_fires_no_hooks(self, db):
        fired = []
        db["R"].subscribe(lambda name: fired.append(name))
        txn = db.begin()
        txn.insert("R", (3,), 0.25)
        txn.rollback()
        assert fired == []

    def test_hooks_survive_relation_replacement(self, db):
        fired = []
        db["R"].subscribe(lambda name: fired.append(name))
        with db.transaction() as txn:
            txn.insert("R", (3,), 0.25)
        # The commit installed a NEW relation object carrying the old hooks.
        db["R"].add((8,), 0.5)
        assert fired == ["R", "R"]


class TestCacheInvalidation:
    """The satellite regression: rollbacks must leave warm caches intact."""

    def _evaluate(self, evaluator):
        plan = left_deep_plan(parse_query("q(a) :- R(a), S(a,b)"), ["R", "S"])
        return evaluator.evaluate(plan)

    def test_rollback_leaves_circuit_and_base_caches_intact(self, db):
        cache = CircuitCache()
        evaluator = PartialLineageEvaluator(db, circuit_cache=cache)
        self._evaluate(evaluator)
        base_cache = evaluator._scanner._cache
        entries = dict(base_cache)
        assert entries  # warm after one evaluation
        txn = db.begin()
        txn.insert("R", (3,), 0.25)
        txn.set_probability("S", (1, 1), 0.9)
        txn.rollback()
        assert all(base_cache[name] is e for name, e in entries.items())
        # Second evaluation over the unchanged db reuses the encodings.
        self._evaluate(evaluator)
        assert all(base_cache[name] is e for name, e in entries.items())

    def test_commit_defeats_stale_encodings(self, db):
        evaluator = PartialLineageEvaluator(db, circuit_cache=CircuitCache())
        before = self._evaluate(evaluator).answer_probabilities()
        with db.transaction() as txn:
            txn.set_probability("R", (1,), 0.9)
        # Commit installs a NEW relation object, so the base-encode cache
        # (keyed on the relation object and its version) misses instead of
        # serving the stale matrix: the warm evaluator must agree with a
        # cold one on the committed state.
        after = self._evaluate(evaluator).answer_probabilities()
        cold = self._evaluate(
            PartialLineageEvaluator(db)
        ).answer_probabilities()
        assert after == cold
        assert after != before

    def test_snapshot_evaluation_matches_pre_commit_answers(self, db):
        snap = db.snapshot()
        before = self._evaluate(
            PartialLineageEvaluator(snap)
        ).answer_probabilities()
        with db.transaction() as txn:
            txn.set_probability("R", (1,), 0.99)
            txn.insert("S", (1, 2), 0.5)
        after_snap = self._evaluate(
            PartialLineageEvaluator(snap)
        ).answer_probabilities()
        assert after_snap == before  # the snapshot never moved
        after_db = self._evaluate(
            PartialLineageEvaluator(db)
        ).answer_probabilities()
        assert after_db != before
