"""Chaos suite: deterministic fault injection against the resilient pool.

Every scenario asserts the two resilience invariants: (1) an outcome comes
back for *every* requested node no matter which workers die, and (2) the
outcome's enclosure contains — or, when exact, equals — the serial-oracle
probability.
"""

import random

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.inference import compute_marginals
from repro.db import ProbabilisticDatabase
from repro.errors import CapacityError
from repro.obs.metrics import MetricsRegistry
from repro.query.parser import parse_query
from repro.resilience.budget import QueryBudget
from repro.resilience.execute import resilient_marginals
from repro.resilience.faults import FAULT_KINDS, FaultPlan, FaultSpec, apply_fault

from tests.perf.test_parallel import multi_component_network


def assert_exact_and_matches(out, net, roots, tol=1e-12):
    oracle = compute_marginals(net, roots)
    for r in roots:
        assert out[r].exact, out[r]
        assert out[r].midpoint == pytest.approx(oracle[r], abs=tol), r


class TestFaultPlumbing:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor", chunk=0)

    def test_plan_matches_chunk_and_attempt(self):
        plan = FaultPlan((
            FaultSpec("capacity", chunk=1, attempts=(0, 1)),
            FaultSpec("nan", chunk=2),
        ))
        assert plan.for_chunk(1, 0).kind == "capacity"
        assert plan.for_chunk(1, 1).kind == "capacity"
        assert plan.for_chunk(1, 2) is None
        assert plan.for_chunk(2, 0).kind == "nan"
        assert plan.for_chunk(0, 0) is None
        assert bool(plan) and not bool(FaultPlan())

    def test_apply_fault_in_process_kinds(self):
        assert apply_fault(None) is False
        assert apply_fault(FaultSpec("nan", chunk=0)) is True
        with pytest.raises(CapacityError, match="injected"):
            apply_fault(FaultSpec("capacity", chunk=0))
        assert "crash" in FAULT_KINDS and "slow" in FAULT_KINDS


class TestChaosScenarios:
    """workers=2 fan-out with injected failures vs the serial oracle."""

    def _network(self, seed=51, components=6):
        return multi_component_network(random.Random(seed), components)

    def test_worker_crash_retries_and_matches_oracle(self):
        net, roots = self._network()
        registry = MetricsRegistry()
        out = resilient_marginals(
            net, roots, workers=2,
            fault_plan=FaultPlan((FaultSpec("crash", chunk=0),)),
            registry=registry,
        )
        assert_exact_and_matches(out, net, roots)
        assert registry.counter("pool.worker_crashes") >= 1
        assert registry.counter("pool.chunk_retries") >= 1

    def test_crash_on_every_attempt_requeues_to_serial(self):
        net, roots = self._network(52)
        registry = MetricsRegistry()
        out = resilient_marginals(
            net, roots, workers=2, max_retries=2,
            fault_plan=FaultPlan(
                (FaultSpec("crash", chunk=0, attempts=(0, 1)),)
            ),
            registry=registry,
        )
        assert_exact_and_matches(out, net, roots)
        assert registry.counter("pool.requeued_serial") >= 1

    def test_injected_capacity_error_heals_on_retry(self):
        net, roots = self._network(53)
        registry = MetricsRegistry()
        out = resilient_marginals(
            net, roots, workers=2,
            fault_plan=FaultPlan((
                FaultSpec("capacity", chunk=0),
                FaultSpec("capacity", chunk=1),
            )),
            registry=registry,
        )
        assert_exact_and_matches(out, net, roots)
        assert registry.counter("pool.chunk_failure.CapacityError") >= 2

    def test_nan_poisoning_is_detected_not_merged(self):
        net, roots = self._network(54)
        registry = MetricsRegistry()
        out = resilient_marginals(
            net, roots, workers=2,
            fault_plan=FaultPlan(
                (FaultSpec("nan", chunk=0, attempts=(0, 1)),)
            ),
            registry=registry,
        )
        assert_exact_and_matches(out, net, roots)
        assert registry.counter("pool.chunk_failure.poisoned_result") >= 1

    def test_slow_worker_times_out_and_requeues(self):
        net, roots = self._network(55, components=3)
        registry = MetricsRegistry()
        out = resilient_marginals(
            net, roots, workers=2, timeout=0.5, max_retries=1,
            chunks_per_worker=1,
            fault_plan=FaultPlan(
                (FaultSpec("slow", chunk=0, seconds=30.0),)
            ),
            registry=registry,
        )
        assert_exact_and_matches(out, net, roots)
        assert registry.counter("pool.timeouts") >= 1
        assert registry.counter("pool.requeued_serial") >= 1

    def test_crash_under_deadline_degrades_with_sound_enclosures(self):
        net, roots = self._network(56)
        oracle = compute_marginals(net, roots)
        out = resilient_marginals(
            net, roots, workers=2,
            budget=QueryBudget(deadline_seconds=0.0),
            fault_plan=FaultPlan((FaultSpec("crash", chunk=0),)),
        )
        for r in roots:
            assert out[r].degraded
            assert out[r].lower - 1e-9 <= oracle[r] <= out[r].upper + 1e-9

    def test_parallel_crash_matches_serial_run_exactly(self):
        """The satellite property: workers=2 plus an injected crash agrees
        with the serial resilient run bit-for-bit (same seed)."""
        net, roots = self._network(57)
        serial = resilient_marginals(net, roots, seed=7)
        parallel = resilient_marginals(
            net, roots, workers=2, seed=7,
            fault_plan=FaultPlan((FaultSpec("crash", chunk=1),)),
        )
        for r in roots:
            assert parallel[r].lower == serial[r].lower, r
            assert parallel[r].upper == serial[r].upper, r
            assert parallel[r].method == serial[r].method, r


class TestExecutorIntegration:
    @pytest.fixture
    def db(self) -> ProbabilisticDatabase:
        rng = random.Random(9)
        db = ProbabilisticDatabase()
        db.add_relation(
            "R", ("A", "B"),
            {(i, j): rng.uniform(0.2, 0.9) for i in range(6) for j in range(3)},
        )
        db.add_relation(
            "S", ("B",), {(j,): rng.uniform(0.2, 0.9) for j in range(3)}
        )
        return db

    def test_resilient_answers_match_exact_answers(self, db):
        result = PartialLineageEvaluator(db).evaluate_query(
            parse_query("q(x) :- R(x,y), S(y)")
        )
        exact = result.answer_probabilities()
        resilient = result.resilient_answer_probabilities(
            workers=2, fault_plan=FaultPlan((FaultSpec("crash", chunk=0),))
        )
        assert set(resilient) == set(exact)
        for row, answer in resilient.items():
            assert answer.exact
            assert answer.midpoint == pytest.approx(exact[row], abs=1e-12)

    def test_degraded_answers_enclose_exact_answers(self, db):
        result = PartialLineageEvaluator(db).evaluate_query(
            parse_query("q(x) :- R(x,y), S(y)")
        )
        exact = result.answer_probabilities()
        degraded = result.resilient_answer_probabilities(
            QueryBudget(deadline_seconds=0.0)
        )
        for row, answer in degraded.items():
            assert answer.degraded
            assert answer.contains(exact[row]), (row, answer)
