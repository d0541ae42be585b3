"""Timed evaluation wrappers for the competing methods.

Every wrapper returns a :class:`MethodResult` carrying the per-answer
probabilities, wall-clock seconds, and method-specific work counters, so the
benchmark scripts can both assert agreement between methods and print the
paper-shaped comparison rows.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.core.executor import PartialLineageEvaluator
from repro.db.database import ProbabilisticDatabase
from repro.db.schema import Row
from repro.errors import InferenceError
from repro.lineage.dnf import answer_lineages
from repro.lineage.exact import DPLLStats, dnf_probability
from repro.lineage.sampling import karp_luby
from repro.perf.cache import SubformulaCache
from repro.sqlbackend.executor import SQLitePartialLineageEvaluator
from repro.workload.queries import BenchmarkQuery


@dataclass
class MethodResult:
    """Outcome of one timed evaluation."""

    method: str
    answers: dict[Row, float]
    seconds: float
    #: Number of conditioned (offending) tuples — partial lineage only.
    offending: int = 0
    #: Network size — partial lineage only.
    network_nodes: int = 0
    #: Exact-solver work — full lineage only: DPLL recursion calls, and
    #: variables summed out where the lineage was narrow enough to eliminate.
    dpll_calls: int = 0
    eliminated: int = 0
    #: True when the method hit its work budget and gave up.
    timed_out: bool = False
    #: Sampling throughput (drawn samples per wall-clock second) — sampling
    #: methods only.
    samples_per_sec: float = 0.0
    #: Shared-subformula cache hit-rate — cache-backed exact methods only.
    cache_hit_rate: float | None = None
    extra: dict = field(default_factory=dict)

    def work_counters(self) -> dict:
        """The per-method counters, JSON-shaped (zero/None entries dropped)."""
        counters: dict = {
            "seconds": self.seconds,
            "answers": len(self.answers),
        }
        if self.offending:
            counters["offending"] = self.offending
        if self.network_nodes:
            counters["network_nodes"] = self.network_nodes
        if self.dpll_calls:
            counters["dpll_calls"] = self.dpll_calls
        if self.eliminated:
            counters["eliminated"] = self.eliminated
        if self.samples_per_sec:
            counters["samples_per_sec"] = self.samples_per_sec
        if self.cache_hit_rate is not None:
            counters["cache_hit_rate"] = self.cache_hit_rate
        if self.timed_out:
            counters["timed_out"] = True
        counters.update(self.extra)
        return counters


def run_partial_lineage(
    db: ProbabilisticDatabase,
    bench: BenchmarkQuery,
    max_calls: int = 2_000_000,
    inference: str = "auto",
    workers: int | None = None,
) -> MethodResult:
    """This paper's method: pL evaluation + And-Or network inference.

    *max_calls* bounds the final-inference DPLL exactly like the competitor's
    budget in :func:`run_full_lineage`, keeping comparisons symmetric.
    *inference* selects the final-inference path (see
    :meth:`~repro.core.executor.EvaluationResult.answer_probabilities`);
    *workers* the process-pool size for component-parallel inference
    (``None`` stays in-process).
    """
    start = time.perf_counter()
    result = PartialLineageEvaluator(db, workers=workers).evaluate_query(
        bench.query, list(bench.join_order)
    )
    try:
        answers = result.answer_probabilities(
            engine=inference, dpll_max_calls=max_calls
        )
        timed_out = False
    except InferenceError:
        answers = {}
        timed_out = True
    seconds = time.perf_counter() - start
    method = "partial-lineage" if workers is None else f"partial-lineage-w{workers}"
    return MethodResult(
        method,
        answers,
        seconds,
        offending=result.offending_count,
        network_nodes=len(result.network),
        timed_out=timed_out,
    )


def run_partial_lineage_sqlite(
    db: ProbabilisticDatabase, bench: BenchmarkQuery
) -> MethodResult:
    """Partial lineage with the extensional work pushed into SQLite."""
    evaluator = SQLitePartialLineageEvaluator(db)
    try:
        start = time.perf_counter()
        result = evaluator.evaluate_query(bench.query, list(bench.join_order))
        try:
            answers = result.answer_probabilities()
            timed_out = False
        except InferenceError:
            answers = {}
            timed_out = True
        seconds = time.perf_counter() - start
    finally:
        evaluator.close()
    return MethodResult(
        "partial-lineage-sqlite",
        answers,
        seconds,
        offending=result.offending_count,
        network_nodes=len(result.network),
        timed_out=timed_out,
    )


def run_full_lineage(
    db: ProbabilisticDatabase,
    bench: BenchmarkQuery,
    max_calls: int = 2_000_000,
    cache: SubformulaCache | None = None,
) -> MethodResult:
    """The MayBMS-style competitor: ground full lineage, solve each DNF exactly.

    Passing a shared :class:`~repro.perf.SubformulaCache` lets the N
    per-answer solves reuse each other's subformula probabilities; the
    result then carries the cache's hit-rate and counters.
    """
    start = time.perf_counter()
    dnfs, probs = answer_lineages(bench.query, db)
    answers: dict[Row, float] = {}
    stats = DPLLStats()
    calls = eliminated = 0
    timed_out = False
    for answer, dnf in dnfs.items():
        try:
            answers[answer] = dnf_probability(
                dnf, probs, max_calls=max_calls, stats=stats, cache=cache
            )
        except InferenceError:
            timed_out = True
            break
        calls += stats.calls
        eliminated += stats.eliminated
    seconds = time.perf_counter() - start
    result = MethodResult(
        "full-lineage-dpll",
        answers,
        seconds,
        dpll_calls=calls,
        eliminated=eliminated,
        timed_out=timed_out,
    )
    if cache is not None:
        result.cache_hit_rate = cache.stats.hit_rate
        result.extra["cache"] = cache.stats.as_dict()
    return result


def run_sampling(
    db: ProbabilisticDatabase,
    bench: BenchmarkQuery,
    samples: int = 5000,
    seed: int = 0,
    method: str = "auto",
) -> MethodResult:
    """Approximate baseline: Karp-Luby on the full lineage of every answer.

    *seed* always feeds a fresh generator, so benchmark runs never fall back
    to an unseeded ``random.Random()``; *method* picks the vectorized or
    scalar estimator (see :func:`repro.lineage.sampling.karp_luby`).
    """
    rng = random.Random(seed)
    start = time.perf_counter()
    dnfs, probs = answer_lineages(bench.query, db)
    answers = {
        answer: karp_luby(dnf, probs, samples, rng, method=method)
        for answer, dnf in dnfs.items()
    }
    seconds = time.perf_counter() - start
    drawn = samples * len(dnfs)
    return MethodResult(
        "karp-luby",
        answers,
        seconds,
        samples_per_sec=drawn / seconds if seconds > 0 else 0.0,
        extra={"samples": samples, "method": method},
    )


def agreement(a: MethodResult, b: MethodResult, tolerance: float = 1e-6) -> bool:
    """Do two exact methods produce the same answers (within float noise)?"""
    if set(a.answers) != set(b.answers):
        return False
    return all(abs(a.answers[k] - b.answers[k]) <= tolerance for k in a.answers)
