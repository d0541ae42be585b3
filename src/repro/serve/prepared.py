"""Prepared statements: parse once, keep every warm cache, serve many.

A :class:`PreparedQuery` is the unit the daemon amortises work over. At
prepare time it parses the query text, (optionally) costs join orders, and
fixes the left-deep plan; at request time it evaluates that plan against a
database *snapshot* and reuses, across every request:

* the parsed plan (no re-parsing, no re-optimising);
* the evaluator's columnar **base-encode cache** (scans of an unchanged
  relation reuse the dictionary-encoded code matrix);
* a rename-invariant :class:`~repro.perf.SubformulaCache` for final
  inference (structurally repeated per-answer DNFs across requests hit);
* a :class:`~repro.circuit.CircuitCache` for what-if re-scoring over the
  prepared plan's results.

Only the operator-pipeline phase is serialised (one lock per prepared
query: the evaluator is pointed at each request's snapshot); the expensive
final-inference phase runs outside the lock, so concurrent requests overlap
where it matters. Commits invalidate structurally: a base encoding is keyed
on the relation object and its mutation counter, so only the relations a
commit replaced are re-encoded, and the circuit cache is flushed by the
database's mutation hooks — a rolled-back transaction costs nothing.
"""

from __future__ import annotations

import threading
import time

from repro.core.executor import EvaluationResult, PartialLineageEvaluator
from repro.core.optimizer import choose_join_order
from repro.core.plan import left_deep_plan
from repro.circuit import CircuitCache
from repro.perf import SubformulaCache
from repro.query.parser import parse_query

__all__ = ["PreparedQuery"]


class PreparedQuery:
    """One registered query with warm per-statement state.

    Parameters
    ----------
    name:
        The handle clients reference in ``query`` requests.
    text:
        Conjunctive-query text (``q(h) :- R(h,x), S(h,x,y)``).
    db:
        The server's root database; the circuit cache watches its mutation
        hooks so commits flush compiled circuits.
    join_order:
        Explicit join order, or ``None``.
    optimize:
        When true (and no explicit order given), cost join orders once at
        prepare time with :func:`~repro.core.optimizer.choose_join_order`.
    """

    def __init__(
        self,
        name: str,
        text: str,
        db,
        *,
        join_order: list[str] | None = None,
        optimize: bool = False,
    ) -> None:
        self.name = name
        self.text = text
        self.query = parse_query(text)
        if join_order is None and optimize:
            join_order = list(choose_join_order(self.query, db).order)
        self.join_order = list(join_order) if join_order else None
        self.plan = left_deep_plan(self.query, self.join_order)
        #: Shared final-inference cache; thread-safe, survives across requests.
        self.infer_cache = SubformulaCache()
        #: Compiled-circuit cache for what-if analyses over this statement.
        self.circuit_cache = CircuitCache()
        # The evaluator wires the circuit cache into the root db's mutation
        # hooks, so transactional commits (and direct adds) flush it.
        self._evaluator = PartialLineageEvaluator(
            db, circuit_cache=self.circuit_cache
        )
        self._lock = threading.Lock()
        self.prepared_at = time.time()
        self.requests = 0

    def evaluate(self, snapshot, budget=None) -> EvaluationResult:
        """Run the operator pipeline against *snapshot*.

        Serialised per prepared query; the returned result's final
        inference (``answer_probabilities`` etc.) is thread-safe and runs
        outside the lock.
        """
        with self._lock:
            self._evaluator.db = snapshot
            result = self._evaluator.evaluate(self.plan, budget=budget)
            self.requests += 1
            return result

    def describe(self) -> dict:
        """JSON-shaped summary for ``prepare`` responses and ``stats``."""
        return {
            "name": self.name,
            "query": self.text,
            "join_order": self.join_order,
            "requests": self.requests,
            "infer_cache": self.infer_cache.stats.as_dict(),
            "circuit_cache": self.circuit_cache.as_dict(),
        }
