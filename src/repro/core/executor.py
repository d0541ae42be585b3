"""Plan evaluation with partial lineage.

:class:`PartialLineageEvaluator` walks a plan bottom-up over a probabilistic
database, maintaining pL-relations over one shared And-Or network:

* ``Scan`` lifts a base relation (all lineage ε), applying the atom's
  constant and repeated-variable selections;
* ``Select`` / ``Project`` apply the Section 5.3 operators;
* ``Join`` applies Theorem 5.16: condition both inputs on their cSets, then
  ``⋈_pL``.

The result bundles the output pL-relation, the network, and per-operator
offending-tuple counts; :meth:`EvaluationResult.answer_probabilities` runs
exact inference (Theorem 5.17's variable-elimination counterpart) to turn
partial lineage into probabilities.

When the plan is *data safe* on the instance, no tuples are conditioned, the
network never grows beyond ε, and the evaluation is purely extensional — the
method degenerates to a safe plan, exactly as Section 4 promises. When every
tuple offends, it degenerates to full intensional lineage. The common case
sits in between.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.columnar import (
    BaseScanner,
    ColumnarPLRelation,
    pl_join,
    project,
    select_eq,
    select_where,
)
from repro.core.network import EPSILON, AndOrNetwork
from repro.core.plan import (
    Filter,
    Join,
    Plan,
    Project,
    Scan,
    Select,
    left_deep_plan,
    plan_schema,
)
from repro.core.plrelation import PLRelation
from repro.obs.trace import span as _span
from repro.db.database import ProbabilisticDatabase
from repro.db.schema import Row
from repro.errors import PlanError
from repro.query.syntax import ConjunctiveQuery
from repro.resilience.budget import QueryBudget

@dataclass
class OperatorStat:
    """Per-operator accounting recorded during evaluation."""

    operator: str
    output_size: int
    conditioned: int = 0
    #: Wall-clock spent in this operator alone (children excluded).
    seconds: float = 0.0

    def as_dict(self) -> dict:
        """Plain-dict view, the shape a
        :class:`~repro.obs.metrics.MetricsRegistry` absorbs."""
        return {
            "operator": self.operator,
            "output_size": self.output_size,
            "conditioned": self.conditioned,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class OffendingTuple:
    """Provenance of one conditioned tuple: which relation (base or
    intermediate, by display name), which row, and the network leaf/gate the
    conditioning created."""

    source: str
    row: Row
    node: int


@dataclass
class EvaluationResult:
    """Outcome of evaluating a plan with partial lineage."""

    relation: PLRelation
    network: AndOrNetwork
    stats: list[OperatorStat] = field(default_factory=list)
    #: provenance per conditioning, in evaluation order
    conditioned_tuples: list[OffendingTuple] = field(default_factory=list)
    #: default process-pool size for :meth:`answer_probabilities`
    #: (``None`` = solve in-process), inherited from the evaluator
    workers: int | None = None
    #: default :class:`~repro.resilience.QueryBudget` for final inference
    #: (``None`` = unlimited), inherited from the evaluator
    budget: QueryBudget | None = None
    #: default :class:`~repro.circuit.CircuitCache` for what-if circuit
    #: compilation (``None`` = compile per analysis), inherited from the
    #: evaluator
    circuit_cache: object | None = None
    #: operator backend that produced this result (``"columnar"`` or
    #: ``"sqlite"``), stamped into flight-recorder records
    engine: str = ""

    def whatif(self, *, circuit_cache=None, budget=None):
        """A :class:`~repro.core.whatif.WhatIfAnalysis` over this result.

        The evaluator's :class:`~repro.circuit.CircuitCache` (when it was
        constructed with one) rides along, so repeated analyses of
        rename-equivalent answers skip recompilation; pass *circuit_cache*
        to override.
        """
        from repro.core.whatif import WhatIfAnalysis

        return WhatIfAnalysis(
            self,
            circuit_cache=(
                circuit_cache if circuit_cache is not None
                else self.circuit_cache
            ),
            budget=budget if budget is not None else self.budget,
        )

    @property
    def offending_count(self) -> int:
        """Total number of tuples conditioned across all joins.

        Zero iff the plan was data safe on this instance (Definition 3.1),
        in which case the evaluation was purely extensional.
        """
        return sum(s.conditioned for s in self.stats)

    def record_flight(
        self, kind: str, *, seconds: float, answers: int,
        inference: str = "", rungs: dict | None = None, degraded: int = 0,
        cache=None, budget=None, workers=None, error: str | None = None,
        solved=None,
    ) -> dict:
        """Append one :mod:`repro.obs.telemetry` record for this result.

        The query hash is the digest of the plan's operator signature, so
        re-evaluations of the same plan shape aggregate under one hash in
        the flight log regardless of instance data. *solved* is the handle
        of the span the final inference ran under: with a tracer recording,
        its ``solve_slice`` spans say which engine answered each slice.
        """
        from repro.obs import telemetry

        plan_sig = "|".join(s.operator for s in self.stats)
        return telemetry.record(
            kind,
            query_hash=telemetry.query_hash(plan_sig),
            engine=self.engine,
            inference=inference,
            plan=self.stats[-1].operator if self.stats else "",
            seconds=seconds,
            answers=answers,
            offending=self.offending_count,
            network_nodes=len(self.network),
            operators=telemetry.operator_dicts(self.stats),
            rungs=dict(rungs or {}),
            engines=telemetry.engines_dict(solved),
            degraded=degraded,
            cache=telemetry.cache_dict(cache),
            budget=telemetry.budget_dict(budget),
            workers=workers if workers is not None else self.workers,
            error=error,
        )

    @property
    def is_data_safe(self) -> bool:
        """True when no conditioning happened anywhere in the plan."""
        return self.offending_count == 0

    def answer_probabilities(
        self,
        engine: str = "auto",
        dpll_max_calls: int = 5_000_000,
        cache=None,
        workers: int | None = None,
        budget=None,
    ) -> dict[Row, float]:
        """Exact probability of each output tuple.

        An output tuple with lineage ``l`` and probability column ``p`` exists
        with probability ``p · Pr(l = 1)`` — the anonymous event is
        independent of the network by construction.

        *engine* selects the final inference path: ``"auto"`` (linear-time
        tree propagation when the network is tree-factorable, otherwise the
        component-sliced driver of :mod:`repro.perf.parallel`), ``"ve"`` /
        ``"dpll"`` (component-sliced, forcing the respective per-component
        engine), ``"tree"`` (bottom-up propagation, rejects
        non-tree-factorable networks).

        *cache* is an optional shared :class:`~repro.perf.SubformulaCache`
        for the DPLL paths: the per-answer marginal solves then reuse each
        other's subformula probabilities, and the cache survives across
        queries when the caller keeps it. With process fan-out, worker cache
        entries are merged back into it.

        *workers* (default: the evaluator's ``workers`` knob) turns on
        process-parallel solving of independent network components for the
        sliced engines; ``None`` or ``1`` stays in-process.

        *budget* (default: the evaluator's ``budget`` knob) is an optional
        :class:`~repro.resilience.QueryBudget` whose deadline the inference
        backends checkpoint cooperatively; a blown budget raises
        :class:`~repro.errors.BudgetExceededError`. For graceful
        degradation to sound bounds instead, use
        :meth:`resilient_answer_probabilities`.
        """
        budget = budget if budget is not None else self.budget
        rows = list(self.relation.items())
        nodes = [l for _, l, _ in rows]
        flight_start = time.perf_counter()
        try:
            if budget is not None:
                budget.start().checkpoint("answer_probabilities")
            return self._answer_probabilities(
                engine, dpll_max_calls, cache, workers, budget,
                rows, nodes, flight_start,
            )
        except Exception as exc:
            self.record_flight(
                "query", seconds=time.perf_counter() - flight_start,
                answers=0, inference=engine, cache=cache, budget=budget,
                workers=workers, error=f"{type(exc).__name__}: {exc}",
            )
            raise

    def _answer_probabilities(
        self, engine, dpll_max_calls, cache, workers, budget,
        rows, nodes, flight_start,
    ) -> dict[Row, float]:
        from repro.core.treeprop import is_tree_factorable, tree_marginals
        from repro.perf.parallel import parallel_marginals

        marginals: dict[int, float]
        with _span(
            "answer_probabilities", engine=engine, nodes=len(self.network)
        ) as sp:
            if engine == "tree" or (
                engine == "auto" and is_tree_factorable(self.network)
            ):
                sp.annotate(path="tree")
                marginals = tree_marginals(
                    self.network, check=engine == "tree", budget=budget
                )
            else:
                sp.annotate(path="sliced")
                marginals = parallel_marginals(
                    self.network,
                    nodes,
                    workers=workers if workers is not None else self.workers,
                    engine=engine,
                    dpll_max_calls=dpll_max_calls,
                    cache=cache,
                    budget=budget,
                )
            sp.add("answers", len(rows))
        answers = {row: p * marginals[l] for row, l, p in rows}
        self.record_flight(
            "query", seconds=time.perf_counter() - flight_start,
            answers=len(answers), inference=engine,
            rungs={"exact": len(answers)},
            cache=cache, budget=budget, workers=workers, solved=sp,
        )
        return answers

    def resilient_answer_probabilities(
        self,
        budget=None,
        *,
        workers: int | None = None,
        cache=None,
        timeout: float | None = None,
        max_retries: int = 2,
        chunks_per_worker: int = 4,
        fault_plan=None,
        registry=None,
        seed: int = 0,
    ) -> dict:
        """Per-answer probability *enclosures* that never fail on hardness.

        The resilient counterpart of :meth:`answer_probabilities`: every
        answer's lineage solves through the degradation ladder of
        :mod:`repro.resilience` — exact inference under (a fraction of) the
        *budget*'s deadline, then OBDD compilation, then sound
        Olteanu-Huang-Koch interval bounds, then Monte-Carlo with a
        Hoeffding interval — and comes back as an
        :class:`~repro.enclosure.Enclosure` carrying ``(lower, upper)``
        bounds, the winning ladder rung, and the full degradation
        provenance. Exactly solved answers have ``exact=True`` and a
        zero-width enclosure; a hard component degrades only its own
        answers.

        With ``workers >= 2`` the components fan out over the
        fault-tolerant pool (per-dispatch *timeout*, *max_retries* retry
        rounds, serial requeue — see
        :func:`repro.resilience.execute.resilient_marginals`); *fault_plan*
        injects deterministic failures for chaos tests, and *seed* fixes
        the sampling rung's randomness so parallel, serial, and retried
        runs agree bit-for-bit.
        """
        from repro.resilience.execute import resilient_marginals

        budget = budget if budget is not None else self.budget
        rows = list(self.relation.items())
        flight_start = time.perf_counter()
        with _span("resilient_answer_probabilities") as sp:
            outcomes = resilient_marginals(
                self.network,
                [l for _, l, _ in rows],
                budget=budget,
                workers=workers if workers is not None else self.workers,
                cache=cache,
                timeout=timeout,
                max_retries=max_retries,
                chunks_per_worker=chunks_per_worker,
                fault_plan=fault_plan,
                registry=registry,
                seed=seed,
            )
        # The anonymous row event is independent of the network, so the
        # answer's enclosure is the lineage's, scaled by the row probability.
        answers = {row: outcomes[l].scaled(p) for row, l, p in rows}
        rungs: dict[str, int] = {}
        for a in answers.values():
            rungs[a.method] = rungs.get(a.method, 0) + 1
        self.record_flight(
            "ladder", seconds=time.perf_counter() - flight_start,
            answers=len(answers), inference="ladder", rungs=rungs,
            degraded=sum(1 for a in answers.values() if a.degraded),
            cache=cache, budget=budget, workers=workers, solved=sp,
        )
        return answers

    def approximate_answer_probabilities(
        self,
        samples: int,
        rng=None,
        method: str = "forward",
    ) -> dict[Row, float]:
        """Monte-Carlo answer probabilities (Section 7's approximate regime).

        ``method="forward"`` estimates all answers jointly from shared forward
        samples of the network; ``method="karp-luby"`` runs the FPRAS on each
        answer's partial-lineage DNF (better for small probabilities).
        """
        from repro.core.approximate import (
            forward_sample_marginals,
            karp_luby_marginal,
        )

        rows = list(self.relation.items())
        if method == "forward":
            marginals = forward_sample_marginals(
                self.network, [l for _, l, _ in rows], samples, rng
            )
        elif method == "karp-luby":
            marginals = {}
            for _, l, _ in rows:
                if l not in marginals:
                    marginals[l] = karp_luby_marginal(
                        self.network, l, samples, rng
                    )
        else:
            raise ValueError(f"unknown approximation method {method!r}")
        return {row: p * marginals[l] for row, l, p in rows}

    def boolean_probability(
        self, engine: str = "auto", dpll_max_calls: int = 5_000_000
    ) -> float:
        """Probability of a Boolean (empty-schema) query answer."""
        if self.relation.attributes:
            raise PlanError(
                f"boolean_probability on a relation with attributes "
                f"{self.relation.attributes}; project to ∅ first"
            )
        probs = self.answer_probabilities(engine, dpll_max_calls)
        return probs.get((), 0.0)


class PartialLineageEvaluator:
    """Evaluates plans over a probabilistic database with partial lineage.

    Examples
    --------
    >>> from repro.db import ProbabilisticDatabase
    >>> from repro.query import parse_query
    >>> db = ProbabilisticDatabase()
    >>> _ = db.add_relation("R", ("A",), {(1,): 0.5})
    >>> _ = db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
    >>> _ = db.add_relation("T", ("B",), {(1,): 1.0, (2,): 1.0})
    >>> res = PartialLineageEvaluator(db).evaluate_query(
    ...     parse_query("q() :- R(x), S(x,y), T(y)"))
    >>> round(res.boolean_probability(), 6)
    0.375
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        *,
        hashing: bool = True,
        workers: int | None = None,
        budget=None,
        circuit_cache=None,
    ) -> None:
        self.db = db
        #: Pass-through to :class:`AndOrNetwork`: disable to ablate the
        #: Section 5.4 node-reuse optimisation.
        self.hashing = hashing
        #: Default process-pool size for final inference, handed to every
        #: :class:`EvaluationResult` this evaluator produces (``None`` keeps
        #: inference in-process; see :mod:`repro.perf.parallel`).
        self.workers = workers
        #: Default :class:`~repro.resilience.QueryBudget` for the whole
        #: execution: checkpointed after every operator (deadline +
        #: network-size cap) and handed to every result for final inference.
        self.budget = budget
        #: Optional :class:`~repro.circuit.CircuitCache` shared by every
        #: what-if analysis over this evaluator's results; subscribed to the
        #: database's mutation hooks so inserts invalidate compiled circuits.
        self.circuit_cache = circuit_cache
        if circuit_cache is not None:
            circuit_cache.watch(db)
        # Shared dictionary encoding plus a per-base-relation encode cache:
        # scans of the same (unmodified) relation across evaluations — e.g.
        # the optimizer costing many join orders — reuse the code matrix
        # instead of re-interning every value.
        self._scanner = BaseScanner()

    # ------------------------------------------------------------ entry points
    def evaluate(self, plan: Plan, budget=None) -> EvaluationResult:
        """Evaluate an explicit plan; validates its schema first.

        The result's ``relation`` is a row-backed :class:`PLRelation` (the
        columnar pipeline converts its final — small — output), the one
        representation downstream consumers read.

        *budget* (default: the evaluator's ``budget`` knob) is an optional
        :class:`~repro.resilience.QueryBudget`: the deadline and the
        network-size cap are checked after every operator, raising
        :class:`~repro.errors.DeadlineExceededError` /
        :class:`~repro.errors.BudgetExceededError` respectively, and the
        budget is handed to the result for final inference.
        """
        plan_schema(plan, self.db)
        budget = budget if budget is not None else self.budget
        if budget is not None:
            budget.start()
        network = AndOrNetwork(hashing=self.hashing)
        stats: list[OperatorStat] = []
        conditioned: list[OffendingTuple] = []
        rel = self._eval(plan, network, stats, conditioned, budget)
        return EvaluationResult(
            rel.to_rows(), network, stats, conditioned,
            workers=self.workers, budget=budget,
            circuit_cache=self.circuit_cache,
            engine="columnar",
        )

    def invalidate_cache(self) -> None:
        """Drop the columnar base-relation encode cache and any compiled
        circuits. Only frees memory: a mutated relation already misses the
        encode cache (entries are keyed on the relation's version)."""
        self._scanner.clear()
        if self.circuit_cache is not None:
            self.circuit_cache.clear()

    def evaluate_query(
        self,
        query: ConjunctiveQuery,
        join_order: list[str] | None = None,
        budget=None,
    ) -> EvaluationResult:
        """Build the left-deep plan for *query* and evaluate it."""
        return self.evaluate(left_deep_plan(query, join_order), budget=budget)

    # --------------------------------------------------------------- recursion
    def _eval(
        self,
        plan: Plan,
        network: AndOrNetwork,
        stats: list[OperatorStat],
        provenance: list[OffendingTuple],
        budget=None,
    ) -> ColumnarPLRelation:
        # Each operator's own wall time (children excluded) lands in its
        # OperatorStat, and — when a tracer is active — in a per-operator
        # span. A budget, when present, is checkpointed after every operator:
        # deadline plus network-size cap, the two resources the operator
        # pipeline itself consumes.
        def recurse(child: Plan) -> ColumnarPLRelation:
            return self._eval(child, network, stats, provenance, budget)

        if isinstance(plan, Scan):
            kind, run = "scan", lambda: (self._scan(plan, network), 0)
        elif isinstance(plan, Join):
            left, right = recurse(plan.left), recurse(plan.right)
            kind, run = "join", lambda: pl_join(
                left,
                right,
                plan.on,
                recorder=lambda node, source, row: provenance.append(
                    OffendingTuple(source, row, node)
                ),
            )
        elif isinstance(plan, Select):
            child = recurse(plan.child)
            kind, run = "select", lambda: (
                select_eq(child, dict(plan.conditions)), 0
            )
        elif isinstance(plan, Filter):
            child = recurse(plan.child)
            kind, run = "filter", lambda: (
                select_where(child, list(plan.predicates)), 0
            )
        elif isinstance(plan, Project):
            child = recurse(plan.child)
            kind, run = "project", lambda: (
                project(child, plan.attributes), 0
            )
        else:
            raise PlanError(f"unknown plan node {plan!r}")
        with _span(kind, op=str(plan)) as sp:
            start = time.perf_counter()
            rel, conditioned = run()
            seconds = time.perf_counter() - start
            sp.add("output_size", len(rel))
            if kind == "join":
                sp.add("conditioned", conditioned)
        stats.append(
            OperatorStat(
                str(plan),
                output_size=len(rel),
                conditioned=conditioned,
                seconds=seconds,
            )
        )
        if budget is not None:
            budget.checkpoint(str(plan))
            budget.check_nodes(len(network), str(plan))
        return rel

    # ------------------------------------------------------------------ scans
    def _scan(self, scan: Scan, network: AndOrNetwork) -> ColumnarPLRelation:
        base = self.db[scan.relation]
        attributes, codes, probs = self._scanner.scan(base, scan.terms)
        return ColumnarPLRelation(
            attributes,
            network,
            self._scanner.interner,
            codes,
            np.full(len(probs), EPSILON, dtype=np.int64),
            probs,
            name=base.name if scan.terms is None else str(scan),
        )
