"""Per-query ExplainReport: the paper's hardness diagnostics in one object.

The quantities the paper uses to explain why a query was cheap or
expensive — offending-tuple counts (Sec. 3), the size and shape of the
partial lineage (Sec. 4.2), the component structure of the And-Or network —
are computed anyway during evaluation. :func:`build_explain_report` runs a
query once and assembles them, per relation and per component, together
with per-operator timings, the per-slice engine choices with estimated vs
actual cost, and the subformula-cache hit-rates of the final inference.

``repro explain`` is the CLI surface; :meth:`ExplainReport.as_dict` the
JSON one; the :class:`~repro.obs.metrics.MetricsRegistry` snapshot inside
the report is the unified-metric view of the same run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.columnar import BaseScanner
from repro.core.executor import PartialLineageEvaluator
from repro.core.explain import explain as explain_plan
from repro.core.inference import _width_limit
from repro.core.plan import left_deep_plan
from repro.db.database import ProbabilisticDatabase
from repro.db.schema import Row
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, add, annotate, current_tracer, span
from repro.perf.cache import SubformulaCache
from repro.perf.parallel import group_by_component, solve_slice
from repro.query.syntax import ConjunctiveQuery

__all__ = ["ExplainReport", "build_explain_report"]


@dataclass
class ExplainReport:
    """Everything an operator needs to understand one query's evaluation.

    Field → paper section: ``offending_by_source`` are the conditioned
    tuples of Definition 3.1 (zero everywhere ⇔ the plan was data safe and
    evaluation purely extensional, Sec. 4); ``component_sizes`` is the
    partial-lineage decomposition of Sec. 4.2 (many small components ⇔
    near-extensional, one giant component ⇔ intensional-hard);
    ``slices`` records, per component, the inference engine that answered
    (read from the ``solve_slice`` span, with the lineage order's width and
    the solver's work where the lineage path ran) and the scheduling cost
    estimate of :func:`repro.perf.parallel.estimate_component` against the
    measured solve time.
    """

    query: str
    plan: str
    join_order: list[str] | None
    engine: str
    workers: int | None
    answers: int
    network_nodes: int
    offending_total: int
    data_safe: bool
    eval_seconds: float
    inference_seconds: float
    #: Conditioned-tuple count per source (base relation or join output).
    offending_by_source: dict[str, int] = field(default_factory=dict)
    component_count: int = 0
    #: ``{component size -> number of components}`` histogram.
    component_sizes: dict[int, int] = field(default_factory=dict)
    #: Per-operator accounting (``OperatorStat.as_dict()`` rows).
    operators: list[dict] = field(default_factory=list)
    #: Per-component solve records: size, targets, engine, estimated cost,
    #: measured seconds (plus, under a budget, the winning ladder rung and
    #: the degraded-target count).
    slices: list[dict] = field(default_factory=list)
    #: Subformula-cache counters of the final inference (hit rates).
    cache: dict = field(default_factory=dict)
    #: Unified metrics snapshot of the run.
    metrics: dict = field(default_factory=dict)
    #: Answers that degraded to sound bounds (resilient runs only).
    degraded_answers: int = 0
    #: The budget the run executed under (``None`` = unlimited).
    budget: dict | None = None
    #: Per-answer what-if circuit records: circuit size, provenance
    #: (``cache`` hit vs cold ``obdd`` lowering), compile and re-score
    #: wall-clocks — the cold-path visibility of compile-once/re-score-many.
    circuits: list[dict] = field(default_factory=list)
    #: :class:`~repro.circuit.CircuitCache` counters of this run
    #: (hits/misses/recompiles).
    circuit_cache: dict = field(default_factory=dict)
    #: Dissociation-bounds section (``top_k`` runs only): fold wall-clock,
    #: split count, max/mean interval width, per-answer bounds (capped).
    dissociation: dict | None = None
    #: Bounds-first top-k certification: certified-out vs refined counts,
    #: the decision threshold, and the time saved against exact-all.
    top_k: dict | None = None

    def as_dict(self) -> dict:
        """JSON-serialisable view (the ``repro explain --json`` payload)."""
        return {
            "query": self.query,
            "plan": self.plan,
            "join_order": self.join_order,
            "engine": self.engine,
            "workers": self.workers,
            "answers": self.answers,
            "network_nodes": self.network_nodes,
            "offending_total": self.offending_total,
            "data_safe": self.data_safe,
            "eval_seconds": self.eval_seconds,
            "inference_seconds": self.inference_seconds,
            "offending_by_source": dict(self.offending_by_source),
            "component_count": self.component_count,
            "component_sizes": {
                str(k): v for k, v in sorted(self.component_sizes.items())
            },
            "operators": list(self.operators),
            "slices": list(self.slices),
            "cache": dict(self.cache),
            "metrics": self.metrics,
            "degraded_answers": self.degraded_answers,
            "budget": self.budget,
            "circuits": list(self.circuits),
            "circuit_cache": dict(self.circuit_cache),
            "dissociation": self.dissociation,
            "top_k": self.top_k,
        }

    def format(self) -> str:
        """Human-readable report (the default ``repro explain`` output)."""
        from repro.bench.reporting import format_table

        lines = [f"query: {self.query}"]
        lines.append(self.plan)
        lines.append("")
        mode = (
            "data safe — purely extensional evaluation"
            if self.data_safe
            else "mixed evaluation (partial lineage)"
        )
        lines.append(
            f"engine={self.engine}"
            + (f" workers={self.workers}" if self.workers else "")
            + f"; {mode}"
        )
        lines.append(
            f"{self.answers} answers; network of {self.network_nodes} nodes; "
            f"{self.offending_total} offending tuples; "
            f"eval {self.eval_seconds:.4f}s + "
            f"inference {self.inference_seconds:.4f}s"
        )
        if self.offending_by_source:
            lines.append("")
            lines.append(format_table(
                ("source", "offending"),
                sorted(self.offending_by_source.items()),
                title="offending tuples per relation",
            ))
        lines.append("")
        lines.append(format_table(
            ("operator", "out", "conditioned", "seconds"),
            [(o["operator"], o["output_size"], o["conditioned"],
              f"{o['seconds']:.5f}") for o in self.operators],
            title="per-operator timings",
        ))
        lines.append("")
        lines.append(format_table(
            ("component size", "count"),
            sorted(self.component_sizes.items()),
            title=f"network components ({self.component_count} total)",
        ))
        if self.slices:
            lines.append("")
            has_rung = any("rung" in s for s in self.slices)
            headers = ["component", "size", "targets", "engine", "width",
                       "eliminated", "dpll calls", "est. cost", "seconds"]
            rows = [
                [i, s["size"], s["targets"], s["engine"],
                 "-" if s.get("width") is None else s["width"],
                 s.get("eliminated", 0), s.get("dpll_calls", 0),
                 f"{s['estimated_cost']:.0f}", f"{s['seconds']:.5f}"]
                for i, s in enumerate(self.slices)
            ]
            if has_rung:
                headers.append("rung")
                for row, s in zip(rows, self.slices):
                    row.append(s.get("rung", "exact"))
            lines.append(format_table(
                tuple(headers), [tuple(r) for r in rows],
                title="per-component inference (estimated vs actual cost)",
            ))
        if self.budget is not None:
            lines.append("")
            caps = ", ".join(
                f"{k}={v}" for k, v in self.budget.items() if v is not None
            )
            lines.append(f"budget: {caps or 'unlimited'}")
            lines.append(
                f"{self.degraded_answers} answers degraded to sound bounds"
            )
        if self.cache:
            lines.append("")
            lines.append(
                f"subformula cache: {self.cache.get('hits', 0)} hits / "
                f"{self.cache.get('misses', 0)} misses "
                f"(hit rate {self.cache.get('hit_rate', 0.0):.2%})"
            )
        if self.circuits:
            lines.append("")
            lines.append(format_table(
                ("answer", "nodes", "source", "compile s", "rescore s"),
                [(c["answer"], c.get("nodes", "-"), c["source"],
                  _secs(c.get("compile_seconds")),
                  _secs(c.get("rescore_seconds")))
                 for c in self.circuits],
                title="what-if circuits (compile once vs re-score)",
            ))
        if self.circuit_cache:
            lines.append(
                f"circuit cache: {self.circuit_cache.get('hits', 0)} hits / "
                f"{self.circuit_cache.get('misses', 0)} misses, "
                f"{self.circuit_cache.get('recompiles', 0)} recompiles"
            )
        if self.dissociation is not None:
            d = self.dissociation
            lines.append("")
            lines.append(
                f"dissociation bounds: {d['answers']} answers, "
                f"{d['dissociated']} fan-out splits, "
                f"max width {d['max_width']:.6f}, "
                f"mean width {d['mean_width']:.6f}, "
                f"{d['seconds']:.4f}s"
                + (" (exact: instance is data safe)" if d["exact"] else "")
            )
            if d.get("bounds"):
                lines.append(format_table(
                    ("answer", "lower", "upper", "width"),
                    [(", ".join(map(str, b["row"])) or "()",
                      f"{b['lower']:.6f}", f"{b['upper']:.6f}",
                      f"{b['width']:.6f}")
                     for b in d["bounds"]],
                    title="widest enclosures first"
                    if not d["exact"] else "per-answer enclosures",
                ))
        if self.top_k is not None:
            t = self.top_k
            lines.append("")
            lines.append(format_table(
                ("rank", "answer", "probability", "bounds"),
                [(i + 1, ", ".join(map(str, a["row"])) or "()",
                  f"{a['probability']:.6f}",
                  f"[{a['lower']:.6f}, {a['upper']:.6f}]")
                 for i, a in enumerate(t["answers"])],
                title=f"certified top-{t['k']}",
            ))
            lines.append(
                f"{t['certified_out']} of {t['total_answers']} answers "
                f"certified out by dissociation bounds alone; "
                f"{t['refined']} refined exactly "
                f"(threshold {t['threshold']:.6f})"
            )
            lines.append(
                f"bounds {t['bounds_seconds']:.4f}s + refine "
                f"{t['refine_seconds']:.4f}s vs exact-all inference "
                f"{self.inference_seconds:.4f}s "
                f"(time saved {t['time_saved']:.4f}s)"
            )
        return "\n".join(lines)


def _engine_that_ran(root) -> dict:
    """Engine, width and solver work of the ``solve_slice`` span under
    *root* — what ran, not what the predicates would have picked. A ladder
    that skipped its exact rung has no such span."""
    solves = root.find("solve_slice")
    if not solves:
        return {"engine": "skipped", "width": None}
    solve = solves[0]
    return {
        "engine": solve.attrs.get("path", "?"),
        "width": solve.attrs.get("width"),
        "eliminated": int(solve.counters.get("eliminated", 0)),
        "dpll_calls": int(solve.counters.get("dpll_calls", 0)),
    }


def _secs(value) -> str:
    return "-" if value is None else f"{value:.5f}"


def build_explain_report(
    db: ProbabilisticDatabase,
    query: ConjunctiveQuery,
    *,
    join_order: list[str] | None = None,
    workers: int | None = None,
    dpll_max_calls: int = 5_000_000,
    registry: MetricsRegistry | None = None,
    budget=None,
    circuit_cache=None,
    top_k: int | None = None,
) -> tuple[ExplainReport, dict[Row, float]]:
    """Evaluate *query* and assemble its :class:`ExplainReport`.

    With *top_k* the report additionally runs the dissociation-bounds
    evaluator on the same plan and the bounds-first top-k certifier, and
    records per-answer bound widths, certified-out vs refined counts, and
    the wall-clock saved against the exact-all inference it just measured.

    Returns ``(report, answers)``. Inference runs component-sliced and
    in-process regardless of *workers* — per-slice wall-clocks are the
    point of the report, and a process pool would hide them; *workers* is
    recorded so the report reflects the configuration it explains.

    With a *budget* (a :class:`~repro.resilience.QueryBudget`) every slice
    solves through the degradation ladder instead: hard components degrade
    to sound bounds (reported at their interval midpoint in ``answers``),
    each slice record carries the winning ladder rung and its degraded
    count, and the report totals ``degraded_answers``.

    *circuit_cache* (a :class:`~repro.circuit.CircuitCache`, default a
    fresh one) backs the what-if circuit section: every answer with
    symbolic lineage is compiled through the cache and re-scored once, so
    the report shows per answer whether the circuit was a cache hit or a
    cold compile, and what compile vs re-score cost — pass a long-lived
    cache to see the warm-path numbers a serving deployment would get.

    Examples
    --------
    >>> from repro.db import ProbabilisticDatabase
    >>> from repro.query import parse_query
    >>> db = ProbabilisticDatabase()
    >>> _ = db.add_relation("R", ("A",), {(1,): 0.5})
    >>> _ = db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
    >>> report, answers = build_explain_report(
    ...     db, parse_query("q(x) :- R(x), S(x,y)"))
    >>> report.answers, report.offending_total
    (1, 1)
    >>> round(answers[(1,)], 6)
    0.375
    """
    if registry is None:
        registry = MetricsRegistry()
    if current_tracer() is None:
        # the per-slice engines are read from the solve's own spans
        with Tracer():
            return build_explain_report(
                db, query, join_order=join_order, workers=workers,
                dpll_max_calls=dpll_max_calls, registry=registry, budget=budget,
                circuit_cache=circuit_cache, top_k=top_k,
            )
    # one encode cache for the evaluators and the plan annotations
    scanner = BaseScanner()
    evaluator = PartialLineageEvaluator(db, workers=workers, scanner=scanner)
    plan = left_deep_plan(query, join_order)
    with span("explain", query=str(query)):
        start = time.perf_counter()
        result = evaluator.evaluate(plan)
        eval_seconds = time.perf_counter() - start
        plan_text = explain_plan(plan, db, scanner=scanner)

        rows = list(result.relation.items())
        nodes = [l for _, l, _ in rows]
        cache = SubformulaCache()
        start = time.perf_counter()
        works = group_by_component(
            result.network, nodes, _width_limit(budget)
        )
        marginals = {0: 1.0}  # EPSILON
        slices: list[dict] = []
        degraded_answers = 0
        if budget is not None:
            from repro.resilience.execute import exact_fractions

            budget = budget.start()
            fractions = exact_fractions(works)
        for index, work in enumerate(works):
            t0 = time.perf_counter()
            record = {
                "size": len(work.slice.network) - 1,  # slice minus ε
                "targets": len(work.targets),
                "estimated_cost": work.cost,
            }
            with span("explain_slice") as s:
                if budget is not None:
                    from repro.resilience.ladder import (
                        resilient_component_marginals,
                    )

                    outcomes = resilient_component_marginals(
                        work.slice.network,
                        work.targets,
                        budget=budget,
                        cache=cache,
                        registry=registry,
                        narrow=work.narrow,
                        exact_fraction=fractions[index],
                        est_cost=work.cost,
                    )
                    solved = {t: o.midpoint for t, o in outcomes.items()}
                    degraded = sum(
                        1 for o in outcomes.values() if o.degraded
                    )
                    degraded_answers += degraded
                    record["degraded"] = degraded
                    record["rung"] = next(
                        (o.method for o in outcomes.values() if o.degraded),
                        "exact",
                    )
                else:
                    solved = solve_slice(
                        work.slice.network,
                        work.targets,
                        "auto",
                        dpll_max_calls,
                        cache,
                        narrow=work.narrow,
                    )
                s.add("targets", len(work.targets))
                record.update(_engine_that_ran(s.span))
                s.annotate(engine=record["engine"])
            seconds = time.perf_counter() - t0
            for sub, prob in solved.items():
                marginals[work.slice.to_orig(sub)] = prob
            record["seconds"] = seconds
            slices.append(record)
            registry.observe("slice.estimated_cost", work.cost)
            registry.observe("slice.seconds", seconds)
        inference_seconds = time.perf_counter() - start
        answers = {row: p * marginals[l] for row, l, p in rows}
        annotate(answers=len(answers))
        add("offending", result.offending_count)

        # What-if circuit section: compile each symbolic answer through the
        # structural cache, re-score once, and record hit/miss + wall times
        # so cold and degraded paths are visible. Never fails the report:
        # hard lineages record their reason instead.
        from repro.circuit import CircuitCache, rescore
        from repro.core.network import EPSILON
        from repro.errors import ReproError

        if circuit_cache is None:
            circuit_cache = CircuitCache()
        circuits: list[dict] = []
        try:
            from repro.core.whatif import WhatIfAnalysis

            analysis = WhatIfAnalysis(
                result, circuit_cache=circuit_cache, budget=budget
            )
            for row, l, _ in rows:
                record: dict = {"answer": str(row)}
                if l == EPSILON:  # constant lineage, nothing to compile
                    record["source"] = "constant"
                    circuits.append(record)
                    continue
                try:
                    circuit = analysis.circuit_for(row)
                    t0 = time.perf_counter()
                    rescore(circuit, circuit.base_probs)
                    record["rescore_seconds"] = time.perf_counter() - t0
                    record["nodes"] = len(circuit)
                    record["source"] = analysis.circuit_sources[l]
                    record["compile_seconds"] = analysis.compile_seconds[l]
                except ReproError as exc:
                    record["source"] = f"uncompiled: {type(exc).__name__}"
                circuits.append(record)
        except ReproError as exc:
            circuits.append(
                {"answer": "*", "source": f"uncompiled: {type(exc).__name__}"}
            )
        registry.absorb("circuit.cache", circuit_cache)
        for c in circuits:
            if "compile_seconds" in c:
                registry.observe(
                    "circuit.compile_seconds", c["compile_seconds"]
                )
                registry.observe(
                    "circuit.rescore_seconds", c["rescore_seconds"]
                )

        # Bounds-first top-k section: dissociate the same plan, certify,
        # and charge the certifier against the exact-all inference above.
        dissociation_section = top_k_section = None
        if top_k is not None:
            from repro.dissociation import DissociationEvaluator, certified_top_k

            # No budget here: the certifier's refinement re-solves a subset
            # of what the (possibly budgeted) loop above already measured,
            # and the section exists to compare wall-clocks, not to race a
            # deadline that the first pass may have spent already.
            bounds = DissociationEvaluator(db, scanner=scanner).evaluate(plan)
            cert = certified_top_k(
                result, bounds, top_k, dpll_max_calls=dpll_max_calls,
            )
            widths = [b.width for b in bounds.bounds.values()]
            for w in widths:
                registry.observe("dissociation.width", w)
            registry.gauge("dissociation.seconds", bounds.seconds)
            registry.inc("topk.certified_out", cert.certified_out)
            registry.inc("topk.refined", cert.refined)
            dissociation_section = {
                "answers": len(bounds.bounds),
                "dissociated": bounds.dissociated,
                "exact": bounds.exact,
                "seconds": bounds.seconds,
                "max_width": bounds.max_width,
                "mean_width": (
                    sum(widths) / len(widths) if widths else 0.0
                ),
                "bounds": sorted(
                    bounds.as_dict()["bounds"],
                    key=lambda r: (-r["width"], r["row"]),
                )[:10],
            }
            time_saved = inference_seconds - (
                bounds.seconds + cert.refine_seconds
            )
            registry.gauge("topk.time_saved_seconds", time_saved)
            top_k_section = {**cert.as_dict(), "time_saved": time_saved}

    offending_by_source: dict[str, int] = {}
    for off in result.conditioned_tuples:
        offending_by_source[off.source] = (
            offending_by_source.get(off.source, 0) + 1
        )

    components = result.network.components()
    component_sizes: dict[int, int] = {}
    for size in components.sizes().tolist():
        component_sizes[size] = component_sizes.get(size, 0) + 1
        registry.observe("component.size", size)

    for stat in result.stats:
        registry.absorb(f"operator.{stat.operator}", stat)
    registry.absorb("cache", cache.stats)
    registry.gauge("network.nodes", len(result.network))
    registry.gauge("engine", result.engine)
    registry.inc("offending", result.offending_count)
    registry.gauge("eval.seconds", eval_seconds)
    registry.gauge("inference.seconds", inference_seconds)

    report = ExplainReport(
        query=str(query),
        plan=plan_text,
        join_order=join_order,
        engine=result.engine,
        workers=workers,
        answers=len(answers),
        network_nodes=len(result.network),
        offending_total=result.offending_count,
        data_safe=result.is_data_safe,
        eval_seconds=eval_seconds,
        inference_seconds=inference_seconds,
        offending_by_source=offending_by_source,
        component_count=components.count,
        component_sizes=component_sizes,
        operators=[stat.as_dict() for stat in result.stats],
        slices=slices,
        cache=cache.stats.as_dict(),
        metrics=registry.snapshot(),
        degraded_answers=degraded_answers,
        budget=None if budget is None else {
            "deadline_seconds": budget.deadline_seconds,
            "max_network_nodes": budget.max_network_nodes,
            "max_width": budget.max_width,
            "dpll_max_calls": budget.dpll_max_calls,
            "obdd_max_nodes": budget.obdd_max_nodes,
            "max_samples": budget.max_samples,
        },
        circuits=circuits,
        circuit_cache=circuit_cache.as_dict(),
        dissociation=dissociation_section,
        top_k=top_k_section,
    )
    return report, answers
