"""Component-sliced, process-parallel final inference.

The marginals of a multi-answer query are independent solves, and the
And-Or network of a Fig. 5-style workload splits into one connected
component per head value once ε — a constant that correlates nothing — is
set aside. This module exploits both facts:

* :func:`parallel_marginals` groups the requested nodes by connected
  component (:meth:`~repro.core.network.AndOrNetwork.components`), extracts
  each needed component once
  (:meth:`~repro.core.network.AndOrNetwork.extract_component`), and solves
  every component (:func:`solve_slice`) with the cheapest applicable
  engine: the batched tree-propagation kernel when it is tree-factorable,
  one evidence-reduced elimination when it holds a single answer and its
  elimination width is small, and the lineage path (clause elimination or
  DPLL against a shared :class:`~repro.perf.SubformulaCache`) otherwise.
  The expensive per-answer width estimation of the serial path is replaced
  by one *early-exit* min-degree pass per component
  (:func:`estimate_component`), which stops the moment the width budget is
  exceeded.
* With ``workers >= 2`` it fans the extracted components out over a
  process pool driven by the fault-tolerant
  :func:`repro.resilience.pool.run_chunks` dispatcher: components are
  chunked by estimated cost (longest-processing-time-first over the
  factor-table sizes the elimination pass produced), each worker solves its
  chunk against a fresh subformula cache, and the workers' cache entries
  are merged back into the caller's cache — the canonical keys are
  rename-invariant, so entries survive the component id-remap. Worker
  crashes, stuck workers (per-dispatch *timeout*), and poisoned results
  retry on a fresh pool and finally requeue to the in-process serial path,
  so one dead worker never loses its chunk. A cost threshold keeps small
  workloads on the serial path, so tiny queries never pay pool startup.
  The same fan-out (:func:`_fan_out`) carries the degradation ladder of
  :func:`repro.resilience.execute.resilient_marginals`, with the ladder as
  the per-component solve.

Exactness is unaffected throughout: every path computes the same marginals
as :func:`repro.core.inference.compute_marginal` on the full network
(``tests/perf/test_parallel.py`` cross-checks against the serial oracle and
brute force).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.core.inference import (
    VE_WIDTH_LIMIT,
    _dpll_marginal,
    _width_limit,
    compute_marginal,
    eliminate,
    network_factors,
    reduce_evidence,
)
from repro.core.network import EPSILON, AndOrNetwork, ComponentSlice
from repro.core.treeprop import is_tree_factorable, tree_marginals_array
from repro.errors import CapacityError
from repro.obs.trace import Tracer, current_tracer
from repro.obs.trace import span as _span
from repro.perf.cache import SubformulaCache
from repro.resilience.faults import apply_fault
from repro.resilience.pool import run_chunks

__all__ = [
    "ComponentWork",
    "estimate_component",
    "group_by_component",
    "solve_slice",
    "parallel_marginals",
    "DEFAULT_MIN_PARALLEL_COST",
]

#: Estimated total cost (factor-table entries touched) below which
#: :func:`parallel_marginals` stays serial: pool startup plus pickling costs
#: on the order of tens of milliseconds, so fanning out cheaper workloads
#: than this loses wall-clock.
DEFAULT_MIN_PARALLEL_COST = 250_000

#: What :attr:`~repro.lineage.exact.DPLLStats.engine` can report, cheapest
#: first; a slice with several targets is labelled with the dearest.
_LINEAGE_ENGINES = ("cache", "lineage-ve", "dpll")

#: Cost charged per factor when a component blows the width budget and will
#: go to the DPLL engine (whose true cost is structure-, not width-, bound):
#: the table size of a width-budget clique.
_WIDE_FACTOR_COST = 2 ** (VE_WIDTH_LIMIT + 2)


@dataclass
class ComponentWork:
    """One component's share of a marginals request."""

    slice: ComponentSlice
    #: Requested nodes, in slice-local ids.
    targets: list[int]
    #: Estimated solve cost in factor-table entries (scheduling only).
    cost: float
    #: Width-probe verdict, forwarded to :func:`solve_slice` so the probe
    #: runs once per component, not once per grouping *and* once per solve.
    narrow: bool = True


def estimate_component(net: AndOrNetwork, limit: int = VE_WIDTH_LIMIT):
    """Early-exit width probe: is the network's elimination width ≤ *limit*?

    Runs a min-degree greedy elimination over the ternary-decomposed factor
    graph, abandoning the pass the moment every remaining variable's degree
    exceeds *limit* — on wide components this exits within a few
    eliminations instead of paying the full quadratic pass that dominated
    the serial per-answer profile. Returns ``(narrow, cost)`` where *cost*
    estimates the solve in factor-table entries: the sum of elimination
    clique sizes ``2^(degree+1)`` when narrow, a per-factor DPLL proxy when
    wide.
    """
    factors = network_factors(net)
    adj: dict[int, set[int]] = {}
    for f in factors:
        for v in f.vars:
            adj.setdefault(v, set()).update(w for w in f.vars if w != v)
    heap = [(len(nbrs), v) for v, nbrs in adj.items()]
    heapq.heapify(heap)
    cost = 0.0
    while heap:
        degree, v = heapq.heappop(heap)
        nbrs = adj.get(v)
        if nbrs is None:
            continue  # already eliminated
        if len(nbrs) != degree:
            heapq.heappush(heap, (len(nbrs), v))  # stale entry; re-rank
            continue
        if degree > limit:
            # the *minimum* degree exceeds the budget: this greedy order
            # (our width estimator, as in ``induced_width``) is over budget
            return False, len(factors) * _WIDE_FACTOR_COST
        cost += float(2 ** (degree + 1))
        nbr_list = list(nbrs)
        for i, a in enumerate(nbr_list):
            sa = adj[a]
            for b in nbr_list[i + 1 :]:
                if b not in sa:
                    sa.add(b)
                    adj[b].add(a)
        for w in nbr_list:
            wn = adj[w]
            wn.discard(v)
            heapq.heappush(heap, (len(wn), w))
        del adj[v]
    return True, cost


def group_by_component(
    net: AndOrNetwork, nodes, limit: int = VE_WIDTH_LIMIT
) -> list[ComponentWork]:
    """Group requested node ids by connected component, one slice each.

    ε is skipped (its marginal is 1 by definition); every other node lands
    in exactly one :class:`ComponentWork` with the component extracted once
    and the node translated to its slice-local id.
    """
    components = net.components()
    by_label: dict[int, list[int]] = {}
    for v in dict.fromkeys(nodes):
        if v == EPSILON:
            continue
        by_label.setdefault(components.of(v), []).append(v)
    works: list[ComponentWork] = []
    for targets in by_label.values():
        part = net.extract_component(targets[0])
        narrow, cost = estimate_component(part.network, limit)
        works.append(
            ComponentWork(
                part, [part.to_sub(v) for v in targets], cost, narrow
            )
        )
    return works


def solve_slice(
    subnet: AndOrNetwork,
    targets,
    engine: str = "auto",
    dpll_max_calls: int = 5_000_000,
    cache: SubformulaCache | None = None,
    narrow: bool | None = None,
    budget=None,
) -> dict[int, float]:
    """Marginals of *targets* (slice-local ids) within one component.

    *engine* mirrors :func:`repro.core.inference.compute_marginal`:
    ``"auto"`` picks batched tree propagation for tree-factorable
    components, a single evidence-reduced variable elimination for a
    component with one target whose width probe stays within
    :data:`~repro.core.inference.VE_WIDTH_LIMIT`, and the cache-backed
    lineage path for everything else — compile each target's DNF and solve
    it exactly, by elimination over its clauses or by DPLL, as
    :func:`repro.lineage.exact.dnf_probability` decides (falling back to
    network variable elimination if DNF compilation blows up); ``"ve"``
    forces one network elimination per target, ``"dpll"`` the lineage path.
    The span's ``path`` names the engine that answered — ``tree``, ``ve``,
    ``lineage-ve``, ``dpll`` or ``cache`` (every target a root hit in
    *cache*) — with the lineage order's ``width`` and ``eliminated`` /
    ``dpll_calls`` counters. *narrow* optionally forwards an
    already-computed :func:`estimate_component` verdict so the probe is not
    repeated. *budget* is an optional :class:`~repro.resilience.QueryBudget`
    threaded into every backend's cooperative checkpoints (its
    ``max_width`` also overrides the width-probe limit when the probe runs
    here).
    """
    if engine not in ("auto", "ve", "dpll"):
        raise ValueError(f"unknown inference engine {engine!r}")
    targets = [t for t in targets]
    real = [t for t in targets if t != EPSILON]
    if budget is not None:
        budget.checkpoint("solve_slice")
    with _span(
        "solve_slice", nodes=len(subnet), targets=len(targets)
    ) as sp:
        if engine == "auto" and is_tree_factorable(subnet):
            sp.annotate(path="tree")
            arr = tree_marginals_array(subnet, check=False, budget=budget)
            return {t: float(arr[t]) for t in targets}
        if engine == "auto" and len(real) == 1 and narrow is None:
            narrow, _ = estimate_component(subnet, _width_limit(budget))
        if engine == "ve" or (engine == "auto" and len(real) == 1 and narrow):
            # the common sliced shape is one answer per component; several
            # answers share the lineage path below, whose clause elimination
            # beats one network elimination per target
            sp.annotate(path="ve")
            factors = network_factors(subnet)
            out = {t: 1.0 for t in targets}
            for t in real:
                reduced = [reduce_evidence(f, {t: 1}) for f in factors]
                out[t] = float(eliminate(reduced, budget=budget).table)
            return out
        # the lineage path: which engine answers is the exact solver's call,
        # so the span is annotated from what it reports, worst target first
        from repro.lineage.exact import DPLLStats

        path, width = "cache", 0
        out: dict[int, float] = {}
        for t in targets:
            if t == EPSILON:
                out[t] = 1.0
                continue
            stats = DPLLStats()
            try:
                out[t] = _dpll_marginal(
                    subnet, t, dpll_max_calls, cache, budget, stats
                )
            except CapacityError:
                # DNF blow-up: retry with plain variable elimination, exactly
                # the serial path's fallback.
                sp.add("ve_fallbacks")
                out[t] = compute_marginal(
                    subnet, t, "ve", dpll_max_calls, budget=budget
                )
            finally:
                path = max(path, stats.engine, key=_LINEAGE_ENGINES.index)
                width = max(width, stats.width)
                sp.annotate(path=path, width=width)
        return out


def _chunk_by_cost(
    works: list[ComponentWork], chunks: int
) -> list[list[int]]:
    """LPT bin packing: indices of *works* split into ≤ *chunks* bins."""
    bins: list[tuple[float, list[int]]] = [(0.0, []) for _ in range(chunks)]
    heap = [(0.0, i) for i in range(chunks)]
    heapq.heapify(heap)
    order = sorted(
        range(len(works)), key=lambda i: works[i].cost, reverse=True
    )
    for i in order:
        load, b = heapq.heappop(heap)
        bins[b][1].append(i)
        heapq.heappush(heap, (load + works[i].cost, b))
    return [members for _, members in bins if members]


def _solve_chunk(payload):
    """Worker entry point: solve one chunk of component tasks.

    Returns the per-task result dicts, the worker's subformula-cache
    entries (canonical keys are rename-invariant, so the caller's merge-back
    stays valid across the component id-remaps and across workers), and —
    when the dispatching process had a tracer active — the worker's span
    forest, which the caller grafts under its dispatch span so a
    ``workers=2`` run still renders as one timeline. The chunk's injected
    fault, if any, fires first (chaos tests only).
    """
    solver, tasks, budget, traced, chunk, attempt, fault_plan = payload
    fault = None if fault_plan is None else fault_plan.for_chunk(chunk, attempt)
    poison = apply_fault(fault)
    if budget is not None:
        budget = budget.start()
    cache = SubformulaCache()

    def solve_all():
        return [solver(task, cache, budget, None) for task in tasks]

    if traced:
        with Tracer() as tracer:
            with tracer.span("worker_chunk", tasks=len(tasks)):
                solved = solve_all()
        spans = tracer.roots
    else:
        solved = solve_all()
        spans = []
    if poison:
        solved = [{t: solver.poison(v) for t, v in d.items()} for d in solved]
    return solved, cache.entries(), spans


def _fan_out(
    span_name: str, net: AndOrNetwork, nodes, solver, *,
    workers, min_parallel_cost, chunks_per_worker, cache, budget, registry,
    timeout, max_retries, fault_plan, **attrs,
) -> dict:
    """The component fan-out behind :func:`parallel_marginals` and
    :func:`repro.resilience.execute.resilient_marginals`.

    Groups *nodes* by component (probing each under *budget*'s width
    limit), then solves every component with *solver* — in-process, or
    LPT-chunked over :func:`~repro.resilience.pool.run_chunks` with
    worker-cache merge-back and span grafting. *solver* is a picklable
    object that ships to the workers:

    * ``solver.tasks(works)`` — one picklable task per
      :class:`ComponentWork`;
    * ``solver(task, cache, budget, registry)`` — ``{slice id: value}``;
    * ``solver.epsilon()`` — the value reported for ε;
    * ``solver.sound(value)`` / ``solver.poison(value)`` — the merge-back
      validator and the chaos suite's corruption of one value.

    *budget* must already be started (or ``None``).
    """
    works = group_by_component(net, nodes, _width_limit(budget))
    tasks = solver.tasks(works)
    total_cost = sum(w.cost for w in works)
    if workers is None or workers < 2:
        fallback_reason = "no_workers"
    elif len(works) < 2:
        fallback_reason = "single_component"
    elif total_cost < min_parallel_cost:
        fallback_reason = "below_cost_threshold"
    else:
        fallback_reason = None
    out = {EPSILON: solver.epsilon()}
    if cache is None:
        # one call's in-process solves still share subformulas
        cache = SubformulaCache()

    def solve(members) -> list[dict]:
        return [solver(tasks[i], cache, budget, registry) for i in members]

    def merge(members, solved_list) -> None:
        for i, solved in zip(members, solved_list):
            for sub, value in solved.items():
                out[works[i].slice.to_orig(sub)] = value

    with _span(
        span_name, **attrs, components=len(works), total_cost=total_cost
    ) as sp:
        if registry is not None:
            registry.gauge("pool.components", len(works))
            registry.gauge("pool.total_cost", total_cost)
        if fallback_reason is not None:
            sp.annotate(mode="serial", fallback_reason=fallback_reason)
            if registry is not None:
                registry.inc(f"pool.serial_fallback.{fallback_reason}")
            everything = range(len(works))
            merge(everything, solve(everything))
            return out
        chunks = _chunk_by_cost(works, workers * chunks_per_worker)
        sp.annotate(mode="parallel", workers=workers, chunks=len(chunks))
        if registry is not None:
            registry.gauge("pool.workers", workers)
            registry.inc("pool.dispatches")
            registry.inc("pool.chunks", len(chunks))
            for members in chunks:
                registry.observe("pool.chunk_tasks", len(members))
                registry.observe(
                    "pool.chunk_cost", sum(works[i].cost for i in members)
                )
        tracer = current_tracer()

        def payload_fn(index, attempt):
            return (
                solver, [tasks[i] for i in chunks[index]],
                None if budget is None else budget.for_worker(),
                tracer is not None, index, attempt, fault_plan,
            )

        def validate(result) -> str | None:
            solved_list, _entries, _spans = result
            for solved in solved_list:
                if not all(map(solver.sound, solved.values())):
                    return "poisoned_result"
            return None

        outcomes = run_chunks(
            _solve_chunk,
            payload_fn,
            len(chunks),
            workers=workers,
            serial_fn=lambda index: (solve(chunks[index]), [], []),
            timeout=timeout,
            max_retries=max_retries,
            validate=validate,
            registry=registry,
        )
        for members, chunk_outcome in zip(chunks, outcomes):
            solved_list, entries, worker_spans = chunk_outcome.result
            merge(members, solved_list)
            if entries:
                cache.merge(entries)
            if worker_spans and tracer is not None:
                tracer.attach(worker_spans, under=sp.span)
        return out


@dataclass(frozen=True)
class _SliceSolver:
    """:func:`solve_slice` as a :func:`_fan_out` solver."""

    engine: str
    dpll_max_calls: int

    @staticmethod
    def tasks(works):
        return [(w.slice.network, w.targets, w.narrow) for w in works]

    def __call__(self, task, cache, budget, registry):
        subnet, targets, narrow = task
        return solve_slice(
            subnet, targets, self.engine, self.dpll_max_calls, cache,
            narrow=narrow, budget=budget,
        )

    @staticmethod
    def epsilon() -> float:
        return 1.0

    sound = staticmethod(math.isfinite)

    @staticmethod
    def poison(_prob: float) -> float:
        return math.nan


def parallel_marginals(
    net: AndOrNetwork,
    nodes,
    *,
    workers: int | None = None,
    engine: str = "auto",
    dpll_max_calls: int = 5_000_000,
    cache: SubformulaCache | None = None,
    min_parallel_cost: float = DEFAULT_MIN_PARALLEL_COST,
    chunks_per_worker: int = 4,
    registry=None,
    budget=None,
    timeout: float | None = None,
    max_retries: int = 2,
    fault_plan=None,
) -> dict[int, float]:
    """Marginals of *nodes* with component-parallel process fan-out.

    With ``workers`` unset (or < 2), or when the components' total estimated
    cost stays under *min_parallel_cost*, or when there is only one
    component, the components are solved in-process one after another —
    small workloads never pay pool startup. Otherwise the component slices
    are packed into ``workers * chunks_per_worker`` cost-balanced chunks and
    dispatched through the fault-tolerant
    :func:`repro.resilience.pool.run_chunks`; worker cache entries are merged
    back into *cache* afterwards, so later queries sharing the caller's cache
    still benefit from the fan-out's work.

    Fault tolerance: a worker crash (``BrokenProcessPool``), a chunk
    exceeding the per-dispatch *timeout*, or a poisoned (non-finite) result
    retries the chunk on a fresh pool up to *max_retries* rounds, then
    requeues it to the in-process serial path — so a dead or stuck worker
    degrades throughput, never correctness. *fault_plan* is a
    :class:`~repro.resilience.faults.FaultPlan` injecting deterministic
    failures for the chaos suite. *budget* is an optional
    :class:`~repro.resilience.QueryBudget` threaded into the workers (as a
    remaining-deadline copy) and the serial paths; its ``max_width`` sets
    the width probe's limit.

    *registry* is an optional :class:`~repro.obs.metrics.MetricsRegistry`
    recording the pool's scheduling decisions: worker and chunk counts,
    chunk-size/cost histograms (``pool.chunk_tasks``, ``pool.chunk_cost``),
    one ``pool.serial_fallback.<reason>`` counter per serial fallback
    (``no_workers``, ``single_component``, ``below_cost_threshold``), and
    the dispatcher's retry accounting (``pool.chunk_failure.<reason>``,
    ``pool.worker_crashes``, ``pool.timeouts``, ``pool.requeued_serial``).
    A tracer active on the calling thread
    (:class:`~repro.obs.trace.Tracer`) additionally makes the workers trace
    their solves and ship the span forests back, merged under this call's
    dispatch span.

    Worker failures still propagate: an
    :class:`~repro.errors.InferenceError` raised in a worker (e.g. the DPLL
    call budget) is retried, requeued, and finally re-raised by the serial
    path — matching the serial oracle exactly.
    """
    if engine not in ("auto", "ve", "dpll"):
        raise ValueError(f"unknown inference engine {engine!r}")
    if budget is not None:
        budget = budget.start()
    return _fan_out(
        "parallel_marginals", net, nodes,
        _SliceSolver(engine, dpll_max_calls),
        workers=workers, min_parallel_cost=min_parallel_cost,
        chunks_per_worker=chunks_per_worker, cache=cache, budget=budget,
        registry=registry, timeout=timeout, max_retries=max_retries,
        fault_plan=fault_plan, engine=engine,
    )
