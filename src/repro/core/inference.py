"""Exact inference on And-Or networks.

Theorem 5.17 of the paper computes marginals in ``O(|G| · 16^tw(Ḡ))`` given a
tree decomposition of the network's undirected graph. We implement the
standard, practically equivalent pipeline:

1. **Decompose** every noisy gate into a chain of at-most-ternary factors
   (the ``D(G)`` construction of Section 4.3.2, exploiting decomposability
   [22]): an Or node ``v`` with parents ``w1..wk`` becomes auxiliary variables
   ``a1 = noisy(w1)``, ``ai = ai-1 ∨ noisy(wi)``, with ``v = ak`` — and
   symmetrically for And. Every factor then touches at most 3 variables.
2. **Prune barren nodes**: a marginal over targets depends only on the
   targets' ancestors in the DAG (descendants integrate to 1).
3. **Eliminate** variables greedily in min-fill order, multiplying and
   summing out factor tables (numpy arrays over {0,1} axes).

The running time is exponential only in the treewidth of the decomposed,
moralised graph — within a small constant of the paper's bound — and linear
in everything else.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.errors import CapacityError, InferenceError
from repro.obs.trace import add as _add
from repro.obs.trace import span as _span

#: Hard cap on intermediate factor arity: 2**22 floats ≈ 32 MB.
MAX_FACTOR_VARS = 22


@dataclass
class Factor:
    """A table over Boolean variables: ``table.shape == (2,) * len(vars)``."""

    vars: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.table.shape != (2,) * len(self.vars):
            raise InferenceError(
                f"factor table shape {self.table.shape} does not match "
                f"{len(self.vars)} variables"
            )


def _expand(factor: Factor, out_vars: tuple[int, ...]) -> np.ndarray:
    """View the factor's table over *out_vars* (a superset), via broadcasting."""
    order = {v: i for i, v in enumerate(out_vars)}
    perm = sorted(range(len(factor.vars)), key=lambda i: order[factor.vars[i]])
    t = np.transpose(factor.table, perm)
    shape = tuple(2 if v in set(factor.vars) else 1 for v in out_vars)
    return t.reshape(shape)


def multiply(f1: Factor, f2: Factor) -> Factor:
    """Pointwise product of two factors over the union of their variables."""
    out_vars = tuple(dict.fromkeys(f1.vars + f2.vars))
    if len(out_vars) > MAX_FACTOR_VARS:
        raise InferenceError(
            f"intermediate factor over {len(out_vars)} variables exceeds the "
            f"budget of {MAX_FACTOR_VARS}; the network's treewidth is too high "
            f"for exact inference (the paper's Fig. 6 phase transition)"
        )
    return Factor(out_vars, _expand(f1, out_vars) * _expand(f2, out_vars))


def sum_out(factor: Factor, var: int) -> Factor:
    """Marginalise *var* away."""
    axis = factor.vars.index(var)
    return Factor(
        factor.vars[:axis] + factor.vars[axis + 1 :],
        factor.table.sum(axis=axis),
    )


def reduce_evidence(factor: Factor, evidence: Mapping[int, int]) -> Factor:
    """Slice the factor at the observed values of any of its variables."""
    f = factor
    for var, value in evidence.items():
        if var in f.vars:
            axis = f.vars.index(var)
            f = Factor(
                f.vars[:axis] + f.vars[axis + 1 :],
                np.take(f.table, value, axis=axis),
            )
    return f


# ----------------------------------------------------------- decomposition
def _leaf_factor(var: int, p: float) -> Factor:
    return Factor((var,), np.array([1.0 - p, p]))


def _noisy_unary(parent: int, out: int, q: float) -> Factor:
    """``Pr(out=1 | parent) = q * parent`` (single-parent And and Or agree)."""
    t = np.empty((2, 2))
    for w in (0, 1):
        p1 = q * w
        t[w, 0], t[w, 1] = 1.0 - p1, p1
    return Factor((parent, out), t)


def _noisy_step(kind: NodeKind, prev: int, parent: int, out: int, q: float) -> Factor:
    """Chain step: ``out = prev ∘ noisy(parent)`` for ``∘`` ∈ {∨, ∧}."""
    t = np.empty((2, 2, 2))
    for a in (0, 1):
        for w in (0, 1):
            nz = q * w
            p1 = a * nz if kind is NodeKind.AND else 1.0 - (1.0 - a) * (1.0 - nz)
            t[a, w, 0], t[a, w, 1] = 1.0 - p1, p1
    return Factor((prev, parent, out), t)


def network_factors(
    net: AndOrNetwork, relevant: Iterable[int] | None = None
) -> list[Factor]:
    """Ternary-decomposed factors for (a relevant subset of) the network.

    Auxiliary chain variables get ids beyond ``len(net)``. When *relevant* is
    given, only those nodes (which must be ancestor-closed) are encoded.
    """
    nodes = sorted(relevant) if relevant is not None else list(net.nodes())
    aux = itertools.count(len(net))
    factors: list[Factor] = []
    for v in nodes:
        kind = net.kind(v)
        if kind is NodeKind.LEAF:
            factors.append(_leaf_factor(v, net.leaf_probability(v)))
            continue
        parents = net.parents(v)
        if len(parents) == 1:
            w, q = parents[0]
            factors.append(_noisy_unary(w, v, q))
            continue
        prev = None
        for i, (w, q) in enumerate(parents):
            last = i == len(parents) - 1
            if i == 0:
                prev = next(aux)
                factors.append(_noisy_unary(w, prev, q))
            else:
                out = v if last else next(aux)
                factors.append(_noisy_step(kind, prev, w, out, q))
                prev = out
    return factors


# -------------------------------------------------------------- elimination
def min_fill_order(
    factors: Sequence[Factor], keep: Iterable[int] = ()
) -> list[int]:
    """Greedy min-fill elimination order over the factors' interaction graph.

    Variables in *keep* are not eliminated. Ties break toward smaller degree,
    then smaller id (determinism).
    """
    keep_set = set(keep)
    adj: dict[int, set[int]] = {}
    for f in factors:
        for v in f.vars:
            adj.setdefault(v, set()).update(w for w in f.vars if w != v)
    order: list[int] = []
    candidates = set(adj) - keep_set
    while candidates:
        def fill_cost(v: int) -> tuple[int, int, int]:
            nbrs = [w for w in adj[v] if w in adj]
            missing = 0
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1 :]:
                    if b not in adj[a]:
                        missing += 1
            return (missing, len(nbrs), v)

        v = min(candidates, key=fill_cost)
        nbrs = [w for w in adj[v] if w in adj]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        for w in nbrs:
            adj[w].discard(v)
        del adj[v]
        candidates.discard(v)
        order.append(v)
    return order


def eliminate(
    factors: Sequence[Factor],
    keep: Iterable[int] = (),
    order: Sequence[int] | None = None,
    budget=None,
) -> Factor:
    """Variable elimination: sum out everything not in *keep*.

    Returns a single factor over (a subset of) *keep*; with an empty *keep*
    the result is a scalar factor holding the requested probability mass.
    An optional :class:`~repro.resilience.QueryBudget` is checkpointed once
    per eliminated variable, so a deadline interrupts the pass between
    factor products rather than after the whole elimination.
    """
    keep_set = set(keep)
    if order is None:
        order = min_fill_order(factors, keep_set)
    buckets: list[Factor] = list(factors)
    for var in order:
        if budget is not None:
            budget.checkpoint("eliminate")
        involved = [f for f in buckets if var in f.vars]
        if not involved:
            continue
        rest = [f for f in buckets if var not in f.vars]
        prod = involved[0]
        for f in involved[1:]:
            prod = multiply(prod, f)
        buckets = rest + [sum_out(prod, var)]
    result = Factor((), np.array(1.0))
    for f in buckets:
        result = multiply(result, f)
    return result


def induced_width(factors: Sequence[Factor], keep: Iterable[int] = ()) -> int:
    """Width of the greedy min-degree order (treewidth upper bound minus 1).

    A cheap proxy for the paper's treewidth measurements: the largest factor
    created during elimination has ``width + 1`` variables. Each step
    eliminates the variable of least ``(degree, id)``, found through a heap
    whose entries go stale when a neighbour's elimination changes a degree.
    """
    keep_set = set(keep)
    adj: dict[int, set[int]] = {}
    for f in factors:
        for v in f.vars:
            adj.setdefault(v, set()).update(w for w in f.vars if w != v)
    heap = [(len(nbrs), v) for v, nbrs in adj.items() if v not in keep_set]
    heapq.heapify(heap)
    width = 0
    while heap:
        degree, v = heapq.heappop(heap)
        if v not in adj or len(adj[v]) != degree:
            continue
        nbrs = list(adj.pop(v))
        width = max(width, degree)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        for w in nbrs:
            adj[w].discard(v)
            if w not in keep_set:
                heapq.heappush(heap, (len(adj[w]), w))
    return width


# ------------------------------------------------------------------ queries
#: ``auto`` uses variable elimination when the estimated elimination width is
#: at most this; wider networks go to the DPLL path, whose context-specific
#: decompositions beat pure treewidth methods on the benchmark workloads.
VE_WIDTH_LIMIT = 6


def _width_limit(budget) -> int:
    """:data:`VE_WIDTH_LIMIT`, or *budget*'s ``max_width`` when it sets one."""
    return VE_WIDTH_LIMIT if budget is None else budget.width_limit(VE_WIDTH_LIMIT)


def assignment_probability(
    net: AndOrNetwork, assignment: Mapping[int, int]
) -> float:
    """``N^0(y)``: the marginal probability of a partial assignment (Sec 5.1)."""
    if assignment.get(EPSILON, 1) == 0:
        return 0.0
    relevant = net.ancestors(assignment)
    relevant.add(EPSILON)
    factors = [reduce_evidence(f, assignment) for f in network_factors(net, relevant)]
    return float(eliminate(factors).table)


def _dpll_marginal(
    net: AndOrNetwork, node: int, max_calls: int, cache, budget, stats
) -> float:
    """``Pr(node=1)`` by compiling the partial-lineage DNF and solving it
    exactly (:func:`repro.lineage.exact.dnf_probability`: elimination when
    the lineage is narrow, DPLL beyond) — the structure-exploiting path for
    high-treewidth networks (the paper: "on this we run any general purpose
    probabilistic inference algorithm"). The work it did, also when the cap
    or the deadline ended it, fills *stats* (a
    :class:`~repro.lineage.exact.DPLLStats`) and is added to the caller's
    span as ``dpll_calls`` and ``eliminated``."""
    from repro.core.compile import partial_lineage_dnf
    from repro.lineage.exact import dnf_probability

    dnf, probs = partial_lineage_dnf(net, node)
    try:
        return dnf_probability(
            dnf, probs, max_calls=max_calls, cache=cache, budget=budget,
            stats=stats,
        )
    finally:
        _add("dpll_calls", stats.calls)
        _add("eliminated", stats.eliminated)


def _lineage_marginal(sp, net, node, max_calls, cache, budget) -> float:
    """:func:`_dpll_marginal` for a span with one target: *sp* is annotated
    with the engine that answered and its width."""
    from repro.lineage.exact import DPLLStats

    stats = DPLLStats()
    try:
        return _dpll_marginal(net, node, max_calls, cache, budget, stats)
    finally:
        sp.annotate(path=stats.engine, width=stats.width)


def compute_marginal(
    net: AndOrNetwork,
    node: int,
    engine: str = "auto",
    dpll_max_calls: int = 5_000_000,
    cache=None,
    budget=None,
) -> float:
    """``Pr(node = 1)`` exactly.

    ``engine`` selects the inference path:

    * ``"ve"`` — variable elimination on the decomposed factors, exponential
      in the network treewidth (Theorem 5.17's counterpart);
    * ``"dpll"`` — compile the partial-lineage DNF and solve it exactly
      (:func:`repro.lineage.exact.dnf_probability`: bucket elimination over
      the clauses when their width allows, DPLL — which exploits
      context-specific decompositions treewidth cannot see — beyond);
    * ``"auto"`` (default) — variable elimination on narrow networks (width
      at most :data:`VE_WIDTH_LIMIT`, e.g. hash-collapsed tree networks),
      the lineage path beyond; if DNF compilation itself is infeasible, fall
      back to variable elimination.

    The span's ``path`` names the engine that answered: ``ve``,
    ``lineage-ve``, ``dpll``, or ``cache`` (a root hit in *cache*).

    *cache* is an optional shared :class:`~repro.perf.SubformulaCache` for
    the lineage path, letting repeated marginal computations (e.g. one per
    answer tuple) reuse subformula probabilities across nodes. *budget* is
    an optional :class:`~repro.resilience.QueryBudget` checkpointed
    cooperatively by every path (its ``max_width`` also overrides
    :data:`VE_WIDTH_LIMIT` for the auto engine choice and the lineage
    solver's own width limit).
    """
    if node == EPSILON:
        return 1.0
    with _span("compute_marginal", engine=engine) as sp:
        if engine == "dpll":
            return _lineage_marginal(
                sp, net, node, dpll_max_calls, cache, budget
            )
        if engine not in ("auto", "ve"):
            raise ValueError(f"unknown inference engine {engine!r}")
        if budget is not None:
            budget.checkpoint("compute_marginal")
        relevant = net.ancestors([node])
        relevant.add(EPSILON)
        factors = network_factors(net, relevant)
        if (
            engine == "auto"
            and induced_width(factors, keep={node}) > _width_limit(budget)
        ):
            try:
                return _lineage_marginal(
                    sp, net, node, dpll_max_calls, cache, budget
                )
            except CapacityError:
                pass  # DNF blow-up: retry below with variable elimination
        sp.annotate(path="ve")
        sp.add("factors", len(factors))
        reduced = [reduce_evidence(f, {node: 1}) for f in factors]
        return float(eliminate(reduced, budget=budget).table)


def compute_marginals(
    net: AndOrNetwork,
    nodes: Iterable[int],
    engine: str = "auto",
    dpll_max_calls: int = 5_000_000,
    cache=None,
) -> dict[int, float]:
    """Marginals ``Pr(v=1)`` for several nodes, sharing ancestor pruning.

    Each node's computation touches only its own ancestors, so disconnected
    parts of the network (e.g. per-head-value components) never meet. A
    shared *cache* (see :func:`compute_marginal`) lets the per-node DPLL
    solves reuse each other's subformula results.
    """
    out: dict[int, float] = {}
    for v in dict.fromkeys(nodes):
        out[v] = compute_marginal(net, v, engine, dpll_max_calls, cache)
    return out
