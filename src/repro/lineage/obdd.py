"""OBDD-based exact confidence computation [17].

Olteanu-Huang compile the lineage DNF into an ordered binary decision
diagram; the probability then falls out of one linear bottom-up pass. The
compilation is the same Shannon expansion the DPLL solver performs, but
*materialised* with a unique table, so repeated sub-functions are stored once
and the result is reusable for many probability computations (e.g. under
updated tuple probabilities — a capability the DPLL path lacks).

The OBDD size is exponential in the worst case (the paper's Theorem 4.2
argument: already the safe ``R(x,y), S(x,z)`` has no bounded-width OBDD under
any order), so construction takes a node budget. For strictly hierarchical
lineage a frequency-driven order keeps the OBDD linear.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import CapacityError
from repro.lineage.dnf import DNF, EventVar
from repro.lineage.masks import deep_recursion
from repro.obs.trace import span as _span
from repro.perf.cache import SubformulaCache

#: Terminal node ids.
FALSE, TRUE = 0, 1


@dataclass
class OBDD:
    """A reduced ordered BDD over :class:`EventVar` variables.

    ``nodes[i] = (var_index, low, high)`` for ``i >= 2``; ids 0 and 1 are the
    ``false``/``true`` terminals. ``order`` maps variable index to variable.
    """

    order: tuple[EventVar, ...]
    nodes: list[tuple[int, int, int]] = field(default_factory=list)
    root: int = FALSE

    def __len__(self) -> int:
        """Number of decision nodes (terminals excluded)."""
        return len(self.nodes)

    def node(self, node_id: int) -> tuple[int, int, int]:
        """Decision node payload for ``node_id >= 2``."""
        return self.nodes[node_id - 2]

    def probability(self, probs: Mapping[EventVar, float]) -> float:
        """Exact probability of the encoded function: one bottom-up pass."""
        cache: dict[int, float] = {FALSE: 0.0, TRUE: 1.0}
        for node_id in range(2, len(self.nodes) + 2):
            var_index, low, high = self.node(node_id)
            p = float(probs[self.order[var_index]])
            cache[node_id] = (1.0 - p) * cache[low] + p * cache[high]
        return cache[self.root]

    def as_arrays(self) -> tuple:
        """Flat array export: ``(var_index, low, high)`` int64 columns.

        The vectorized handoff to :mod:`repro.circuit`: rows are decision
        nodes in id order (node ``i + 2`` at row ``i``), entries reference
        node ids with 0/1 the terminals. Children always precede parents,
        so a consumer can lower the table in one forward pass.
        """
        import numpy as np

        if not self.nodes:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        table = np.asarray(self.nodes, dtype=np.int64)
        return table[:, 0], table[:, 1], table[:, 2]

    def evaluate(self, world: Mapping[EventVar, bool]) -> bool:
        """Evaluate the encoded function on a world."""
        node_id = self.root
        while node_id not in (FALSE, TRUE):
            var_index, low, high = self.node(node_id)
            node_id = high if world.get(self.order[var_index], False) else low
        return node_id == TRUE


def default_variable_order(dnf: DNF) -> tuple[EventVar, ...]:
    """A locality-preserving order: co-occurring variables stay adjacent.

    Traverses each connected component of the co-occurrence graph breadth-
    first from its most frequent variable, expanding neighbours by descending
    frequency. For hierarchical lineage this keeps every root variable next
    to its dependents (``r_a`` before ``s_{a,*}``), which is what yields the
    linear-size OBDDs of [17]; a global frequency sort would instead separate
    the groups and blow the width up exponentially.
    """
    counts: Counter[EventVar] = Counter()
    adjacency: dict[EventVar, set[EventVar]] = {}
    for clause in dnf.clauses:
        counts.update(clause)
        for a in clause:
            adjacency.setdefault(a, set()).update(b for b in clause if b != a)

    def priority(var: EventVar):
        return (-counts[var], var)

    order: list[EventVar] = []
    visited: set[EventVar] = set()
    for seed in sorted(adjacency, key=priority):
        if seed in visited:
            continue
        frontier = [seed]
        visited.add(seed)
        while frontier:
            var = frontier.pop(0)
            order.append(var)
            for nxt in sorted(adjacency[var] - visited, key=priority):
                visited.add(nxt)
                frontier.append(nxt)
    return tuple(order)


def build_obdd(
    dnf: DNF,
    order: Sequence[EventVar] | None = None,
    max_nodes: int = 200_000,
    *,
    cache: SubformulaCache | None = None,
    budget=None,
) -> OBDD:
    """Compile a monotone DNF into a reduced OBDD.

    Parameters
    ----------
    dnf:
        The formula (over positive literals).
    order:
        Variable order; defaults to :func:`default_variable_order`. Must
        cover every variable of the formula.
    max_nodes:
        Construction budget; :class:`~repro.errors.CapacityError` beyond it.
    budget:
        Optional :class:`~repro.resilience.QueryBudget`; the deadline is
        checked cooperatively every few hundred created nodes.
    cache:
        Optional shared :class:`~repro.perf.SubformulaCache`. The compiled
        node table depends only on the clause structure *over order
        positions*, so two lineages that look the same once variables are
        replaced by their positions (e.g. the per-answer lineages of a
        Section 6.1 multi-answer query) share one compilation; a hit returns
        a fresh :class:`OBDD` wrapping the cached nodes under the new order.

    Examples
    --------
    >>> x, y = EventVar("R", (1,)), EventVar("R", (2,))
    >>> d = build_obdd(DNF([{x}, {y}]))
    >>> len(d)                      # x ∨ y: two decision nodes
    2
    >>> d.probability({x: 0.5, y: 0.5})
    0.75
    """
    variables = dnf.variables()
    if order is None:
        order = default_variable_order(dnf)
    order = tuple(order)
    missing = variables - set(order)
    if missing:
        raise ValueError(f"order misses variables: {sorted(map(str, missing))}")
    position = {v: i for i, v in enumerate(order)}

    structure_key = None
    if cache is not None:
        structure_key = (
            "obdd",
            frozenset(
                frozenset(position[v] for v in c) for c in dnf.clauses
            ),
        )
        hit = cache.get(structure_key)
        if hit is not None:
            nodes, root = hit
            return OBDD(order=order, nodes=list(nodes), root=root)

    obdd = OBDD(order=order)
    unique: dict[tuple[int, int, int], int] = {}

    def make(var_index: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var_index, low, high)
        hit = unique.get(key)
        if hit is not None:
            return hit
        if len(obdd.nodes) >= max_nodes:
            raise CapacityError(
                f"OBDD construction exceeded {max_nodes} nodes; the lineage "
                f"has no small OBDD under this order (cf. Theorem 4.2)"
            )
        if budget is not None and len(obdd.nodes) % 256 == 0:
            budget.checkpoint("obdd")
        obdd.nodes.append(key)
        node_id = len(obdd.nodes) + 1
        unique[key] = node_id
        return node_id

    memo: dict[frozenset[frozenset[EventVar]], int] = {}

    def compile_clauses(clauses: frozenset[frozenset[EventVar]]) -> int:
        if not clauses:
            return FALSE
        if frozenset() in clauses:
            return TRUE
        hit = memo.get(clauses)
        if hit is not None:
            return hit
        # branch on the order-minimal variable present in the formula
        var = min((v for c in clauses for v in c), key=position.__getitem__)
        high_clauses = frozenset(
            c - {var} for c in clauses if var in c
        ) | frozenset(c for c in clauses if var not in c)
        low_clauses = frozenset(c for c in clauses if var not in c)
        high = compile_clauses(high_clauses)
        low = compile_clauses(low_clauses)
        node_id = make(position[var], low, high)
        memo[clauses] = node_id
        return node_id

    with _span(
        "build_obdd", variables=len(order), clauses=len(dnf.clauses)
    ) as sp, deep_recursion(len(order)):
        obdd.root = compile_clauses(dnf.clauses)
        sp.add("obdd_nodes", len(obdd))
    if cache is not None:
        cache.put(structure_key, (tuple(obdd.nodes), obdd.root))
    return obdd


def obdd_probability(
    dnf: DNF,
    probs: Mapping[EventVar, float],
    order: Sequence[EventVar] | None = None,
    max_nodes: int = 200_000,
    *,
    cache: SubformulaCache | None = None,
) -> float:
    """Convenience: compile and evaluate in one call."""
    return build_obdd(dnf, order, max_nodes, cache=cache).probability(probs)
