"""Treewidth of lineage DNFs (Section 4.3.1 and Theorem 4.2).

The paper associates with a DNF the hypergraph whose hyperedges are its
clauses; the treewidth of the *primal graph* (clique per clause) governs the
cost of structure-exploiting intensional inference. Theorem 4.2: the queries
with instance-independent bounded lineage treewidth are exactly the strictly
hierarchical ones — e.g. the safe query ``R(x,y), S(x,z)`` already has
unbounded treewidth, and a many-many join embeds ``K_{m,n}`` (Fact 5.18:
``tw(K_{m,n}) = min(m,n)``).

Exact treewidth is itself NP-hard; we provide a subset-DP exact algorithm for
small graphs (tests and Fact 5.18 checks) and min-fill / min-degree heuristic
upper bounds (via networkx) for the experiment-scale measurements.
networkx is imported by the functions that use it, so no query path pays
for it at start-up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import CapacityError
from repro.lineage.dnf import DNF

if TYPE_CHECKING:
    import networkx as nx

#: Exact treewidth DP is O(2^n * n * m); refuse beyond this many vertices.
_MAX_EXACT = 18


def primal_graph(dnf: DNF) -> nx.Graph:
    """Primal graph of the DNF's hypergraph: one clique per clause."""
    import networkx as nx

    g = nx.Graph()
    for clause in dnf.clauses:
        members = sorted(clause)
        g.add_nodes_from(members)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                g.add_edge(a, b)
    return g


def treewidth_upper_bound(graph: nx.Graph, heuristic: str = "min_fill") -> int:
    """Heuristic treewidth upper bound (``min_fill`` or ``min_degree``)."""
    from networkx.algorithms.approximation import (
        treewidth_min_degree,
        treewidth_min_fill_in,
    )

    if graph.number_of_nodes() == 0:
        return 0
    if heuristic == "min_fill":
        width, _ = treewidth_min_fill_in(graph)
    elif heuristic == "min_degree":
        width, _ = treewidth_min_degree(graph)
    else:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    return width


def treewidth_exact(graph: nx.Graph) -> int:
    """Exact treewidth by dynamic programming over vertex subsets.

    Uses the elimination-order characterisation: ``tw(G)`` is the minimum over
    orders of the maximum degree at elimination time, where eliminating a
    vertex connects its remaining neighbours. ``f(S)`` is the best width for
    eliminating set ``S`` first; the degree of ``v`` eliminated after ``S`` is
    the number of vertices outside ``S ∪ {v}`` reachable from ``v`` through
    ``S``.

    Raises
    ------
    CapacityError
        If the graph has more than 18 vertices.
    """
    nodes = sorted(graph.nodes())
    n = len(nodes)
    if n > _MAX_EXACT:
        raise CapacityError(f"{n} vertices exceed the exact treewidth limit")
    if n == 0:
        return 0
    index = {v: i for i, v in enumerate(nodes)}
    adj = [0] * n
    for a, b in graph.edges():
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]

    def eliminated_degree(v: int, eliminated: int) -> int:
        """Vertices outside ``eliminated ∪ {v}`` reachable from ``v`` through
        already-eliminated vertices (BFS expanding only inside the set)."""
        visited = 1 << v
        pending = adj[v] & ~visited
        reach = 0
        while pending:
            low = pending & -pending
            pending ^= low
            if visited & low:
                continue
            visited |= low
            if eliminated & low:
                pending |= adj[low.bit_length() - 1] & ~visited
            else:
                reach |= low
        return bin(reach).count("1")

    best = {0: 0}
    for size in range(n):
        layer = {s: w for s, w in best.items() if bin(s).count("1") == size}
        for s, width in layer.items():
            for v in range(n):
                bit = 1 << v
                if s & bit:
                    continue
                deg = eliminated_degree(v, s)
                new_width = max(width, deg)
                t = s | bit
                if best.get(t, n + 1) > new_width:
                    best[t] = new_width
    return best[(1 << n) - 1]


def lineage_treewidth(dnf: DNF, exact: bool = False) -> int:
    """Treewidth (bound) of a lineage DNF's primal graph."""
    g = primal_graph(dnf)
    return treewidth_exact(g) if exact else treewidth_upper_bound(g)
