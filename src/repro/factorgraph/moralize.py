"""Factor decomposition and moralisation (Figure 2, Section 4.3.2).

Inference in a Bayesian network built from a factor graph ``G`` operates on
the *moralised* graph ``M(G)`` (parents of every node pairwise connected),
whose treewidth can be as large as the biggest gate fan-in. [25] exploit
decomposability [22] to first split every gate into a chain of binary gates —
``D(G)`` — so only ``tw(M(D(G)))`` matters. The chain of inequalities the
paper leans on (Sec. 4.3.2, Cor. 4.4) is::

    tw(G) ≤ tw(M(D(G))) ≤ tw(M(G))          and          tw(G_n) ≤ tw(G_f)

which the ``benchmarks/test_fig2_decomposition.py`` and
``benchmarks/test_prop43_minor.py`` harnesses measure on generated instances.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lineage.treewidth import treewidth_upper_bound

if TYPE_CHECKING:
    import networkx as nx


def decompose(graph: nx.DiGraph) -> nx.DiGraph:
    """``D(G)``: split every gate with fan-in > 2 into a binary chain.

    Auxiliary nodes are named ``(node, "aux", i)`` and inherit the gate's
    ``kind``; the semantics (composition of the same associative connective)
    is unchanged.
    """
    import networkx as nx

    out = nx.DiGraph()
    for node, data in graph.nodes(data=True):
        out.add_node(node, **data)
    for node in graph.nodes():
        parents = sorted(graph.predecessors(node), key=str)
        if len(parents) <= 2:
            for p in parents:
                out.add_edge(p, node)
            continue
        kind = graph.nodes[node].get("kind", "or")
        prev = parents[0]
        for i, parent in enumerate(parents[1:-1]):
            aux = (node, "aux", i)
            out.add_node(aux, kind=kind)
            out.add_edge(prev, aux)
            out.add_edge(parent, aux)
            prev = aux
        out.add_edge(prev, node)
        out.add_edge(parents[-1], node)
    return out


def moralize(graph: nx.DiGraph) -> nx.Graph:
    """``M(G)``: connect all co-parents, then drop edge directions."""
    moral = graph.to_undirected()
    for node in graph.nodes():
        parents = list(graph.predecessors(node))
        for i, a in enumerate(parents):
            for b in parents[i + 1 :]:
                moral.add_edge(a, b)
    return moral


def treewidth_bound(graph: nx.Graph | nx.DiGraph, heuristic: str = "min_fill") -> int:
    """Heuristic treewidth upper bound, accepting directed graphs too."""
    if graph.is_directed():
        graph = graph.to_undirected()
    return treewidth_upper_bound(graph, heuristic)
