"""Tests for lineage treewidth analysis (Theorem 4.2, Facts 5.18/5.19)."""

import os
import subprocess
import sys

import networkx as nx
import pytest

from repro.db import ProbabilisticDatabase
from repro.errors import CapacityError
from repro.lineage.dnf import DNF, EventVar, lineage_of_query
from repro.lineage.treewidth import (
    lineage_treewidth,
    primal_graph,
    treewidth_exact,
    treewidth_upper_bound,
)
from repro.query.parser import parse_query


def test_primal_graph_clique_per_clause():
    a, b, c = (EventVar("R", (i,)) for i in range(3))
    g = primal_graph(DNF([{a, b, c}]))
    assert g.number_of_edges() == 3  # a triangle


def test_exact_treewidth_known_graphs():
    assert treewidth_exact(nx.path_graph(6)) == 1
    assert treewidth_exact(nx.cycle_graph(6)) == 2
    assert treewidth_exact(nx.complete_graph(5)) == 4
    assert treewidth_exact(nx.Graph()) == 0
    assert treewidth_exact(nx.empty_graph(4)) == 0


def test_fact_5_18_complete_bipartite():
    """Fact 5.18: tw(K_{m,n}) = min(m, n)."""
    for m, n in ((2, 3), (3, 3), (2, 5)):
        assert treewidth_exact(nx.complete_bipartite_graph(m, n)) == min(m, n)


def test_heuristics_upper_bound_exact():
    for g in (nx.cycle_graph(7), nx.complete_bipartite_graph(3, 4),
              nx.random_regular_graph(3, 10, seed=1)):
        exact = treewidth_exact(g)
        for heuristic in ("min_fill", "min_degree"):
            assert treewidth_upper_bound(g, heuristic) >= exact


def test_capacity_guard():
    with pytest.raises(CapacityError):
        treewidth_exact(nx.path_graph(30))


def test_unknown_heuristic():
    with pytest.raises(ValueError):
        treewidth_upper_bound(nx.path_graph(3), "magic")


def test_theorem_4_2_strictly_hierarchical_bounded():
    """R(x), S(x,y) is strictly hierarchical: lineage treewidth stays bounded
    (< number of subgoals = 2) as the instance grows."""
    for size in (2, 4, 6):
        db = ProbabilisticDatabase()
        db.add_relation("R", ("A",), {(a,): 0.5 for a in range(size)})
        db.add_relation(
            "S", ("A", "B"),
            {(a, b): 0.5 for a in range(size) for b in range(2)},
        )
        f, _ = lineage_of_query(parse_query("R(x), S(x,y)"), db)
        assert treewidth_exact(primal_graph(f)) <= 1


def test_theorem_4_2_safe_but_not_strict_unbounded():
    """R(x,y), S(x,z) is safe but NOT strictly hierarchical: its lineage
    treewidth grows with the instance (the K_{m,n} embedding)."""
    widths = []
    for size in (2, 3, 4):
        db = ProbabilisticDatabase()
        db.add_relation(
            "R", ("A", "B"), {(0, b): 0.5 for b in range(size)}
        )
        db.add_relation(
            "S", ("A", "C"), {(0, c): 0.5 for c in range(size)}
        )
        f, _ = lineage_of_query(parse_query("R(x,y), S(x,z)"), db)
        widths.append(treewidth_exact(primal_graph(f)))
    assert widths == [2, 3, 4]  # tw(K_{n,n}) = n: unbounded growth


def test_lineage_treewidth_wrapper():
    a, b = EventVar("R", (1,)), EventVar("R", (2,))
    f = DNF([{a, b}])
    assert lineage_treewidth(f, exact=True) == 1
    assert lineage_treewidth(f) >= 1


def test_networkx_is_imported_only_by_the_treewidth_calls():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "False"


def test_heuristic_bounds_on_workload_lineages():
    from repro.lineage.dnf import answer_lineages
    from repro.workload import WorkloadParams, generate_database
    from repro.workload.queries import benchmark_query

    db = generate_database(WorkloadParams(N=3, m=20, r_f=0.3, seed=0))
    dnfs, _ = answer_lineages(benchmark_query("P2").query, db)
    graphs = [primal_graph(dnfs[a]) for a in sorted(dnfs)]
    assert [treewidth_upper_bound(g) for g in graphs] == [3, 3, 5]
    assert [treewidth_upper_bound(g, "min_degree") for g in graphs] == [3, 3, 5]
