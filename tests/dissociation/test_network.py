"""Network-level dissociation folds: the resilience ladder's cheap rung."""

import random

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.inference import compute_marginals
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.dissociation import network_dissociation_bounds
from repro.query.parser import parse_query

from tests.conftest import make_rst_database


def test_tree_component_is_exact():
    net = AndOrNetwork()
    a = net.add_leaf(0.3)
    b = net.add_leaf(0.6)
    root = net.add_gate(NodeKind.OR, [(a, 1.0), (b, 0.5)])
    dissoc = network_dissociation_bounds(net, [root])
    assert dissoc is not None and dissoc.exact and dissoc.shared == 0
    oracle = compute_marginals(net, [root])[root]
    lo, up = dissoc.bounds[root].lower, dissoc.bounds[root].upper
    assert lo == pytest.approx(oracle, abs=1e-12)
    assert up == pytest.approx(oracle, abs=1e-12)


def test_or_context_sharing_encloses_exact():
    # Two AND gates share leaf 0 and meet again only at the OR root: the
    # canonical offending-tuple shape the plan rewrite produces.
    rng = random.Random(11)
    net = AndOrNetwork()
    leaves = [net.add_leaf(rng.uniform(0.2, 0.8)) for _ in range(3)]
    g1 = net.add_gate(NodeKind.AND, [(leaves[0], 1.0), (leaves[1], 1.0)])
    g2 = net.add_gate(NodeKind.AND, [(leaves[0], 1.0), (leaves[2], 1.0)])
    root = net.add_gate(NodeKind.OR, [(g1, 1.0), (g2, 1.0)])
    dissoc = network_dissociation_bounds(net, [root])
    assert dissoc is not None and dissoc.shared == 1
    oracle = compute_marginals(net, [root])[root]
    lo, up = dissoc.bounds[root].lower, dissoc.bounds[root].upper
    assert lo - 1e-12 <= oracle <= up + 1e-12
    assert dissoc.bounds[root].width > 0.0


def test_conjunctive_sharing_returns_none():
    # The shared leaf reaches both children of one AND gate: independence
    # would flip the error direction, so the fold must refuse.
    net = AndOrNetwork()
    shared = net.add_leaf(0.5)
    a = net.add_leaf(0.4)
    b = net.add_leaf(0.6)
    o1 = net.add_gate(NodeKind.OR, [(shared, 1.0), (a, 1.0)])
    o2 = net.add_gate(NodeKind.OR, [(shared, 1.0), (b, 1.0)])
    root = net.add_gate(NodeKind.AND, [(o1, 1.0), (o2, 1.0)])
    assert network_dissociation_bounds(net, [root]) is None


def test_deterministic_shared_node_is_harmless():
    # A p = 1 leaf shared under an AND carries no uncertainty; it must not
    # trigger the conjunctive-sharing refusal nor widen anything.
    net = AndOrNetwork()
    shared = net.add_leaf(1.0)
    a = net.add_leaf(0.4)
    b = net.add_leaf(0.6)
    o1 = net.add_gate(NodeKind.OR, [(shared, 0.3), (a, 1.0)])
    o2 = net.add_gate(NodeKind.OR, [(shared, 0.2), (b, 1.0)])
    root = net.add_gate(NodeKind.AND, [(o1, 1.0), (o2, 1.0)])
    dissoc = network_dissociation_bounds(net, [root])
    assert dissoc is not None and dissoc.shared == 0
    oracle = compute_marginals(net, [root])[root]
    lo, up = dissoc.bounds[root].lower, dissoc.bounds[root].upper
    assert lo == pytest.approx(oracle, abs=1e-12)
    assert up == pytest.approx(oracle, abs=1e-12)


def test_pl_networks_always_fold(rng):
    # Networks grown by the pL evaluator from self-join-free plans share
    # only in OR-context, so the fold must never refuse, and its enclosures
    # must contain the exact marginals of the answer roots.
    query = parse_query("q(x) :- R(x), S(x,y), T(y)")
    for _ in range(20):
        db = make_rst_database(rng)
        result = PartialLineageEvaluator(db).evaluate_query(
            query, ["R", "S", "T"]
        )
        targets = sorted(
            {l for _row, l, _p in result.relation.items() if l != EPSILON}
        )
        if not targets:
            continue
        dissoc = network_dissociation_bounds(result.network, targets)
        assert dissoc is not None
        oracle = compute_marginals(result.network, targets)
        for t in targets:
            lo, up = dissoc.bounds[t].lower, dissoc.bounds[t].upper
            assert lo - 1e-9 <= oracle[t] <= up + 1e-9
