"""Tests for junction-tree calibration (the Theorem 5.17 algorithm)."""

import random

import pytest

from repro.core.inference import compute_marginal
from repro.core.junction import all_marginals, build_clique_tree
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.errors import InferenceError

from tests.core.test_inference import random_network


def test_single_leaf():
    net = AndOrNetwork()
    x = net.add_leaf(0.3)
    tree = build_clique_tree(net)
    assert tree.marginal(x) == pytest.approx(0.3)
    assert tree.marginal(EPSILON) == pytest.approx(1.0)


def test_example_5_1_network():
    net = AndOrNetwork()
    u, v = net.add_leaf(0.3), net.add_leaf(0.8)
    w = net.add_gate(NodeKind.OR, [(u, 0.5), (v, 0.5)])
    tree = build_clique_tree(net)
    assert tree.marginal(w) == pytest.approx(0.49)
    assert tree.marginal(u) == pytest.approx(0.3)
    assert tree.marginal(v) == pytest.approx(0.8)


def test_matches_ve_on_random_networks():
    rng = random.Random(13)
    for _ in range(15):
        net = random_network(rng, rng.randint(1, 4), rng.randint(1, 6))
        tree = build_clique_tree(net)
        for node in net.nodes():
            assert tree.marginal(node) == pytest.approx(
                compute_marginal(net, node, engine="ve")
            ), node


def test_all_marginals_matches_per_node():
    rng = random.Random(17)
    net = random_network(rng, 4, 6)
    joint = all_marginals(net)
    for node in net.nodes():
        assert joint[node] == pytest.approx(compute_marginal(net, node, "ve"))


def test_all_marginals_disconnected_components():
    net = AndOrNetwork()
    a = net.add_leaf(0.2)
    b = net.add_leaf(0.9)
    g = net.add_gate(NodeKind.OR, [(a, 1.0)])  # collapses to a
    h = net.add_gate(NodeKind.AND, [(b, 0.5)])
    out = all_marginals(net, [g, h, EPSILON])
    assert out[g] == pytest.approx(0.2)
    assert out[h] == pytest.approx(0.45)
    assert out[EPSILON] == 1.0


def test_conditional_marginal_with_evidence():
    net = AndOrNetwork()
    u, v = net.add_leaf(0.3), net.add_leaf(0.8)
    w = net.add_gate(NodeKind.OR, [(u, 1.0), (v, 1.0)])
    tree = build_clique_tree(net, evidence={w: 1})
    # Pr(u=1 | w=1) = Pr(u) / Pr(w) restricted... check vs brute force:
    joint_u1_w1 = net.brute_force_marginal({u: 1, w: 1})
    pw = net.brute_force_marginal({w: 1})
    assert tree.marginal(u) == pytest.approx(joint_u1_w1 / pw)


def test_unknown_variable():
    net = AndOrNetwork()
    net.add_leaf(0.3)
    tree = build_clique_tree(net)
    with pytest.raises(KeyError):
        tree.marginal(999)


def test_wide_gate_through_junction_tree():
    net = AndOrNetwork()
    leaves = [net.add_leaf(0.5) for _ in range(15)]
    g = net.add_gate(NodeKind.OR, [(v, 0.5) for v in leaves])
    tree = build_clique_tree(net)
    assert tree.marginal(g) == pytest.approx(1 - 0.75**15)


def test_shared_calibration_is_cheaper_than_per_node():
    """Sanity: one calibration answers every marginal of a chain network."""
    net = AndOrNetwork()
    node = net.add_leaf(0.5)
    chain = [node]
    for _ in range(30):
        node = net.add_gate(NodeKind.OR, [(node, 0.9)])
        chain.append(node)
    out = all_marginals(net, chain)
    expected = 0.5
    assert out[chain[0]] == pytest.approx(expected)
    for v in chain[1:]:
        expected *= 0.9
        assert out[v] == pytest.approx(expected)


def test_answer_probabilities_checkpoints_budget_on_junction_path():
    from repro.core.executor import PartialLineageEvaluator
    from repro.db import ProbabilisticDatabase
    from repro.query.parser import parse_query

    from tests.conftest import recording_budget

    budget, stages = recording_budget()
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5})
    db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
    q = parse_query("q() :- R(x), S(x,y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S"])
    result.answer_probabilities(engine="junction", budget=budget)
    assert "junction" in stages
