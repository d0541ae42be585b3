"""Tests for tree-factorable detection and bottom-up propagation."""

import random

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.inference import compute_marginal
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.core.treeprop import is_tree_factorable, tree_marginals
from repro.db import ProbabilisticDatabase
from repro.errors import InferenceError
from repro.query.parser import parse_query


def test_leaves_and_single_gate_are_tree_factorable():
    net = AndOrNetwork()
    x, y = net.add_leaf(0.5), net.add_leaf(0.5)
    net.add_gate(NodeKind.OR, [(x, 0.3), (y, 0.7)])
    assert is_tree_factorable(net)
    out = tree_marginals(net)
    assert out[2 + 1] == pytest.approx(1 - (1 - 0.15) * (1 - 0.35))


def test_shared_ancestor_breaks_factorability():
    net = AndOrNetwork()
    x = net.add_leaf(0.5)
    a = net.add_gate(NodeKind.AND, [(x, 0.5)])
    b = net.add_gate(NodeKind.AND, [(x, 0.5)])
    net.add_gate(NodeKind.OR, [(a, 1.0), (b, 1.0)])
    assert not is_tree_factorable(net)
    with pytest.raises(InferenceError, match="tree-factorable"):
        tree_marginals(net)


def test_duplicated_parent_breaks_factorability():
    net = AndOrNetwork()
    x = net.add_leaf(0.5)
    net.add_gate(NodeKind.OR, [(x, 0.5), (x, 0.5)])
    assert not is_tree_factorable(net)


def test_epsilon_never_correlates():
    net = AndOrNetwork()
    x = net.add_leaf(0.5)
    a = net.add_gate(NodeKind.OR, [(x, 0.5), (EPSILON, 0.3)])
    b = net.add_gate(NodeKind.OR, [(a, 0.9), (EPSILON, 0.1)])
    assert is_tree_factorable(net)
    out = tree_marginals(net)
    assert out[b] == pytest.approx(compute_marginal(net, b, engine="ve"))


def test_matches_exact_inference_on_factorable_networks():
    rng = random.Random(3)
    for _ in range(20):
        # build a random forest-shaped network: each node used at most once
        net = AndOrNetwork()
        available = [net.add_leaf(rng.uniform(0.1, 0.9)) for _ in range(6)]
        while len(available) > 1:
            k = rng.randint(2, min(3, len(available)))
            parents = [available.pop() for _ in range(k)]
            kind = rng.choice([NodeKind.AND, NodeKind.OR])
            gate = net.add_gate(
                kind, [(w, rng.choice([1.0, rng.uniform(0.2, 0.9)])) for w in parents]
            )
            available.append(gate)
        assert is_tree_factorable(net)
        out = tree_marginals(net)
        for node in net.nodes():
            assert out[node] == pytest.approx(
                net.brute_force_marginal({node: 1})
            ), node


def test_sec54_networks_are_tree_factorable():
    """The hash-collapsed deterministic-S networks are exactly the
    low-treewidth case the propagation targets."""
    n = 5
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(i,): 0.5 for i in range(n)})
    db.add_relation(
        "S", ("A", "B"), {(i, j): 1.0 for i in range(n) for j in range(n)}
    )
    db.add_relation("T", ("B",), {(j,): 0.5 for j in range(n)})
    q = parse_query("q() :- R(x), S(x,y), T(y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])
    assert is_tree_factorable(result.network)
    out = tree_marginals(result.network)
    ((_, l, p),) = list(result.relation.items())
    assert p * out[l] == pytest.approx(result.boolean_probability())


# ------------------------------------------------------------- batched kernel
def scalar_reference(net: AndOrNetwork) -> dict[int, float]:
    """The pre-batching recurrence: one Python pass, one gate at a time."""
    out: dict[int, float] = {}
    for v in net.nodes():
        if net.kind(v) is NodeKind.LEAF:
            out[v] = net.leaf_probability(v)
            continue
        if net.kind(v) is NodeKind.AND:
            prob = 1.0
            for w, q in net.parents(v):
                prob *= q * out[w]
        else:
            prob = 1.0
            for w, q in net.parents(v):
                prob *= 1.0 - q * out[w]
            prob = 1.0 - prob
        out[v] = prob
    return out


def random_forest_network(rng: random.Random, leaves: int) -> AndOrNetwork:
    net = AndOrNetwork()
    available = [net.add_leaf(rng.uniform(0.05, 0.95)) for _ in range(leaves)]
    while len(available) > 1 and rng.random() < 0.9:
        k = rng.randint(1, min(3, len(available)))
        parents = [available.pop() for _ in range(k)]
        kind = rng.choice([NodeKind.AND, NodeKind.OR])
        available.append(net.add_gate(
            kind,
            [(w, rng.choice([1.0, rng.uniform(0.2, 0.9)])) for w in parents],
        ))
    return net


def test_batched_kernel_matches_scalar_reference():
    from repro.core.treeprop import tree_marginals_array

    rng = random.Random(11)
    for _ in range(60):
        net = random_forest_network(rng, rng.randint(1, 9))
        arr = tree_marginals_array(net)
        ref = scalar_reference(net)
        for v, expected in ref.items():
            assert arr[v] == pytest.approx(expected, abs=1e-14), v


def test_batched_kernel_deep_chain():
    from repro.core.treeprop import tree_marginals_array

    net = AndOrNetwork()
    node = net.add_leaf(0.9)
    for i in range(200):
        kind = NodeKind.AND if i % 2 else NodeKind.OR
        node = net.add_gate(kind, [(node, 0.99)])
    arr = tree_marginals_array(net)
    ref = scalar_reference(net)
    assert arr[node] == pytest.approx(ref[node], abs=1e-14)


def test_batched_kernel_leaf_only_network():
    from repro.core.treeprop import tree_marginals_array

    net = AndOrNetwork()
    a = net.add_leaf(0.25)
    arr = tree_marginals_array(net)
    assert arr[EPSILON] == 1.0
    assert arr[a] == pytest.approx(0.25)


def test_dict_view_delegates_to_kernel():
    from repro.core.treeprop import tree_marginals, tree_marginals_array

    rng = random.Random(4)
    net = random_forest_network(rng, 6)
    arr = tree_marginals_array(net)
    assert tree_marginals(net) == {v: arr[v] for v in net.nodes()}


def test_answer_probabilities_checkpoints_budget_on_tree_path():
    from tests.conftest import recording_budget

    budget, stages = recording_budget()
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5})
    db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
    q = parse_query("q() :- R(x), S(x,y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S"])
    assert is_tree_factorable(result.network)
    result.answer_probabilities(budget=budget)  # "auto" takes the tree path
    assert "treeprop" in stages
