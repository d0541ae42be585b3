"""Tests for exact variable-elimination inference on And-Or networks."""

import random

import numpy as np
import pytest

import repro.core.inference as inference
from repro.core.inference import (
    Factor,
    assignment_probability,
    compute_marginal,
    compute_marginals,
    eliminate,
    induced_width,
    min_fill_order,
    multiply,
    network_factors,
    reduce_evidence,
    sum_out,
)
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.errors import InferenceError


def random_network(rng: random.Random, n_leaves: int, n_gates: int) -> AndOrNetwork:
    net = AndOrNetwork()
    nodes = [net.add_leaf(rng.uniform(0.05, 0.95)) for _ in range(n_leaves)]
    for _ in range(n_gates):
        k = rng.randint(1, min(4, len(nodes)))
        parents = [
            (v, rng.choice([1.0, rng.uniform(0.1, 0.9)]))
            for v in rng.sample(nodes, k)
        ]
        kind = rng.choice([NodeKind.AND, NodeKind.OR])
        nodes.append(net.add_gate(kind, parents))
    return net


# -------------------------------------------------------------- factor algebra
def test_factor_shape_validation():
    with pytest.raises(InferenceError):
        Factor((1, 2), np.zeros((2,)))


def test_multiply_and_sum_out():
    f1 = Factor((1,), np.array([0.4, 0.6]))
    f2 = Factor((1, 2), np.array([[1.0, 0.0], [0.3, 0.7]]))
    prod = multiply(f1, f2)
    assert prod.vars == (1, 2)
    marg = sum_out(prod, 1)
    assert marg.table == pytest.approx([0.4 + 0.18, 0.42])


def test_multiply_disjoint_vars_broadcasts():
    f1 = Factor((1,), np.array([0.5, 0.5]))
    f2 = Factor((2,), np.array([0.25, 0.75]))
    prod = multiply(f1, f2)
    assert prod.vars == (1, 2)
    assert prod.table[1, 0] == pytest.approx(0.125)


def test_reduce_evidence():
    f = Factor((1, 2), np.array([[1.0, 0.0], [0.3, 0.7]]))
    reduced = reduce_evidence(f, {1: 1})
    assert reduced.vars == (2,)
    assert reduced.table == pytest.approx([0.3, 0.7])
    untouched = reduce_evidence(f, {9: 0})
    assert untouched.vars == (1, 2)


def test_eliminate_scalar_result():
    f1 = Factor((1,), np.array([0.4, 0.6]))
    result = eliminate([f1])
    assert float(result.table) == pytest.approx(1.0)


def test_min_fill_order_respects_keep():
    factors = [Factor((1, 2), np.ones((2, 2))), Factor((2, 3), np.ones((2, 2)))]
    order = min_fill_order(factors, keep={2})
    assert 2 not in order
    assert set(order) == {1, 3}


# ------------------------------------------------------------ network queries
def test_marginal_matches_brute_force_small():
    net = AndOrNetwork()
    u, v = net.add_leaf(0.3), net.add_leaf(0.8)
    w = net.add_gate(NodeKind.OR, [(u, 0.5), (v, 0.5)])
    assert compute_marginal(net, w) == pytest.approx(0.49)
    assert compute_marginal(net, u) == pytest.approx(0.3)
    assert compute_marginal(net, EPSILON) == 1.0


def test_marginals_match_brute_force_random():
    rng = random.Random(7)
    for _ in range(15):
        net = random_network(rng, n_leaves=rng.randint(1, 4), n_gates=rng.randint(1, 5))
        for node in net.nodes():
            expected = net.brute_force_marginal({node: 1})
            assert compute_marginal(net, node) == pytest.approx(expected), node


def test_assignment_probability_matches_brute_force():
    rng = random.Random(11)
    for _ in range(10):
        net = random_network(rng, 3, 3)
        nodes = [v for v in net.nodes() if v != EPSILON]
        y = {v: rng.randint(0, 1) for v in rng.sample(nodes, min(2, len(nodes)))}
        assert assignment_probability(net, y) == pytest.approx(
            net.brute_force_marginal(y)
        )


def test_assignment_probability_epsilon_false_is_zero():
    net = AndOrNetwork()
    assert assignment_probability(net, {EPSILON: 0}) == 0.0


def test_wide_gate_decomposition():
    """A 12-parent Or gate must decompose and still be exact."""
    net = AndOrNetwork()
    leaves = [net.add_leaf(0.5) for _ in range(12)]
    g = net.add_gate(NodeKind.OR, [(v, 0.5) for v in leaves])
    # Pr(g) = 1 - (1 - .25)^12
    assert compute_marginal(net, g) == pytest.approx(1 - 0.75**12)
    # factor decomposition created only small factors
    assert all(len(f.vars) <= 3 for f in network_factors(net))


def test_wide_and_gate():
    net = AndOrNetwork()
    leaves = [net.add_leaf(0.9) for _ in range(10)]
    g = net.add_gate(NodeKind.AND, [(v, 1.0) for v in leaves])
    assert compute_marginal(net, g) == pytest.approx(0.9**10)


def test_compute_marginals_batch():
    net = AndOrNetwork()
    u, v = net.add_leaf(0.3), net.add_leaf(0.8)
    w = net.add_gate(NodeKind.OR, [(u, 1.0), (v, 1.0)])
    out = compute_marginals(net, [u, w, w, EPSILON])
    assert out[u] == pytest.approx(0.3)
    assert out[w] == pytest.approx(1 - 0.7 * 0.2)
    assert out[EPSILON] == 1.0


def test_barren_node_pruning():
    """Marginals must not pay for descendants or unrelated components."""
    net = AndOrNetwork()
    u = net.add_leaf(0.4)
    for _ in range(30):  # unrelated clutter
        net.add_leaf(0.5)
    factors = network_factors(net, relevant=net.ancestors([u]) | {EPSILON})
    assert len(factors) == 2  # u and ε only
    assert compute_marginal(net, u) == pytest.approx(0.4)


def test_factor_budget_guard(monkeypatch):
    monkeypatch.setattr(inference, "MAX_FACTOR_VARS", 2)
    f1 = Factor((1, 2), np.ones((2, 2)))
    f2 = Factor((2, 3), np.ones((2, 2)))
    with pytest.raises(InferenceError, match="treewidth"):
        multiply(f1, f2)


def test_induced_width_chain_vs_clique():
    chain = [Factor((i, i + 1), np.ones((2, 2))) for i in range(6)]
    assert induced_width(chain) == 1
    clique = [Factor((i, j), np.ones((2, 2))) for i in range(5) for j in range(i + 1, 5)]
    assert induced_width(clique) == 4


def scan_induced_width(factors, keep=()) -> int:
    """Reference min-degree width: scan every candidate at every step."""
    adj = {}
    for f in factors:
        for v in f.vars:
            adj.setdefault(v, set()).update(w for w in f.vars if w != v)
    width = 0
    candidates = set(adj) - set(keep)
    while candidates:
        v = min(candidates, key=lambda u: (len(adj[u]), u))
        nbrs = list(adj[v])
        width = max(width, len(nbrs))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        for w in nbrs:
            adj[w].discard(v)
        del adj[v]
        candidates.discard(v)
    return width


def test_induced_width_heap_matches_scan():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 30)
        scopes = [
            tuple(rng.sample(range(n), rng.randint(1, min(4, n))))
            for _ in range(rng.randint(1, 3 * n))
        ]
        factors = [Factor(s, np.ones((2,) * len(s))) for s in scopes]
        keep = rng.sample(range(n), rng.randint(0, 2))
        assert induced_width(factors, keep) == scan_induced_width(factors, keep)
    for _ in range(10):
        net = random_network(rng, rng.randint(3, 12), rng.randint(3, 25))
        factors = network_factors(net)
        assert induced_width(factors) == scan_induced_width(factors)


def test_eliminate_with_explicit_order():
    f1 = Factor((1, 2), np.array([[0.9, 0.1], [0.2, 0.8]]))
    f2 = Factor((1,), np.array([0.4, 0.6]))
    default = eliminate([f1, f2], keep={2})
    explicit = eliminate([f1, f2], keep={2}, order=[1])
    assert default.table == pytest.approx(explicit.table)
    assert default.vars == (2,)
