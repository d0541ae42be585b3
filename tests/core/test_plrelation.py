"""Tests for pL-relations (Definition 5.2 and Examples 5.3-5.5)."""

import math

import pytest

from repro.core.columnar import ValueInterner, from_base
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.core.plrelation import PLRelation
from repro.db.relation import ProbabilisticRelation
from repro.errors import ProbabilityError, SchemaError


def test_example_5_3_independent_relation():
    """A one-node network with l ≡ ε represents the independent relation."""
    net = AndOrNetwork()
    rel = PLRelation(("A",), net)
    rel.add((1,), EPSILON, 0.6)
    rel.add((2,), EPSILON, 0.3)
    rel.add((3,), EPSILON, 0.5)
    # ρ(ω) = P_I(ω, p): check a couple of worlds
    assert rel.world_probability({(1,)}) == pytest.approx(0.6 * 0.7 * 0.5)
    assert rel.world_probability({(1,), (2,), (3,)}) == pytest.approx(0.6 * 0.3 * 0.5)
    assert rel.world_probability(set()) == pytest.approx(0.4 * 0.7 * 0.5)


def test_example_5_4_pure_network_relation():
    """With p ≡ 1, the relation's distribution is the network's (Example 5.4)."""
    net = AndOrNetwork()
    u = net.add_leaf(0.3)
    v = net.add_leaf(0.8)
    w = net.add_gate(NodeKind.OR, [(u, 0.5), (v, 0.5)])
    rel = PLRelation(("A",), net)
    rel.add((1,), u, 1.0)
    rel.add((2,), v, 1.0)
    rel.add((3,), w, 1.0)
    # ρ({1}) = N(u=1, v=0, w=0) = .3 · .2 · (1 - .5) = .03
    assert rel.world_probability({(1,)}) == pytest.approx(0.3 * 0.2 * 0.5)
    # distribution sums to 1 over all subsets
    dist = rel.distribution()
    assert math.isclose(sum(dist.values()), 1.0)


def test_mixed_relation_distribution_sums_to_one():
    net = AndOrNetwork()
    u = net.add_leaf(0.3)
    rel = PLRelation(("A",), net)
    rel.add((1,), u, 0.5)
    rel.add((2,), EPSILON, 0.4)
    dist = rel.distribution()
    assert math.isclose(sum(dist.values()), 1.0)
    # tuple 1 present requires u and the anonymous coin: marginal .15
    marg1 = sum(p for w, p in dist.items() if (1,) in w)
    assert marg1 == pytest.approx(0.15)
    assert rel.marginal_via_enumeration((1,)) == pytest.approx(0.15)


def test_from_base_lifts_independent_relation():
    """Example 5.3: an independent relation is a pL-relation with l ≡ ε."""
    base = ProbabilisticRelation.create("R", ("A",), {(1,): 0.5, (2,): 1.0})
    net = AndOrNetwork()
    rel = from_base(base, net, ValueInterner()).to_rows()
    assert rel.attributes == ("A",)
    assert rel.lineage((1,)) == EPSILON
    assert rel.probability((2,)) == 1.0
    assert rel.is_purely_extensional()


def test_symbolic_rows():
    net = AndOrNetwork()
    x = net.add_leaf(0.5)
    rel = PLRelation(("A",), net)
    rel.add((1,), x, 1.0)
    rel.add((2,), EPSILON, 0.5)
    assert rel.symbolic_rows() == [(1,)]
    assert not rel.is_purely_extensional()


def test_add_validation():
    net = AndOrNetwork()
    rel = PLRelation(("A", "B"), net)
    with pytest.raises(SchemaError, match="arity"):
        rel.add((1,), EPSILON, 0.5)
    with pytest.raises(ProbabilityError):
        rel.add((1, 2), EPSILON, 0.0)
    with pytest.raises(SchemaError, match="unknown lineage"):
        rel.add((1, 2), 99, 0.5)
    rel.add((1, 2), EPSILON, 0.5)
    with pytest.raises(SchemaError, match="duplicate"):
        rel.add((1, 2), EPSILON, 0.5)


def test_index_of():
    net = AndOrNetwork()
    rel = PLRelation(("A", "B", "C"), net)
    rel.add((1, 2, 3), EPSILON, 0.5)
    assert rel.index_of("B") == 1
    with pytest.raises(SchemaError):
        rel.index_of("Z")


def test_world_probability_of_unknown_row_is_zero():
    net = AndOrNetwork()
    rel = PLRelation(("A",), net)
    rel.add((1,), EPSILON, 0.5)
    assert rel.world_probability({(9,)}) == 0.0
