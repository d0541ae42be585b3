"""Tests for the pL-relation operators (Section 5.3).

The central checks are distribution-level: each operator's output pL-relation
must represent exactly the possible-worlds image of its input's distribution
(Definition 2.1) — Lemma 5.12 for conditioning, Theorem 5.10 for projection,
Theorem 5.16 for the conditioned join. Inputs are hand-built row-backed
:class:`PLRelation` objects converted to the columnar kernels' representation;
outputs are converted back with ``to_rows()`` and enumerated.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro.core.columnar import (
    ColumnarPLRelation,
    ValueInterner,
    cset,
    condition,
    from_plrelation,
    independent_project,
    pl_join,
    pl_join_raw,
    project,
    select_eq,
    select_where,
)
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.core.plrelation import PLRelation
from repro.errors import SchemaError


def joint_distribution(
    left: ColumnarPLRelation, right: ColumnarPLRelation
) -> dict[tuple[frozenset, frozenset], float]:
    """Joint distribution of two pL-relations over one shared network.

    Conditioned on a full network assignment ``z``, tuples are independent
    coins; the joint therefore factorises per ``z``.
    """
    left, right = left.to_rows(), right.to_rows()
    assert left.network is right.network
    net = left.network
    nodes = [v for v in net.nodes() if v != EPSILON]
    out: dict[tuple[frozenset, frozenset], float] = {}
    for values in itertools.product((0, 1), repeat=len(nodes)):
        z = dict(zip(nodes, values))
        z[EPSILON] = 1
        nz = net.joint_probability(z)
        if nz == 0.0:
            continue
        for lworld, lp in _independent_worlds(left, z):
            for rworld, rp in _independent_worlds(right, z):
                key = (lworld, rworld)
                out[key] = out.get(key, 0.0) + nz * lp * rp
    return out


def _independent_worlds(rel: PLRelation, z: dict[int, int]):
    rows = list(rel.items())
    for mask in range(1 << len(rows)):
        world = []
        p = 1.0
        for i, (row, l, pr) in enumerate(rows):
            presence = z[l] * pr
            if mask >> i & 1:
                p *= presence
                world.append(row)
            else:
                p *= 1.0 - presence
            if p == 0.0:
                break
        if p > 0.0:
            yield frozenset(world), p


#: One dictionary encoding for every relation built here, so any two of
#: them can be joined.
INTERNER = ValueInterner()


def relation_with(net: AndOrNetwork, attrs, rows) -> ColumnarPLRelation:
    rel = PLRelation(attrs, net)
    for row, l, p in rows:
        rel.add(row, l, p)
    return from_plrelation(rel, INTERNER)


def assert_distributions_equal(actual: dict, expected: dict) -> None:
    keys = set(actual) | set(expected)
    for k in keys:
        assert actual.get(k, 0.0) == pytest.approx(expected.get(k, 0.0)), k


# ------------------------------------------------------------------ selection
def test_select_eq_keeps_lineage_and_probability():
    net = AndOrNetwork()
    x = net.add_leaf(0.5)
    rel = relation_with(net, ("A", "B"), [((1, 1), x, 1.0), ((2, 1), EPSILON, 0.4)])
    out = select_eq(rel, {"A": 1}).to_rows()
    assert out.rows() == [(1, 1)]
    assert out.lineage((1, 1)) == x
    assert out.probability((1, 1)) == 1.0


def test_select_where_predicate():
    net = AndOrNetwork()
    rel = relation_with(net, ("A",), [((i,), EPSILON, 0.5) for i in range(5)])
    out = select_where(rel, lambda row: row[0] % 2 == 0)
    assert out.rows() == [(0,), (2,), (4,)]


def test_selection_preserves_distribution():
    """Selection is always data safe (Proposition 3.2): the output distribution
    is the image of the input distribution under σ."""
    net = AndOrNetwork()
    x = net.add_leaf(0.7)
    rel = relation_with(
        net, ("A",), [((1,), x, 0.5), ((2,), EPSILON, 0.3), ((3,), x, 1.0)]
    )
    out = select_where(rel, lambda row: row[0] <= 2)
    expected: dict[frozenset, float] = {}
    for world, p in rel.to_rows().distribution().items():
        image = frozenset(r for r in world if r[0] <= 2)
        expected[image] = expected.get(image, 0.0) + p
    assert_distributions_equal(out.to_rows().distribution(), expected)


# ----------------------------------------------------------------- projection
def test_independent_project_merges_same_lineage():
    net = AndOrNetwork()
    x = net.add_leaf(0.5)
    rel = relation_with(
        net,
        ("A", "B"),
        [((1, 1), x, 0.2), ((1, 2), x, 0.3), ((1, 3), EPSILON, 0.4)],
    )
    projected = independent_project(rel, ("A",))
    merged = dict(zip(projected.lineage.tolist(), projected.probs.tolist()))
    assert merged[x] == pytest.approx(1 - 0.8 * 0.7)
    assert merged[EPSILON] == pytest.approx(0.4)
    assert len(projected.lineage) == 2
    assert len(net) == 2  # no new nodes


def test_deduplicate_creates_or_node():
    net = AndOrNetwork()
    x = net.add_leaf(0.5)
    rel = relation_with(
        net, ("A", "B"), [((1, 1), x, 0.2), ((1, 2), EPSILON, 0.4)]
    )
    out = project(rel, ("A",)).to_rows()
    assert out.rows() == [(1,)]
    node = out.lineage((1,))
    assert net.kind(node) is NodeKind.OR
    assert out.probability((1,)) == 1.0
    assert dict(net.parents(node)) == {x: 0.2, EPSILON: 0.4}


def test_projection_single_member_groups_pass_through():
    net = AndOrNetwork()
    rel = relation_with(net, ("A", "B"), [((1, 1), EPSILON, 0.5)])
    out = project(rel, ("A",)).to_rows()
    assert out.lineage((1,)) == EPSILON
    assert out.probability((1,)) == 0.5
    assert len(net) == 1


def test_projection_preserves_distribution():
    """Theorem 5.10: π_A ℛ obeys possible-worlds semantics."""
    net = AndOrNetwork()
    x = net.add_leaf(0.6)
    y = net.add_gate(NodeKind.OR, [(x, 0.5)])
    rel = relation_with(
        net,
        ("A", "B"),
        [
            ((1, 1), x, 0.5),
            ((1, 2), EPSILON, 0.3),
            ((2, 1), y, 1.0),
            ((2, 2), x, 0.9),
        ],
    )
    input_dist = rel.to_rows().distribution()
    out = project(rel, ("A",)).to_rows()
    expected: dict[frozenset, float] = {}
    for world, p in input_dist.items():
        image = frozenset((r[0],) for r in world)
        expected[image] = expected.get(image, 0.0) + p
    assert_distributions_equal(out.distribution(), expected)


def test_projection_to_empty_schema():
    net = AndOrNetwork()
    rel = relation_with(net, ("A",), [((1,), EPSILON, 0.5), ((2,), EPSILON, 0.5)])
    out = project(rel, ()).to_rows()
    assert out.rows() == [()]
    assert out.probability(()) == pytest.approx(0.75)
    assert out.lineage(()) == EPSILON


# --------------------------------------------------------------- conditioning
def test_condition_on_trivial_lineage_adds_leaf():
    net = AndOrNetwork()
    rel = relation_with(net, ("A",), [((1,), EPSILON, 0.4), ((2,), EPSILON, 0.6)])
    out = condition(rel, [(1,)]).to_rows()
    node = out.lineage((1,))
    assert net.kind(node) is NodeKind.LEAF
    assert net.leaf_probability(node) == 0.4
    assert out.probability((1,)) == 1.0
    # untouched row
    assert out.lineage((2,)) == EPSILON


def test_condition_preserves_distribution_lemma_5_12():
    net = AndOrNetwork()
    rel = relation_with(net, ("A",), [((1,), EPSILON, 0.4), ((2,), EPSILON, 0.6)])
    before = rel.to_rows().distribution()
    out = condition(rel, [(1,)]).to_rows()
    assert_distributions_equal(out.distribution(), before)


def test_condition_on_symbolic_row_preserves_distribution():
    """The generalisation: conditioning l ≠ ε, p < 1 via a noisy And gate."""
    net = AndOrNetwork()
    x = net.add_leaf(0.7)
    rel = relation_with(net, ("A",), [((1,), x, 0.5), ((2,), EPSILON, 0.3)])
    before = rel.to_rows().distribution()
    out = condition(rel, [(1,)]).to_rows()
    assert out.probability((1,)) == 1.0
    assert net.kind(out.lineage((1,))) is NodeKind.AND
    assert_distributions_equal(out.distribution(), before)


def test_condition_deterministic_row_is_noop():
    net = AndOrNetwork()
    rel = relation_with(net, ("A",), [((1,), EPSILON, 1.0)])
    out = condition(rel, [(1,)]).to_rows()
    assert out.lineage((1,)) == EPSILON
    assert len(net) == 1


def test_condition_missing_row_raises():
    net = AndOrNetwork()
    rel = relation_with(net, ("A",), [((1,), EPSILON, 0.5)])
    with pytest.raises(SchemaError, match="absent"):
        condition(rel, [(9,)])


# ----------------------------------------------------------------------- cSet
def test_cset_definition_5_14():
    net = AndOrNetwork()
    left = relation_with(
        net,
        ("A",),
        [((1,), EPSILON, 0.5), ((2,), EPSILON, 1.0), ((3,), EPSILON, 0.5)],
    )
    right = relation_with(
        net,
        ("A", "B"),
        [
            ((1, 1), EPSILON, 0.5),
            ((1, 2), EPSILON, 1.0),  # deterministic partners still count
            ((2, 1), EPSILON, 0.5),
            ((2, 2), EPSILON, 0.5),
            ((3, 1), EPSILON, 0.5),
        ],
    )
    # (1,): uncertain, two partners -> offending. (2,): deterministic -> no.
    # (3,): single partner -> no.
    assert cset(left, right, ("A",)) == [(1,)]
    # right side: every right tuple has exactly one partner in left.
    assert cset(right, left, ("A",)) == []


def test_pl_join_raw_lineage_rules():
    net = AndOrNetwork()
    x, y = net.add_leaf(0.5), net.add_leaf(0.5)
    left = relation_with(net, ("A",), [((1,), x, 1.0), ((2,), EPSILON, 0.5)])
    right = relation_with(
        net, ("A", "B"), [((1, 1), y, 0.8), ((2, 1), EPSILON, 0.25)]
    )
    out = pl_join_raw(left, right, ("A",)).to_rows()
    # both symbolic -> And gate with the probabilities on the edges
    g = out.lineage((1, 1))
    assert net.kind(g) is NodeKind.AND
    assert dict(net.parents(g)) == {x: 1.0, y: 0.8}
    assert out.probability((1, 1)) == 1.0
    # extensional pair: probabilities multiply, lineage stays ε
    assert out.lineage((2, 1)) == EPSILON
    assert out.probability((2, 1)) == pytest.approx(0.125)


def test_pl_join_requires_shared_network():
    left = relation_with(AndOrNetwork(), ("A",), [((1,), EPSILON, 0.5)])
    right = relation_with(AndOrNetwork(), ("A",), [((1,), EPSILON, 0.5)])
    with pytest.raises(SchemaError, match="share"):
        pl_join_raw(left, right, ("A",))


def test_join_preserves_joint_distribution_theorem_5_16():
    net = AndOrNetwork()
    x = net.add_leaf(0.7)
    left = relation_with(
        net, ("A",), [((1,), EPSILON, 0.5), ((2,), x, 0.6)]
    )
    right = relation_with(
        net,
        ("A", "B"),
        [((1, 1), EPSILON, 0.5), ((1, 2), EPSILON, 0.4), ((2, 1), EPSILON, 1.0)],
    )
    joint_before = joint_distribution(left, right)
    out, conditioned = pl_join(left, right, ("A",))
    out = out.to_rows()
    assert conditioned == 1  # (1,) is uncertain with two partners
    expected: dict[frozenset, float] = {}
    for (lworld, rworld), p in joint_before.items():
        image = frozenset(
            lr + (rr[1],) for lr in lworld for rr in rworld if lr[0] == rr[0]
        )
        expected[image] = expected.get(image, 0.0) + p
    assert_distributions_equal(out.distribution(), expected)


def test_join_without_conditioning_violates_possible_worlds():
    """Proposition 3.2's 'only if': the raw extensional join of an uncertain
    tuple with two partners misrepresents the joint distribution."""
    net = AndOrNetwork()
    left = relation_with(net, ("A",), [((1,), EPSILON, 0.5)])
    right = relation_with(
        net, ("A", "B"), [((1, 1), EPSILON, 0.5), ((1, 2), EPSILON, 0.5)]
    )
    raw = pl_join_raw(left, right, ("A",)).to_rows()
    both = raw.world_probability({(1, 1), (1, 2)})
    # True probability of both outputs: .5 * .5 * .5 = .125; the unsound
    # extensional reading gives .25 * .25 = .0625.
    assert both == pytest.approx(0.0625)
    safe, _ = pl_join(left, right, ("A",))
    assert safe.to_rows().world_probability({(1, 1), (1, 2)}) == pytest.approx(0.125)


def test_join_on_empty_attrs_is_cross_product():
    net = AndOrNetwork()
    left = relation_with(net, ("A",), [((1,), EPSILON, 0.5)])
    right = relation_with(net, ("B",), [((7,), EPSILON, 0.5)])
    out, conditioned = pl_join(left, right, ())
    out = out.to_rows()
    assert conditioned == 0
    assert out.rows() == [(1, 7)]
    assert out.probability((1, 7)) == pytest.approx(0.25)
