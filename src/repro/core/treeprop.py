"""Bottom-up probability propagation for tree-factorable networks.

Section 8 closes with the question whether "the second stage symbolic
evaluation that we currently do outside the database can be converted to
database operators … particularly advantageous when the scale of the data is
huge and treewidth is very small". The smallest-treewidth case is a network
where every gate's parents are probabilistically independent — then the gate
equations themselves *are* the inference::

    Pr(v) = 1 - Π (1 - q·Pr(w))     (Or)
    Pr(v) = Π q·Pr(w)               (And)

one aggregation per node, bottom-up, no tables over joint assignments at
all. We call such networks **tree-factorable**: every gate's distinct
parents have pairwise-disjoint ancestor sets (no variable feeds a gate along
two paths). Hash-collapsed networks of nearly-safe instances are typically
of this shape — e.g. the whole Section 5.4 family.

:func:`is_tree_factorable` decides the property; :func:`tree_marginals`
propagates. :func:`tree_marginals_array` is the batched kernel behind it:
instead of a per-node Python recurrence it groups gates by depth and runs
one ``np.multiply.reduceat`` sweep per level, so the float work of a whole
level — typically thousands of gates on benchmark networks — is a handful
of NumPy calls. The SQL twin lives in :mod:`repro.sqlbackend.inference`.
"""

from __future__ import annotations

import numpy as np

from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.errors import InferenceError
from repro.obs.trace import span as _span


def is_tree_factorable(net: AndOrNetwork) -> bool:
    """True iff every gate's distinct parents share no ancestors.

    Equivalent to: probability propagation through the gate equations is
    exact. ε is exempt (a constant correlates nothing).

    Examples
    --------
    >>> net = AndOrNetwork()
    >>> x, y = net.add_leaf(0.5), net.add_leaf(0.5)
    >>> g = net.add_gate(NodeKind.OR, [(x, 1.0), (y, 1.0)])
    >>> is_tree_factorable(net)
    True
    >>> h = net.add_gate(NodeKind.AND, [(g, 1.0), (x, 1.0)])  # x reaches h twice
    >>> is_tree_factorable(net)
    False
    """
    ancestors: dict[int, frozenset[int]] = {EPSILON: frozenset()}
    for v in net.nodes():
        if v == EPSILON:
            continue
        if net.kind(v) is NodeKind.LEAF:
            ancestors[v] = frozenset((v,))
            continue
        combined: set[int] = set()
        parent_ids = [w for w, _ in net.parents(v)]
        for w in parent_ids:
            anc = ancestors[w]
            if combined & anc:
                return False
            combined |= anc
        # a duplicated parent correlates with itself (unless it is ε)
        non_eps = [w for w in parent_ids if w != EPSILON]
        if len(set(non_eps)) != len(non_eps):
            return False
        ancestors[v] = frozenset(combined | {v})
    return True


def tree_marginals_array(
    net: AndOrNetwork, check: bool = True, budget=None
) -> np.ndarray:
    """Marginals of every node as a ``float64`` array — the batched kernel.

    One cheap Python pass flattens the gates into CSR arrays and assigns each
    gate its DAG depth (1 + max parent depth); gates are then processed level
    by level, each level's products computed with a single
    ``np.multiply.reduceat`` over the level's concatenated parent slices::

        And:  Pr(v) = Π q·Pr(w)             (product over the gate's slice)
        Or:   Pr(v) = 1 - Π (1 - q·Pr(w))

    All parents of a depth-``d`` gate sit at depths below ``d``, so every
    level reads only finished entries. The number of NumPy calls is
    proportional to the DAG depth (the plan depth on query networks), not to
    the gate count.

    *budget* is an optional :class:`~repro.resilience.QueryBudget`
    checkpointed before the factorability check and before the sweep (the
    sweep itself is a handful of NumPy calls, too coarse to interrupt).

    Raises
    ------
    InferenceError
        If *check* is on and the network is not tree-factorable (the
        propagation would silently compute wrong numbers otherwise).
    """
    if budget is not None:
        budget.checkpoint("treeprop")
    if check and not is_tree_factorable(net):
        raise InferenceError(
            "network is not tree-factorable; use compute_marginal instead"
        )
    if budget is not None:
        budget.checkpoint("treeprop")
    with _span("tree_marginals_array", nodes=len(net)):
        return _tree_marginals_array(net)


def _tree_marginals_array(net: AndOrNetwork) -> np.ndarray:
    n = len(net)
    out = np.zeros(n, dtype=np.float64)
    gates: list[int] = []
    depth: list[int] = []
    flat_parents: list[int] = []
    flat_q: list[float] = []
    counts: list[int] = []
    is_or: list[bool] = []
    node_depth = [0] * n
    for v in net.nodes():
        kind = net.kind(v)
        if kind is NodeKind.LEAF:
            out[v] = net.leaf_probability(v)
            continue
        parents = net.parents(v)
        d = 0
        for w, q in parents:
            flat_parents.append(w)
            flat_q.append(q)
            if node_depth[w] > d:
                d = node_depth[w]
        node_depth[v] = d + 1
        gates.append(v)
        depth.append(d + 1)
        counts.append(len(parents))
        is_or.append(kind is NodeKind.OR)
    if not gates:
        return out
    gate_ids = np.asarray(gates, dtype=np.int64)
    depths = np.asarray(depth, dtype=np.int64)
    counts_arr = np.asarray(counts, dtype=np.int64)
    parents_arr = np.asarray(flat_parents, dtype=np.int64)
    q_arr = np.asarray(flat_q, dtype=np.float64)
    or_mask = np.asarray(is_or, dtype=bool)
    starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts_arr)]
    )
    # Reorder the flat slices level by level so each level's gates form one
    # contiguous block that a single reduceat can sweep.
    order = np.argsort(depths, kind="stable")
    seg_starts = starts[order]
    seg_counts = counts_arr[order]
    total = int(seg_counts.sum())
    gather = np.repeat(seg_starts, seg_counts) + (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(seg_counts) - seg_counts, seg_counts)
    )
    parents_lv = parents_arr[gather]
    q_lv = q_arr[gather]
    offsets_lv = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(seg_counts)]
    )
    gates_lv = gate_ids[order]
    or_lv = or_mask[order]
    depths_lv = depths[order]
    level_bounds = np.searchsorted(
        depths_lv, np.arange(1, int(depths_lv[-1]) + 2)
    )
    lo = 0
    for hi in level_bounds.tolist():
        if hi == lo:
            continue
        sl = slice(int(offsets_lv[lo]), int(offsets_lv[hi]))
        contrib = q_lv[sl] * out[parents_lv[sl]]
        ors = or_lv[lo:hi]
        # Or gates multiply failure terms (1 - q·p); flip their slice so one
        # reduceat serves both kinds, then flip the products back.
        or_elems = np.repeat(ors, seg_counts[lo:hi])
        contrib[or_elems] = 1.0 - contrib[or_elems]
        probs = np.multiply.reduceat(contrib, offsets_lv[lo:hi] - offsets_lv[lo])
        probs[ors] = 1.0 - probs[ors]
        out[gates_lv[lo:hi]] = probs
        lo = hi
    return out


def tree_marginals(
    net: AndOrNetwork, check: bool = True, budget=None
) -> dict[int, float]:
    """Marginals of *every* node by one bottom-up pass (linear time).

    Delegates to the batched :func:`tree_marginals_array` kernel (forwarding
    *budget* to its checkpoints) and returns the dict view keyed by node id.

    Raises
    ------
    InferenceError
        If *check* is on and the network is not tree-factorable (the
        propagation would silently compute wrong numbers otherwise).

    Examples
    --------
    >>> net = AndOrNetwork()
    >>> u, v = net.add_leaf(0.3), net.add_leaf(0.8)
    >>> w = net.add_gate(NodeKind.OR, [(u, 0.5), (v, 0.5)])
    >>> round(tree_marginals(net)[w], 6)
    0.49
    """
    arr = tree_marginals_array(net, check=check, budget=budget)
    return dict(enumerate(arr.tolist()))
