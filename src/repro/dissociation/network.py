"""Dissociation bounds over an already-built And-Or component.

The plan-level evaluator (:mod:`repro.dissociation.engine`) never builds a
network; this module serves the opposite situation — the resilience ladder
holds a hard component of an existing network and wants a cheap sound
enclosure before paying for OBDD compilation or approximation.

The two folds mirror the plan-level rewrite. A node referenced by ``r > 1``
parents is an offending (shared) event:

* **upper** — treat every reference as a fresh independent copy with the
  node's own value: one bottom-up pass computing ``Π q·v`` at And gates and
  ``1 - Π (1 - q·v)`` at Or gates;
* **lower** — each reference consumes ``1 - (1 - v)^(1/r)``: the symmetric
  failure split, whose exponents sum to one across the copies.

Both passes are linear in the network. Soundness needs the sharing to be
*OR-context*: copies of a shared node must only meet again at Or gates.
Under one And gate, independence flips the error direction (an And of
positively correlated events is *more* likely than the product), so
:func:`network_dissociation_bounds` first runs a structural check — every
And gate's children must have pairwise-disjoint shared-node support — and
returns ``None`` when the component shares conjunctively. Networks grown
by the pL evaluator from self-join-free plans always pass: And gates there
combine join partners from different base relations, and Or gates do all
the merging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.enclosure import Enclosure

__all__ = ["NetworkDissociation", "network_dissociation_bounds"]


@dataclass
class NetworkDissociation:
    """Sound per-target enclosures from one pair of dissociated folds."""

    #: ``{node id: enclosure}`` for every requested target.
    bounds: dict[int, Enclosure]
    #: Number of shared (multi-referenced, uncertain) nodes dissociated.
    shared: int

    @property
    def exact(self) -> bool:
        """True when nothing was shared: the folds are the exact marginals."""
        return self.shared == 0


def network_dissociation_bounds(
    net: AndOrNetwork, targets
) -> NetworkDissociation | None:
    """Dissociation enclosures of *targets*, or ``None`` on conjunctive sharing.

    Linear-time; never raises on hardness. ``None`` means the component
    shares some node under an And gate, where the oblivious bounds do not
    apply — the caller falls through to the next ladder rung.
    """
    n = len(net)
    kinds = [net.kind(v) for v in range(n)]
    plists = [net.parents(v) for v in range(n)]

    # Reference counts; a node is dissociated when >1 gate consumes it.
    refs = [0] * n
    for plist in plists:
        for w, _q in plist:
            refs[w] += 1

    # Deterministic nodes (probability exactly 0/1 through deterministic
    # edges) carry no uncertainty: sharing them is harmless, so they get no
    # support bit and no failure split.
    const = [False] * n
    for v in range(n):
        if kinds[v] == NodeKind.LEAF:
            p = net.leaf_probability(v)
            const[v] = p == 0.0 or p == 1.0
        else:
            const[v] = all(q == 1.0 and const[w] for w, q in plists[v])

    shared_bit: dict[int, int] = {}
    for v in range(n):
        if v != EPSILON and refs[v] > 1 and not const[v]:
            shared_bit[v] = 1 << len(shared_bit)

    # OR-context check: the shared-support bitmask of every And gate's
    # children must be pairwise disjoint. Supports are cumulative unions,
    # so the whole pass is one bottom-up sweep (ids are topological).
    if shared_bit:
        support = [0] * n
        for v in range(n):
            acc = 0
            is_and = kinds[v] == NodeKind.AND
            for w, _q in plists[v]:
                s = support[w]
                if is_and and (acc & s):
                    return None
                acc |= s
            support[v] = acc | shared_bit.get(v, 0)

    # Upper fold: copies keep their value.
    up = [0.0] * n
    for v in range(n):
        kind = kinds[v]
        if kind == NodeKind.LEAF:
            up[v] = net.leaf_probability(v)
        elif kind == NodeKind.AND:
            acc = 1.0
            for w, q in plists[v]:
                acc *= q * up[w]
            up[v] = acc
        else:
            fail = 1.0
            for w, q in plists[v]:
                fail *= 1.0 - q * up[w]
            up[v] = 1.0 - fail

    # Lower fold: every reference to a shared node consumes the symmetric
    # failure split 1-(1-v)^(1/r).
    lo = [0.0] * n
    use = [0.0] * n
    for v in range(n):
        kind = kinds[v]
        if kind == NodeKind.LEAF:
            lo[v] = net.leaf_probability(v)
        elif kind == NodeKind.AND:
            acc = 1.0
            for w, q in plists[v]:
                acc *= q * use[w]
            lo[v] = acc
        else:
            fail = 1.0
            for w, q in plists[v]:
                fail *= 1.0 - q * use[w]
            lo[v] = 1.0 - fail
        if v in shared_bit and lo[v] < 1.0:
            use[v] = -_expm1_div(lo[v], refs[v])
        else:
            use[v] = lo[v]

    return NetworkDissociation(
        bounds={
            t: Enclosure.clamped(lo[t], up[t], "dissociation") for t in targets
        },
        shared=len(shared_bit),
    )


def _expm1_div(p: float, r: int) -> float:
    """``expm1(log1p(-p)/r)`` — the (negated) symmetric failure split."""
    return math.expm1(math.log1p(-p) / r)
