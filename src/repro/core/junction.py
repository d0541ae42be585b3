"""Junction-tree message passing: Theorem 5.17, computing *all* marginals.

Theorem 5.17 computes marginals from a tree decomposition of the network's
graph in ``O(|G| · 16^tw)``. Variable elimination (``repro.core.inference``)
answers one marginal per run; this module implements the full junction-tree
(clique-tree) algorithm, which after a *single* upward/downward message pass
yields the marginal of every variable — the right tool when an evaluation
result has many answer tuples sharing one network component.

Pipeline:

1. decompose the network into ternary factors (the shared ``D(G)`` step);
2. build cliques from a min-fill elimination order (each variable's
   elimination clique), connect them into a tree by running intersection
   (the standard construction: clique *i* connects to the first later clique
   containing its residual separator);
3. two-pass sum-product message passing over the clique tree;
4. read each variable's marginal off any clique containing it.

Exactness is tested against both brute force and per-node VE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.inference import (
    Factor,
    MAX_FACTOR_VARS,
    multiply,
    network_factors,
    reduce_evidence,
    sum_out,
)
from repro.core.network import EPSILON, AndOrNetwork
from repro.errors import InferenceError
from repro.obs.trace import span as _span


@dataclass
class CliqueTree:
    """A calibrated clique tree over Boolean variables."""

    cliques: list[tuple[int, ...]]
    #: parent index per clique (-1 for the root)
    parents: list[int]
    #: calibrated beliefs, aligned with ``cliques``
    beliefs: list[Factor] = field(default_factory=list)
    #: variable -> index of one clique containing it, precomputed at
    #: calibration time so per-variable lookups are O(1) instead of a linear
    #: scan over all cliques (``all_marginals`` reads many variables off one
    #: calibrated tree).
    clique_of: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.clique_of:
            for i, clique in enumerate(self.cliques):
                for var in clique:
                    self.clique_of.setdefault(var, i)

    def marginal(self, var: int) -> float:
        """``Pr(var = 1)`` from a clique containing *var* (O(1) lookup)."""
        index = self.clique_of.get(var)
        if index is None:
            raise KeyError(f"variable {var} not covered by the clique tree")
        f = self.beliefs[index]
        for other in self.cliques[index]:
            if other != var:
                f = sum_out(f, other)
        total = float(f.table.sum())
        if total <= 0.0:
            raise InferenceError("clique tree holds zero mass")
        return float(f.table[1]) / total


def _elimination_cliques(
    factors: list[Factor],
) -> tuple[list[tuple[int, ...]], list[int], list[list[int]]]:
    """Min-fill elimination producing one clique per eliminated variable.

    Returns the cliques, the clique-tree parent pointers, and the assignment
    of each input factor to the first clique covering it.
    """
    adj: dict[int, set[int]] = {}
    for f in factors:
        for v in f.vars:
            adj.setdefault(v, set()).update(w for w in f.vars if w != v)

    cliques: list[tuple[int, ...]] = []
    eliminated_at: dict[int, int] = {}
    order: list[int] = []
    remaining = set(adj)
    work = {v: set(nbrs) for v, nbrs in adj.items()}
    while remaining:
        def fill_cost(v: int) -> tuple[int, int, int]:
            nbrs = [w for w in work[v] if w in remaining]
            missing = sum(
                1
                for i, a in enumerate(nbrs)
                for b in nbrs[i + 1 :]
                if b not in work[a]
            )
            return (missing, len(nbrs), v)

        v = min(remaining, key=fill_cost)
        nbrs = [w for w in work[v] if w in remaining and w != v]
        clique = tuple(sorted([v, *nbrs]))
        if len(clique) > MAX_FACTOR_VARS:
            raise InferenceError(
                f"clique of {len(clique)} variables exceeds the budget; "
                f"treewidth too high for the junction tree"
            )
        cliques.append(clique)
        eliminated_at[v] = len(cliques) - 1
        order.append(v)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                work[a].add(b)
                work[b].add(a)
        remaining.discard(v)

    # connect clique i to the clique where the earliest-eliminated variable
    # of its separator (clique minus its own variable) is eliminated
    position = {v: i for i, v in enumerate(order)}
    parents: list[int] = []
    for i, clique in enumerate(cliques):
        separator = [v for v in clique if v != order[i]]
        if not separator:
            parents.append(-1)
            continue
        nxt = min(separator, key=position.__getitem__)
        parents.append(eliminated_at[nxt])

    assignment: list[list[int]] = [[] for _ in cliques]
    for idx, f in enumerate(factors):
        home = min(
            (position[v] for v in f.vars),
            default=None,
        )
        if home is None:  # constant factor: park it at the root-most clique
            assignment[0].append(idx)
        else:
            assignment[eliminated_at[order[home]]].append(idx)
    return cliques, parents, assignment


def _unit_factor(vars_: tuple[int, ...]) -> Factor:
    return Factor(vars_, np.ones((2,) * len(vars_)))


def build_clique_tree(
    net: AndOrNetwork,
    relevant: set[int] | None = None,
    evidence: dict[int, int] | None = None,
) -> CliqueTree:
    """Build and calibrate a clique tree for (part of) a network.

    Parameters
    ----------
    net:
        The And-Or network.
    relevant:
        Ancestor-closed node set to cover (defaults to the whole network).
    evidence:
        Observed node values, folded into the potentials before calibration.
        Because :meth:`CliqueTree.marginal` renormalises, marginals read off
        the calibrated tree are then *conditional* on the evidence.
    """
    factors = network_factors(net, relevant)
    scalar = 1.0
    if evidence:
        reduced = []
        for f in (reduce_evidence(f, evidence) for f in factors):
            if f.vars:
                reduced.append(f)
            else:
                scalar *= float(f.table)
        factors = reduced
    if not factors:
        raise InferenceError("nothing to calibrate: no variables remain")
    del scalar  # beliefs are renormalised per marginal; the constant cancels
    return calibrate_clique_tree(factors)


def calibrate_clique_tree(
    factors: list[Factor],
    elimination: tuple[list[tuple[int, ...]], list[int], list[list[int]]]
    | None = None,
    budget=None,
) -> CliqueTree:
    """Calibrate a clique tree directly from decomposed factors.

    *elimination* optionally supplies a precomputed
    :func:`_elimination_cliques` result so callers that already ran the
    min-fill pass (e.g. the component-sliced driver, which uses the clique
    sizes as its width estimate) do not pay for it twice. *budget* is an
    optional :class:`~repro.resilience.QueryBudget` checkpointed once per
    clique during each pass.
    """
    if elimination is None:
        elimination = _elimination_cliques(factors)
    cliques, parents, assignment = elimination
    with _span("calibrate_clique_tree") as sp:
        sp.add("factors", len(factors))
        sp.add("cliques", len(cliques))
        potentials: list[Factor] = []
        for i, clique in enumerate(cliques):
            if budget is not None:
                budget.checkpoint("junction")
            f = _unit_factor(clique)
            for idx in assignment[i]:
                f = multiply(f, factors[idx])
            potentials.append(f)

        children: list[list[int]] = [[] for _ in cliques]
        roots: list[int] = []
        for i, parent in enumerate(parents):
            if parent < 0:
                roots.append(i)
            else:
                children[parent].append(i)

        # upward pass (children before parents: cliques are already in
        # elimination order, and parents always come later)
        upward: list[Factor | None] = [None] * len(cliques)
        for i, clique in enumerate(cliques):
            f = potentials[i]
            for child in children[i]:
                f = multiply(f, upward[child])
            message = f
            if parents[i] >= 0:
                separator = set(clique) & set(cliques[parents[i]])
                for v in clique:
                    if v not in separator:
                        message = sum_out(message, v)
            upward[i] = message

        # downward pass: parents carry higher indices than their children (a
        # clique's parent is eliminated later), so descending order visits
        # every parent before its children and downward[child] is ready in
        # time
        beliefs: list[Factor | None] = [None] * len(cliques)
        downward: list[Factor | None] = [None] * len(cliques)
        for i in range(len(cliques) - 1, -1, -1):
            f = potentials[i]
            for child in children[i]:
                f = multiply(f, upward[child])
            if parents[i] >= 0:
                f = multiply(f, downward[i])
            beliefs[i] = f
            for child in children[i]:
                g = potentials[i]
                for other in children[i]:
                    if other != child:
                        g = multiply(g, upward[other])
                if parents[i] >= 0:
                    g = multiply(g, downward[i])
                separator = set(cliques[i]) & set(cliques[child])
                for v in cliques[i]:
                    if v not in separator:
                        g = sum_out(g, v)
                downward[child] = g

    return CliqueTree(cliques=cliques, parents=parents, beliefs=list(beliefs))


def all_marginals(
    net: AndOrNetwork, nodes: list[int] | None = None, budget=None
) -> dict[int, float]:
    """Marginals ``Pr(v=1)`` for many nodes via one calibration per component.

    Functionally equivalent to calling
    :func:`repro.core.inference.compute_marginal` per node, but the clique
    tree is calibrated once per connected component, so the cost is shared.
    *budget* is forwarded to :func:`calibrate_clique_tree`'s checkpoints.
    """
    targets = [v for v in (nodes if nodes is not None else list(net.nodes()))]
    out: dict[int, float] = {}
    components = net.components()
    by_component: dict[int, list[int]] = {}
    for v in dict.fromkeys(targets):
        if v == EPSILON:
            out[EPSILON] = 1.0
            continue
        by_component.setdefault(components.of(v), []).append(v)
    with _span("all_marginals", targets=len(targets)) as sp:
        sp.add("components", len(by_component))
        for grouped in by_component.values():
            # barren-node pruning: only the targets' ancestors matter
            relevant = net.ancestors(grouped)
            relevant.add(EPSILON)
            tree = calibrate_clique_tree(
                network_factors(net, relevant), budget=budget
            )
            for v in grouped:
                out[v] = tree.marginal(v)
    return out
