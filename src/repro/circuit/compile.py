"""Compiling solved lineage artifacts into arithmetic circuits.

Three lowering paths, one per inference artifact the engine already produces:

* :func:`compile_obdd` — the exact path's OBDD [17] maps node-for-node onto a
  circuit: each decision node ``(v, low, high)`` becomes the Shannon sum
  ``(1-p_v)·low + p_v·high``, which is deterministic and decomposable by the
  ordering invariant (``low``/``high`` only test variables after ``v``).
* :func:`compile_network` — a *tree-shaped* And-Or network slice (the
  VE/treeprop regime) compiles directly without any DNF or OBDD in between:
  Or gates are independent unions ``1 - Π (1 - q_i·child_i)``, And gates are
  products, noisy edges contribute the paper's anonymous edge variables.
* :func:`compile_dnf` — the fallback replays the DPLL decomposition trace of
  :mod:`repro.lineage.exact` (independent components, common-variable
  factoring, Shannon expansion), but *records* the trace as circuit gates
  instead of collapsing it to one number. The circuit is the reusable form
  of the work the solver already did.

All three build probability-INDEPENDENT structure: no path folds constants
based on current leaf probabilities (contrast :func:`~repro.lineage.exact
.dnf_probability`, which simplifies ``p==1`` variables away up front). One
compiled structure therefore serves every future re-scoring, which is what
the :class:`~repro.circuit.CircuitCache` relies on.

:func:`compile_lineage` is the dispatcher used by
:class:`~repro.core.whatif.WhatIfAnalysis`: tree-direct when the slice is a
tree, else OBDD, else DPLL trace when the OBDD blows its node budget.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.circuit.ac import ArithmeticCircuit, CircuitBuilder
from repro.core.compile import partial_lineage_dnf
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.errors import CapacityError
from repro.lineage.dnf import DNF, EventVar
from repro.lineage.masks import (
    Formula,
    bits,
    branch_bit,
    cofactors,
    common,
    deep_recursion,
    encode,
    split,
)
from repro.lineage.obdd import FALSE, TRUE, OBDD, build_obdd
from repro.obs.trace import span as _span

__all__ = [
    "compile_obdd",
    "compile_dnf",
    "compile_network",
    "compile_lineage",
]


def compile_obdd(
    obdd: OBDD, probs: Mapping[EventVar, float]
) -> ArithmeticCircuit:
    """Lower a reduced OBDD into an arithmetic circuit.

    Every decision node becomes one deterministic SUM over two guarded
    products; terminals become constants. Long edges (skipped variables)
    need no smoothing gates: the pair ``(p, 1-p)`` marginalises to 1, so the
    circuit value equals the OBDD probability for *any* leaf vector.

    Examples
    --------
    >>> from repro.lineage.dnf import DNF, EventVar
    >>> x, y = EventVar("R", (1,)), EventVar("R", (2,))
    >>> c = compile_obdd(build_obdd(DNF([{x}, {y}])), {x: 0.5, y: 0.5})
    >>> float(c.evaluate(c.base_probs)[0])
    0.75
    """
    b = CircuitBuilder()
    mapped: dict[int, int] = {FALSE: b.const(0.0), TRUE: b.const(1.0)}
    for node_id in range(2, len(obdd.nodes) + 2):
        var_index, low, high = obdd.node(node_id)
        mapped[node_id] = b.sum(
            [
                b.prod([b.var(var_index), mapped[high]]),
                b.prod([b.nvar(var_index), mapped[low]]),
            ]
        )
    return b.build(
        mapped[obdd.root],
        leaf_vars=obdd.order,
        base_probs=[float(probs[v]) for v in obdd.order],
    )


def compile_dnf(
    dnf: DNF,
    probs: Mapping[EventVar, float],
    *,
    max_nodes: int = 1_000_000,
    budget=None,
    leaf_order: Sequence[EventVar] | None = None,
) -> ArithmeticCircuit:
    """Compile a monotone DNF by recording the DPLL decomposition trace.

    Mirrors the solver of :mod:`repro.lineage.exact` — the same mask
    primitives (:mod:`repro.lineage.masks`) for independent components,
    common-variable factoring and Shannon expansion, memoisation on clause
    sets — but emits gates instead of numbers. Decisions depend only
    on the integer clause structure (deterministic tie-breaks, no
    probability-driven simplification), so two DNFs with the same shape over
    the same leaf order compile to the identical circuit: the property the
    structural cache's rename-invariant signatures rely on.

    Parameters
    ----------
    dnf, probs:
        The formula and the default probability of each of its variables
        (recorded as :attr:`~repro.circuit.ArithmeticCircuit.base_probs`;
        never baked into structure).
    max_nodes:
        Builder budget; :class:`~repro.errors.CapacityError` beyond it.
    budget:
        Optional :class:`~repro.resilience.QueryBudget`, checked
        cooperatively every few hundred compile steps.
    leaf_order:
        Leaf-column order of the circuit; defaults to sorted variables.
        The cache layer passes its canonical rank order here.

    Examples
    --------
    >>> from repro.lineage.dnf import DNF, EventVar
    >>> x, y = EventVar("R", (1,)), EventVar("R", (2,))
    >>> c = compile_dnf(DNF([{x}, {y}]), {x: 0.5, y: 0.5})
    >>> round(c.probability(), 6)
    0.75
    """
    if leaf_order is None:
        leaf_order = tuple(sorted(dnf.variables()))
    else:
        leaf_order = tuple(leaf_order)
        missing = dnf.variables() - set(leaf_order)
        if missing:
            raise ValueError(
                f"leaf_order misses variables: {sorted(map(str, missing))}"
            )
    index = {v: i for i, v in enumerate(leaf_order)}
    b = CircuitBuilder()
    memo: dict[Formula, int] = {}
    steps = 0

    def check() -> None:
        nonlocal steps
        steps += 1
        if len(b) > max_nodes:
            raise CapacityError(
                f"circuit compilation exceeded {max_nodes} nodes"
            )
        if budget is not None and steps % 256 == 0:
            budget.checkpoint("circuit-compile")

    def compile_formula(formula: Formula) -> int:
        if not formula:
            return b.const(0.0)
        if 0 in formula:
            return b.const(1.0)
        hit = memo.get(formula)
        if hit is not None:
            return hit
        check()
        groups = split(formula)
        if len(groups) > 1:
            # independent union: 1 - Π (1 - Pr(component))
            node = b.cmpl(b.prod([b.cmpl(factor(g)) for g in groups]))
        else:
            node = factor(formula)
        memo[formula] = node
        return node

    def factor(formula: Formula) -> int:
        shared = common(formula)
        if not shared:
            return shannon(formula)
        literals = [b.var(v) for v in bits(shared)]
        rest = frozenset([c ^ shared for c in formula])
        if 0 in rest:
            return b.prod(literals) if len(literals) > 1 else literals[0]
        return b.prod(literals + [compile_formula(rest)])

    def shannon(formula: Formula) -> int:
        bit = branch_bit(formula)
        var = bit.bit_length() - 1
        positive, negative = cofactors(formula, bit)
        pos = compile_formula(positive)
        neg = compile_formula(negative)
        return b.sum([b.prod([b.var(var), pos]), b.prod([b.nvar(var), neg])])

    with _span(
        "compile_dnf", variables=len(leaf_order), clauses=len(dnf.clauses)
    ) as sp, deep_recursion(len(leaf_order)):
        root = compile_formula(encode(dnf.clauses, index))
        sp.add("circuit_nodes", len(b))
    return b.build(
        root,
        leaf_vars=leaf_order,
        base_probs=[float(probs[v]) for v in leaf_order],
    )


def compile_network(
    net: AndOrNetwork, node: int
) -> ArithmeticCircuit | None:
    """Tree-direct compilation of the sub-network rooted at *node*.

    When the slice feeding *node* is a tree (no input — gate or leaf —
    reachable along two paths), every gate is an independent combination and
    lowers directly: And gates to products, Or gates to the complement trick
    ``1 - Π (1 - branch_i)``, each noisy edge (``q < 1``) to one anonymous
    edge variable. Variables carry the exact names
    :func:`~repro.core.compile.partial_lineage_dnf` would assign
    (``("leaf", (id,))`` / ``("edge", (child, index))``), so the circuit is
    interchangeable with the OBDD/DNF paths for what-if overrides.

    Returns ``None`` when the slice is not a tree (a shared input breaks
    decomposability of the direct product); callers fall back to the
    OBDD or DPLL-trace path.

    Examples
    --------
    >>> net = AndOrNetwork()
    >>> x = net.add_leaf(0.5)
    >>> g = net.add_gate(NodeKind.OR, [(x, 0.25), (EPSILON, 0.1)])
    >>> c = compile_network(net, g)
    >>> round(c.probability(), 6)                 # 1-(1-.5*.25)(1-.1)
    0.2125
    """
    if node == EPSILON:
        return None
    b = CircuitBuilder()
    leaf_vars: list[EventVar] = []
    base_probs: list[float] = []
    expanded: set[int] = set()

    def new_leaf(var: EventVar, probability: float) -> int:
        leaf_vars.append(var)
        base_probs.append(float(probability))
        return b.var(len(leaf_vars) - 1)

    def expand(v: int) -> int | None:
        if v == EPSILON:
            return b.const(1.0)
        if v in expanded:
            return None  # shared input: not a tree
        expanded.add(v)
        kind = net.kind(v)
        if kind is NodeKind.LEAF:
            return new_leaf(EventVar("leaf", (v,)), net.leaf_probability(v))
        branches: list[int] = []
        for i, (w, q) in enumerate(net.parents(v)):
            sub = expand(w)
            if sub is None:
                return None
            if q < 1.0:
                anon = new_leaf(EventVar("edge", (v, i)), q)
                sub = anon if sub == b.const(1.0) else b.prod([anon, sub])
            branches.append(sub)
        if kind is NodeKind.AND:
            return b.prod(branches) if len(branches) > 1 else branches[0]
        if len(branches) == 1:
            return branches[0]
        return b.cmpl(b.prod([b.cmpl(x) for x in branches]))

    root = expand(node)
    if root is None:
        return None
    return b.build(root, leaf_vars=tuple(leaf_vars), base_probs=base_probs)


def compile_lineage(
    net: AndOrNetwork,
    node: int,
    *,
    obdd_max_nodes: int = 200_000,
    max_clauses: int = 500_000,
    budget=None,
) -> tuple[ArithmeticCircuit, str]:
    """Compile the lineage of one network node, choosing the cheapest path.

    Returns ``(circuit, method)`` with ``method`` one of ``"tree"``,
    ``"obdd"``, ``"dnf"``: tree-direct when the slice is a tree, else the
    OBDD lowering, else the DPLL-trace compiler when OBDD construction blows
    its node budget (cf. Theorem 4.2 — some lineages have no small OBDD
    under any order but still decompose well).

    Raises
    ------
    CapacityError
        When even the DNF expansion or the trace compiler exceeds capacity.
    DeadlineExceededError
        From *budget* checkpoints inside OBDD construction or the trace
        compiler.
    """
    direct = compile_network(net, node)
    if direct is not None:
        return direct, "tree"
    dnf, probs = partial_lineage_dnf(net, node, max_clauses=max_clauses)
    try:
        obdd = build_obdd(dnf, max_nodes=obdd_max_nodes, budget=budget)
        return compile_obdd(obdd, probs), "obdd"
    except CapacityError:
        return (
            compile_dnf(dnf, probs, budget=budget),
            "dnf",
        )
