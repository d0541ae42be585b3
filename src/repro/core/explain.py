"""EXPLAIN for partial-lineage plans.

Renders a plan as an annotated tree and — given a database — predicts each
join's data safety *before* running it, using the Proposition 3.2 predicate
on the scans' output (constants and repeated variables applied). The
prediction is exact for joins whose inputs are base scans (the common first
join, where most conditioning happens) and "data-dependent" elsewhere.

Also exports And-Or networks and plans to Graphviz DOT text for inspection.
"""

from __future__ import annotations

import numpy as np

from repro.core.columnar import (
    BaseScanner,
    CodedRelation,
    match_join,
    offending_mask,
)
from repro.core.executor import EvaluationResult
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.core.plan import Filter, Join, Plan, Project, Scan, Select, plan_schema
from repro.db.database import ProbabilisticDatabase


def scan_output(
    scanner: BaseScanner, db: ProbabilisticDatabase, scan: Scan
) -> tuple[CodedRelation, np.ndarray]:
    """The rows a base scan yields (its constants and repeated variables
    applied), as a coded relation over the scan's attributes plus the
    probability column — exactly the scan the evaluator runs."""
    attributes, codes, probs = scanner.scan(db[scan.relation], scan.terms)
    rel = CodedRelation(attributes, scanner.interner, codes, scan.relation)
    return rel, probs


def scan_join_offending(
    scanner: BaseScanner,
    db: ProbabilisticDatabase,
    left: Scan,
    right: Scan,
    on: tuple[str, ...],
) -> tuple[int, int]:
    """Offending tuples (Definition 5.14) on each side of ``left ⋈_on right``
    over two base scans: the counts the evaluator conditions at that join."""
    lrel, lprobs = scan_output(scanner, db, left)
    rrel, rprobs = scan_output(scanner, db, right)
    m = match_join(lrel, rrel, on)
    return (
        int(offending_mask(lprobs, m.left_fanout).sum()),
        int(offending_mask(rprobs, m.right_fanout).sum()),
    )


def _join_annotation(
    join: Join, db: ProbabilisticDatabase, scanner: BaseScanner
) -> str:
    """Predict the join's offending counts where both sides are base scans."""
    if not (isinstance(join.left, Scan) and isinstance(join.right, Scan)):
        return "offending: data-dependent (inputs are derived)"
    loff, roff = scan_join_offending(
        scanner, db, join.left, join.right, join.on
    )
    if loff == roff == 0:
        return "data safe (no offending tuples)"
    return f"offending: {loff} left + {roff} right tuples will be conditioned"


def explain(plan: Plan, db: ProbabilisticDatabase | None = None) -> str:
    """An indented tree rendering of *plan*, annotated when *db* is given.

    Examples
    --------
    >>> from repro.core.plan import left_deep_plan
    >>> from repro.query.parser import parse_query
    >>> q = parse_query("R(x), S(x,y)")
    >>> print(explain(left_deep_plan(q)))
    π[∅]
    └─ ⋈[x]
       ├─ scan R(x)
       └─ scan S(x, y)
    """
    lines: list[str] = []
    scanner = BaseScanner()

    def annotate(node: Plan) -> str:
        if db is None:
            return ""
        if isinstance(node, Join):
            return f"   -- {_join_annotation(node, db, scanner)}"
        if isinstance(node, Scan):
            _, probs = scan_output(scanner, db, node)
            uncertain = int((probs < 1.0).sum())
            return f"   -- {probs.size} tuples, {uncertain} uncertain"
        return ""

    def walk(node: Plan, prefix: str, connector: str) -> None:
        if isinstance(node, Project):
            label = f"π[{', '.join(node.attributes) or '∅'}]"
            children = [node.child]
        elif isinstance(node, Select):
            conds = ", ".join(f"{a}={v!r}" for a, v in node.conditions)
            label = f"σ[{conds}]"
            children = [node.child]
        elif isinstance(node, Filter):
            conds = ", ".join(
                f"{c.attribute} {c.op} {c.value!r}" for c in node.predicates
            )
            label = f"σ[{conds}]"
            children = [node.child]
        elif isinstance(node, Join):
            label = f"⋈[{','.join(node.on)}]"
            children = [node.left, node.right]
        else:
            label = f"scan {node}"
            children = []
        lines.append(f"{prefix}{connector}{label}{annotate(node)}")
        child_prefix = prefix
        if connector == "└─ ":
            child_prefix += "   "
        elif connector == "├─ ":
            child_prefix += "│  "
        for i, child in enumerate(children):
            last = i == len(children) - 1
            walk(child, child_prefix, "└─ " if last else "├─ ")

    if db is not None:
        plan_schema(plan, db)  # validate before annotating
    walk(plan, "", "")
    return "\n".join(lines)


def network_to_dot(net: AndOrNetwork, highlight: set[int] | None = None) -> str:
    """Graphviz DOT text for an And-Or network.

    Leaves are ellipses labelled with their probability; gates are boxes
    (``∨`` / ``∧``); edges carry their probability when below 1. Nodes in
    *highlight* (e.g. answer lineage nodes) are drawn bold.
    """
    highlight = highlight or set()
    lines = ["digraph andor {", "  rankdir=BT;"]
    for v in net.nodes():
        kind = net.kind(v)
        style = ", style=bold" if v in highlight else ""
        if kind is NodeKind.LEAF:
            label = "ε" if v == EPSILON else f"n{v}\\np={net.leaf_probability(v):g}"
            lines.append(f'  n{v} [label="{label}", shape=ellipse{style}];')
        else:
            symbol = "∨" if kind is NodeKind.OR else "∧"
            lines.append(f'  n{v} [label="n{v} {symbol}", shape=box{style}];')
        for w, q in net.parents(v):
            attr = "" if q == 1.0 else f' [label="{q:g}"]'
            lines.append(f"  n{w} -> n{v}{attr};")
    lines.append("}")
    return "\n".join(lines)


def result_to_dot(result: EvaluationResult) -> str:
    """DOT text for a result's network, highlighting the answers' lineage."""
    answers = {l for _, l, _ in result.relation.items() if l != EPSILON}
    return network_to_dot(result.network, highlight=answers)
