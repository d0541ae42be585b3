"""Construction of AND/OR factor graphs from query plans.

[25] models a query *plan* (not a query — Figure 1 of the paper shows two
different graphs for the two plans of Example 3.6) as a directed graph:

* every base tuple is a leaf random variable;
* every join output tuple is an And gate over the two joined tuples;
* every projection output tuple is an Or gate over all tuples projecting to
  it.

Nothing is folded into numbers and no nodes are merged, so the graph size is
the size of the full intermediate results. The partial-lineage And-Or network
is obtained from this graph by deleting extensionally-folded nodes and
contracting hash-merged ones — the minor relation of Proposition 4.3, which
``tests/factorgraph`` verifies on concrete instances via treewidth
monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.network import EPSILON, AndOrNetwork
from repro.core.plan import Filter, Join, Plan, Project, Scan, Select, plan_schema
from repro.db.database import ProbabilisticDatabase
from repro.db.schema import Row
from repro.errors import PlanError
from repro.query.syntax import Constant, Variable

if TYPE_CHECKING:
    import networkx as nx


def _digraph() -> nx.DiGraph:
    import networkx as nx

    return nx.DiGraph()


@dataclass
class FactorGraph:
    """The AND/OR factor graph ``G_f`` of a plan on an instance.

    ``graph`` is a DAG whose nodes carry a ``kind`` attribute (``"leaf"``,
    ``"and"``, ``"or"``) and, for leaves, a ``prob`` attribute. ``outputs``
    maps each output row of the plan to its node.
    """

    graph: nx.DiGraph = field(default_factory=_digraph)
    outputs: dict[Row, int] = field(default_factory=dict)
    _counter: int = 0

    def _new_node(self, kind: str, prob: float | None = None) -> int:
        node = self._counter
        self._counter += 1
        if prob is None:
            self.graph.add_node(node, kind=kind)
        else:
            self.graph.add_node(node, kind=kind, prob=prob)
        return node

    def leaf(self, prob: float) -> int:
        """Add a base-tuple variable."""
        return self._new_node("leaf", prob)

    def gate(self, kind: str, inputs: list[int]) -> int:
        """Add an And/Or gate with edges from its inputs."""
        node = self._new_node(kind)
        for i in inputs:
            self.graph.add_edge(i, node)
        return node

    def undirected(self) -> nx.Graph:
        """The underlying undirected graph (for treewidth)."""
        return self.graph.to_undirected()


def build_factor_graph(
    plan: Plan, db: ProbabilisticDatabase
) -> FactorGraph:
    """Evaluate *plan* intensionally, building the Sen-Deshpande graph.

    The returned graph has one node per tuple of every intermediate relation,
    so its size is the full intensional blow-up; build it only on the modest
    instances used for the Prop 4.3 / Cor 4.4 measurements.
    """
    plan_schema(plan, db)  # validate
    fg = FactorGraph()

    def walk(p: Plan) -> dict[Row, int]:
        if isinstance(p, Scan):
            return _scan(p, db, fg)
        if isinstance(p, Select):
            child = walk(p.child)
            idx = {a: i for i, a in enumerate(plan_schema(p.child, db))}
            out = {}
            for row, node in child.items():
                if all(row[idx[a]] == v for a, v in p.conditions):
                    out[row] = node
            return out
        if isinstance(p, Filter):
            child = walk(p.child)
            idx = {a: i for i, a in enumerate(plan_schema(p.child, db))}
            return {
                row: node
                for row, node in child.items()
                if all(c.matches(row, idx.__getitem__) for c in p.predicates)
            }
        if isinstance(p, Project):
            child = walk(p.child)
            schema = plan_schema(p.child, db)
            positions = [schema.index(a) for a in p.attributes]
            groups: dict[Row, list[int]] = {}
            for row, node in child.items():
                key = tuple(row[i] for i in positions)
                groups.setdefault(key, []).append(node)
            return {
                key: fg.gate("or", nodes) for key, nodes in groups.items()
            }
        if isinstance(p, Join):
            left = walk(p.left)
            right = walk(p.right)
            lschema = plan_schema(p.left, db)
            rschema = plan_schema(p.right, db)
            lpos = [lschema.index(a) for a in p.on]
            rpos = [rschema.index(a) for a in p.on]
            keep = [i for i, a in enumerate(rschema) if a not in set(p.on)]
            index: dict[Row, list[tuple[Row, int]]] = {}
            for row, node in right.items():
                index.setdefault(tuple(row[i] for i in rpos), []).append((row, node))
            out = {}
            for lrow, lnode in left.items():
                for rrow, rnode in index.get(tuple(lrow[i] for i in lpos), ()):
                    merged = lrow + tuple(rrow[i] for i in keep)
                    out[merged] = fg.gate("and", [lnode, rnode])
            return out
        raise PlanError(f"unknown plan node {p!r}")

    fg.outputs = walk(plan)
    return fg


def _scan(scan: Scan, db: ProbabilisticDatabase, fg: FactorGraph) -> dict[Row, int]:
    base = db[scan.relation]
    if scan.terms is None:
        return {row: fg.leaf(p) for row, p in base.items()}
    var_first: dict[str, int] = {}
    for i, t in enumerate(scan.terms):
        if isinstance(t, Variable) and t.name not in var_first:
            var_first[t.name] = i
    out: dict[Row, int] = {}
    for row, p in base.items():
        binding: dict[str, object] = {}
        ok = True
        for i, t in enumerate(scan.terms):
            if isinstance(t, Constant):
                if row[i] != t.value:
                    ok = False
                    break
            else:
                prev = binding.setdefault(t.name, row[i])
                if prev != row[i]:
                    ok = False
                    break
        if ok:
            out[tuple(row[i] for i in var_first.values())] = fg.leaf(p)
    return out


def network_to_graph(net: AndOrNetwork, include_epsilon: bool = False) -> nx.Graph:
    """Undirected view of an And-Or network ``G_n`` (for treewidth comparison).

    ε is excluded by default: it is a constant, contributes no correlation,
    and would artificially connect otherwise-independent components.
    """
    import networkx as nx

    g = nx.Graph()
    for v in net.nodes():
        if v == EPSILON and not include_epsilon:
            continue
        g.add_node(v)
        for w, _ in net.parents(v):
            if w == EPSILON and not include_epsilon:
                continue
            g.add_edge(w, v)
    return g
