"""Full-lineage (intensional) machinery and baselines.

Modules
-------
``dnf``
    Lineage construction (Definition 3.5): the DNF over tuple events obtained
    by grounding the query.
``exact``
    Exact DNF probability by DPLL-style Shannon expansion with independent
    component decomposition, factoring, and memoisation — the same algorithmic
    family as MayBMS's exact confidence computation [16], and the competitor
    line in the paper's Figures 5-7.
``readonce``
    One-occurrence (read-once) factorisation [17]: linear-time probability for
    the lineages of strictly hierarchical queries.
``sampling``
    Monte-Carlo baselines: naive world sampling and the Karp-Luby DNF
    estimator [21].
``treewidth``
    Primal graphs of DNFs and treewidth bounds (exact for tiny graphs,
    min-fill/min-degree heuristics otherwise) — the measure behind
    Theorem 4.2.
"""

from repro.lineage.dnf import (
    DNF,
    EventVar,
    EventVarInterner,
    lineage_of_query,
    answer_lineages,
)
from repro.lineage.exact import dnf_probability
from repro.lineage.readonce import read_once_tree, read_once_probability
from repro.lineage.approx_bounds import approximate_probability
from repro.lineage.events import (
    conditional_probability,
    conjoin,
    conjunction_probability,
    disjoin,
    ucq_probability,
)
from repro.lineage.obdd import OBDD, build_obdd, default_variable_order, obdd_probability
from repro.lineage.sampling import karp_luby, naive_monte_carlo
from repro.lineage.treewidth import primal_graph, treewidth_exact, treewidth_upper_bound

__all__ = [
    "EventVar",
    "EventVarInterner",
    "DNF",
    "lineage_of_query",
    "answer_lineages",
    "dnf_probability",
    "read_once_tree",
    "read_once_probability",
    "naive_monte_carlo",
    "karp_luby",
    "OBDD",
    "build_obdd",
    "default_variable_order",
    "obdd_probability",
    "approximate_probability",
    "disjoin",
    "conjoin",
    "ucq_probability",
    "conjunction_probability",
    "conditional_probability",
    "primal_graph",
    "treewidth_exact",
    "treewidth_upper_bound",
]
