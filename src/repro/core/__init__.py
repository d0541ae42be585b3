"""The paper's primary contribution: partial-lineage query evaluation.

Modules
-------
``network``
    And-Or networks (Section 5.1): noisy-gate Bayesian networks grown by the
    relational operators, with hash-based reuse of deterministic gates.
``plrelation``
    pL-relations (Definition 5.2): relations carrying a probability and a
    lineage node per tuple, interpreted against a shared And-Or network.
``columnar``
    The mixed extensional/intensional operators of Section 5.3 — selection,
    independent project, deduplication, conditioning, ``cSet``, and the
    pL-join — as NumPy kernels over dictionary-encoded pL-relation columns.
``plan``
    Relational plan AST (Scan/Select/Project/Join) and the left-deep plan
    builder used for the Table 1 queries.
``executor``
    Plan evaluation over a probabilistic database, producing per-answer
    partial lineage, plus final inference.
``safety``
    Data-safety predicates and offending-tuple accounting (Section 3).
``inference``
    Exact marginal inference on And-Or networks by factor decomposition and
    variable elimination (Theorem 5.17's practical counterpart).
"""

from repro.core.network import AndOrNetwork, EPSILON, NodeKind
from repro.core.plrelation import PLRelation
from repro.core.columnar import ColumnarPLRelation, Comparison, ValueInterner
from repro.core.plan import (
    Filter,
    Join,
    Project,
    Scan,
    Select,
    left_deep_plan,
    plan_schema,
)
from repro.core.executor import EvaluationResult, PartialLineageEvaluator
from repro.core.inference import compute_marginal, compute_marginals
from repro.core.compile import partial_lineage_dnf
from repro.core.approximate import (
    forward_sample_marginal,
    forward_sample_marginals,
    hoeffding_samples,
    karp_luby_marginal,
    karp_luby_samples,
)
from repro.core.treeprop import (
    is_tree_factorable,
    tree_marginals,
    tree_marginals_array,
)
from repro.core.optimizer import PlanChoice, choose_join_order
from repro.core.whatif import Sensitivity, WhatIfAnalysis
from repro.core.executor import OffendingTuple
from repro.core.explain import explain, network_to_dot, result_to_dot
from repro.core.simplify import compact_result, constant_fold, prune

__all__ = [
    "AndOrNetwork",
    "NodeKind",
    "EPSILON",
    "PLRelation",
    "ColumnarPLRelation",
    "Comparison",
    "ValueInterner",
    "Scan",
    "Select",
    "Filter",
    "Project",
    "Join",
    "left_deep_plan",
    "plan_schema",
    "PartialLineageEvaluator",
    "EvaluationResult",
    "compute_marginal",
    "compute_marginals",
    "partial_lineage_dnf",
    "forward_sample_marginal",
    "forward_sample_marginals",
    "karp_luby_marginal",
    "hoeffding_samples",
    "karp_luby_samples",
    "is_tree_factorable",
    "tree_marginals",
    "tree_marginals_array",
    "PlanChoice",
    "choose_join_order",
    "WhatIfAnalysis",
    "Sensitivity",
    "OffendingTuple",
    "explain",
    "network_to_dot",
    "result_to_dot",
    "prune",
    "constant_fold",
    "compact_result",
]
