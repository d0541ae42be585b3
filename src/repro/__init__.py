"""repro — bridging intensional and extensional probabilistic query evaluation.

A faithful Python reproduction of *Jha, Olteanu, Suciu: "Bridging the Gap
Between Intensional and Extensional Query Evaluation in Probabilistic
Databases" (EDBT 2010)*.

Quickstart
----------
>>> from repro import ProbabilisticDatabase, parse_query, PartialLineageEvaluator
>>> db = ProbabilisticDatabase()
>>> _ = db.add_relation("R", ("A",), {(1,): 0.5})
>>> _ = db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
>>> _ = db.add_relation("T", ("B",), {(1,): 0.9, (2,): 0.9})
>>> q = parse_query("q() :- R(x), S(x,y), T(y)")     # the unsafe q_u of Sec. 4.1
>>> result = PartialLineageEvaluator(db).evaluate_query(q)
>>> round(result.boolean_probability(), 6)
0.34875

The public surface re-exports the main types from each layer; see DESIGN.md
for the complete system inventory.
"""

from repro.core import (
    AndOrNetwork,
    EPSILON,
    EvaluationResult,
    Filter,
    Join,
    NodeKind,
    PartialLineageEvaluator,
    PLRelation,
    PlanChoice,
    Project,
    Scan,
    Select,
    choose_join_order,
    compute_marginal,
    compute_marginals,
    forward_sample_marginal,
    hoeffding_samples,
    karp_luby_marginal,
    left_deep_plan,
    partial_lineage_dnf,
    plan_schema,
)
from repro.circuit import (
    ArithmeticCircuit,
    CircuitBuilder,
    CircuitCache,
    ScenarioBatch,
    circuit_signature,
    compile_dnf,
    compile_lineage,
    compile_network,
    compile_obdd,
    rescore,
    rescore_with_gradients,
)
from repro.core.whatif import Sensitivity, WhatIfAnalysis
from repro.core.executor import OffendingTuple
from repro.core.explain import explain, network_to_dot, result_to_dot
from repro.io import load_database, save_database
from repro.lineage.events import (
    conditional_probability,
    conjunction_probability,
    ucq_probability,
)
from repro.mc import mc_answer_probabilities, mc_query_probability
from repro.obs import (
    ExplainReport,
    MetricsRegistry,
    Tracer,
    build_explain_report,
    span,
    traced,
)
from repro.bid import BIDDatabase, BIDRelation, bid_query_probability
from repro.core.safety import PlanSafetyReport, analyze_plan, join_is_data_safe
from repro.db import (
    ProbabilisticDatabase,
    ProbabilisticRelation,
    RelationSchema,
    brute_force_answer_probabilities,
    brute_force_probability,
    fanout_profile,
    fd_violation_count,
    relation_statistics,
)
from repro.enclosure import Enclosure
from repro.errors import (
    BudgetExceededError,
    CapacityError,
    CircuitError,
    DeadlineExceededError,
    InferenceError,
    PlanError,
    ProbabilityError,
    QuerySemanticsError,
    QuerySyntaxError,
    ReproError,
    SchemaError,
    UnsafePlanError,
)
from repro.dissociation import (
    CertifiedAnswer,
    DissociationEvaluator,
    DissociationResult,
    TopKCertification,
    certified_top_k,
    dissociation_bounds,
    network_dissociation_bounds,
)
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    QueryBudget,
    exact_fractions,
    resilient_marginals,
)
from repro.extensional import lifted_answer_probabilities, lifted_probability, safe_plan
from repro.lineage import (
    DNF,
    EventVar,
    EventVarInterner,
    OBDD,
    answer_lineages,
    approximate_probability,
    build_obdd,
    dnf_probability,
    karp_luby,
    lineage_of_query,
    naive_monte_carlo,
    obdd_probability,
    read_once_probability,
)
from repro.perf import CacheStats, SubformulaCache
from repro.query import (
    Atom,
    ComparisonPredicate,
    ConjunctiveQuery,
    Constant,
    Variable,
    is_hierarchical,
    is_strictly_hierarchical,
    parse_query,
)

__version__ = "1.0.0"

__all__ = [
    # substrate
    "RelationSchema",
    "ProbabilisticRelation",
    "ProbabilisticDatabase",
    "brute_force_probability",
    "brute_force_answer_probabilities",
    # query language
    "Variable",
    "Constant",
    "Atom",
    "ComparisonPredicate",
    "ConjunctiveQuery",
    "parse_query",
    "is_hierarchical",
    "is_strictly_hierarchical",
    # core contribution
    "AndOrNetwork",
    "NodeKind",
    "EPSILON",
    "PLRelation",
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
    "analyze_plan",
    "join_is_data_safe",
    "PlanSafetyReport",
    # extensional baselines
    "lifted_probability",
    "lifted_answer_probabilities",
    "safe_plan",
    # intensional baselines
    "DNF",
    "EventVar",
    "EventVarInterner",
    "lineage_of_query",
    "answer_lineages",
    "dnf_probability",
    "read_once_probability",
    "naive_monte_carlo",
    "karp_luby",
    "OBDD",
    "build_obdd",
    "obdd_probability",
    "approximate_probability",
    # performance infrastructure
    "CacheStats",
    "SubformulaCache",
    # arithmetic circuits: compile once, re-score many
    "ArithmeticCircuit",
    "CircuitBuilder",
    "CircuitCache",
    "ScenarioBatch",
    "circuit_signature",
    "compile_dnf",
    "compile_lineage",
    "compile_network",
    "compile_obdd",
    "rescore",
    "rescore_with_gradients",
    # statistics & optimiser
    "fanout_profile",
    "fd_violation_count",
    "relation_statistics",
    "PlanChoice",
    "choose_join_order",
    # approximate inference
    "partial_lineage_dnf",
    "forward_sample_marginal",
    "karp_luby_marginal",
    "hoeffding_samples",
    "WhatIfAnalysis",
    "Sensitivity",
    "OffendingTuple",
    "explain",
    "network_to_dot",
    "result_to_dot",
    "load_database",
    "save_database",
    # block-independent-disjoint extension
    "BIDRelation",
    "BIDDatabase",
    "bid_query_probability",
    # UCQs / conditionals / Monte-Carlo worlds
    "ucq_probability",
    "conjunction_probability",
    "conditional_probability",
    "mc_query_probability",
    "mc_answer_probabilities",
    # observability
    "Tracer",
    "span",
    "traced",
    "MetricsRegistry",
    "ExplainReport",
    "build_explain_report",
    # the sound [lower, upper] record of every approximate answer
    "Enclosure",
    # dissociation: extensional-speed enclosures and bounds-first top-k
    "DissociationResult",
    "DissociationEvaluator",
    "dissociation_bounds",
    "network_dissociation_bounds",
    "CertifiedAnswer",
    "TopKCertification",
    "certified_top_k",
    # resilience: budgets, degradation ladder, fault-tolerant pool
    "QueryBudget",
    "resilient_marginals",
    "exact_fractions",
    "FaultSpec",
    "FaultPlan",
    # errors
    "ReproError",
    "SchemaError",
    "ProbabilityError",
    "QuerySyntaxError",
    "QuerySemanticsError",
    "PlanError",
    "UnsafePlanError",
    "InferenceError",
    "CapacityError",
    "CircuitError",
    "BudgetExceededError",
    "DeadlineExceededError",
]
