"""repro.resilience — deadlines, graceful degradation, fault tolerance.

The production-path answer to instance hardness: a :class:`QueryBudget`
threads wall-clock deadlines and resource caps through the evaluator and
every inference backend as cooperative checkpoints; the degradation
ladder (:mod:`~repro.resilience.ladder`) turns budget blow-ups on hard
components into sound ``[lower, upper]`` enclosures instead of failures;
the fault-tolerant pool (:mod:`~repro.resilience.pool`) survives worker
crashes, stuck workers, and poisoned results with bounded retry and
serial requeue; and :mod:`~repro.resilience.faults` injects all of those
failures deterministically for the chaos test suite.

Entry points: :meth:`repro.core.executor.EvaluationResult
.resilient_answer_probabilities` (per-answer
:class:`~repro.enclosure.Enclosure` records), :func:`resilient_marginals`
(node-level), and the CLI's ``repro query --deadline/--degrade``.

Submodules import lazily so the core engines can depend on
:mod:`repro.resilience.pool`/``budget`` without cycles.
"""

from __future__ import annotations

__all__ = [
    "QueryBudget",
    "UNLIMITED",
    "DegradationStep",
    "LADDER_RUNGS",
    "resilient_component_marginals",
    "resilient_marginals",
    "exact_fractions",
    "FaultSpec",
    "FaultPlan",
    "ChunkOutcome",
    "run_chunks",
]

_HOMES = {
    "QueryBudget": "repro.resilience.budget",
    "UNLIMITED": "repro.resilience.budget",
    "DegradationStep": "repro.resilience.ladder",
    "LADDER_RUNGS": "repro.resilience.ladder",
    "resilient_component_marginals": "repro.resilience.ladder",
    "resilient_marginals": "repro.resilience.execute",
    "exact_fractions": "repro.resilience.execute",
    "FaultSpec": "repro.resilience.faults",
    "FaultPlan": "repro.resilience.faults",
    "ChunkOutcome": "repro.resilience.pool",
    "run_chunks": "repro.resilience.pool",
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module 'repro.resilience' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(home), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
