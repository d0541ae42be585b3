"""Resilient final inference: the ladder, component-sliced and pool-backed.

:func:`resilient_marginals` is the degradation-aware counterpart of
:func:`repro.perf.parallel.parallel_marginals` and runs on the same
component fan-out: group-by-component slicing, LPT cost chunking and the
fault-tolerant :func:`~repro.resilience.pool.run_chunks` dispatcher (so
worker crashes, stuck workers, and poisoned results retry and finally
requeue to the serial path). Only the per-component solve differs: every
component walks the :mod:`~repro.resilience.ladder`, so hard components
return sound intervals instead of raising. One hard component never blanks
the other answers; one dead worker never blanks its chunk.

Determinism: each component's sampling rung seeds its own
``random.Random`` from ``(seed, original first target id)``, so the pool
and serial paths — and any retry — produce identical results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.core.network import AndOrNetwork
from repro.enclosure import Enclosure
from repro.perf.cache import SubformulaCache
from repro.perf.parallel import _fan_out
from repro.resilience.budget import QueryBudget
from repro.resilience.faults import FaultPlan
from repro.resilience.ladder import resilient_component_marginals

__all__ = ["exact_fractions", "resilient_marginals"]


def _component_rng(seed: int, rng_key: int) -> random.Random:
    return random.Random(f"{seed}/{rng_key}")


def exact_fractions(works) -> list[float]:
    """Per-component deadline slices for the ladder's exact rung.

    A uniform ``sub(0.5)`` gives the query's one expensive component the
    same slice as its trivial siblings — it starves while they waste.
    Instead each component's slice shrinks with its share of the total
    estimated cost: cheap components (tiny share) keep up to 90% of the
    remaining deadline, the dominant component leaves most of the deadline
    to its own fallback rungs. Deterministic, and 0.5 whenever there is
    nothing to compare against (single component, zero estimates).
    """
    total = sum(w.cost for w in works)
    if len(works) <= 1 or total <= 0.0:
        return [0.5] * len(works)
    fractions = []
    for w in works:
        share = w.cost / total
        fractions.append(min(0.9, max(0.1, 0.9 * (1.0 - share))))
    return fractions


@dataclass(frozen=True)
class _LadderSolver:
    """:func:`resilient_component_marginals` as a fan-out solver (see
    :func:`repro.perf.parallel._fan_out`)."""

    seed: int

    @staticmethod
    def tasks(works):
        return [
            (w.slice.network, w.targets, w.narrow,
             w.slice.to_orig(w.targets[0]), fraction, w.cost)
            for w, fraction in zip(works, exact_fractions(works))
        ]

    def __call__(self, task, cache, budget, registry):
        subnet, targets, narrow, rng_key, fraction, est_cost = task
        return resilient_component_marginals(
            subnet, targets, budget=budget, cache=cache,
            rng=_component_rng(self.seed, rng_key), registry=registry,
            narrow=narrow, exact_fraction=fraction, est_cost=est_cost,
        )

    @staticmethod
    def epsilon() -> Enclosure:
        return Enclosure(1.0, 1.0, "exact", True)

    @staticmethod
    def sound(outcome) -> bool:
        """Only an :class:`~repro.enclosure.Enclosure` merges (the
        NaN-poisoning chaos scenario: corruption must retry, not merge).
        One cannot hold NaN, so :meth:`poison` returns a bare NaN."""
        return isinstance(outcome, Enclosure)

    @staticmethod
    def poison(_outcome) -> float:
        return math.nan


def resilient_marginals(
    net: AndOrNetwork,
    nodes,
    *,
    budget: QueryBudget | None = None,
    workers: int | None = None,
    cache: SubformulaCache | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    chunks_per_worker: int = 4,
    fault_plan: FaultPlan | None = None,
    registry=None,
    seed: int = 0,
) -> dict[int, Enclosure]:
    """Sound marginal enclosures of *nodes*, degradation- and fault-tolerant.

    Serial (``workers`` unset or < 2, or a single component): every
    component ladder-solves in-process. Parallel: components are packed
    into cost-balanced chunks and dispatched through
    :func:`~repro.resilience.pool.run_chunks` with per-dispatch *timeout*,
    *max_retries* pool rounds, and serial requeue — so the call returns an
    outcome for **every** node no matter which workers die. *fault_plan*
    deterministically injects failures (chaos tests). The component width
    probe honours the budget's ``max_width``, exactly as
    :func:`~repro.resilience.ladder.resilient_component_marginals` does.

    Unlike the exact path there is no cost threshold: the caller asked for
    resilience explicitly, and tiny workloads are exactly the ones whose
    pool startup cost does not matter.
    """
    return _fan_out(
        "resilient_marginals", net, nodes, _LadderSolver(seed),
        workers=workers, min_parallel_cost=0.0,
        chunks_per_worker=chunks_per_worker, cache=cache,
        budget=(budget or QueryBudget()).start(), registry=registry,
        timeout=timeout, max_retries=max_retries, fault_plan=fault_plan,
    )
