"""The graceful-degradation ladder: exact where possible, sound bounds beyond.

Instance hardness varies wildly across the answers of one query (the
paper's central observation): most components of the And-Or network are
extensionally cheap, a few offending-tuple-dense ones are #P-hard. Without
this module, one such component kills the whole query with a
:class:`~repro.errors.CapacityError` or blows the deadline. With it, every
answer independently walks a five-rung ladder and *always* comes back with
a sound enclosure of its probability:

1. **exact** — the normal component solve
   (:func:`repro.perf.parallel.solve_slice`: tree propagation / variable
   elimination / clause elimination or cached DPLL), under a fraction of
   the remaining deadline (adaptive: the caller sizes ``exact_fraction`` from
   its per-component cost estimates, and a hopeless estimate skips the
   rung outright);
2. **dissociation** — two linear-time extensional folds over the component
   (:func:`repro.dissociation.network.network_dissociation_bounds`): a
   sound enclosure that wins outright when its width is within the
   budget's tolerance, and otherwise rides down the ladder as a prior to
   intersect with;
3. **obdd** — compile the partial-lineage DNF into an OBDD
   (:func:`repro.lineage.obdd.build_obdd`) under the budget's node cap:
   still exact, and robust on formulas whose DPLL trace thrashes;
4. **bounds** — Olteanu-Huang-Koch truncated evaluation
   (:func:`repro.lineage.approx_bounds.approximate_probability`): a sound
   ``[lower, upper]`` interval whatever the expansion budget;
5. **sampling** — Karp-Luby on the DNF (or forward sampling on the
   network when the DNF itself was uncompilable) with a Hoeffding
   confidence interval.

Each attempt is recorded as a :class:`DegradationStep` (rung, outcome,
reason, seconds), so a degraded answer carries its full provenance; the
:class:`~repro.enclosure.Enclosure` it returns exposes ``(lower, upper)``,
the winning rung, and whether the value is exact. Every rung transition
emits :mod:`repro.obs` metrics and spans.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from time import perf_counter

from repro.core.network import EPSILON, AndOrNetwork
from repro.dissociation.network import network_dissociation_bounds
from repro.enclosure import Enclosure
from repro.errors import BudgetExceededError, CapacityError, InferenceError
from repro.lineage.approx_bounds import approximate_probability
from repro.obs.trace import span as _span
from repro.resilience.budget import QueryBudget

__all__ = [
    "DegradationStep",
    "resilient_component_marginals",
    "LADDER_RUNGS",
    "SAMPLING_DELTA",
]

#: The rungs, in fallback order.
LADDER_RUNGS = ("exact", "dissociation", "obdd", "bounds", "karp-luby", "forward")

#: Calibration for the rung-1 skip: if the component's estimated solve cost
#: (factor-table entries) exceeds what this throughput could process in the
#: remaining deadline, the exact attempt is hopeless and the ladder starts
#: at dissociation instead of burning its deadline slice.
EXACT_COST_PER_SECOND = 5e7

#: Confidence parameter for the sampling rung's Hoeffding interval: the
#: interval contains the true probability with probability ``1 - δ``.
SAMPLING_DELTA = 1e-6

#: Failures a rung may recover from; anything else is a real bug and raises.
_RECOVERABLE = (BudgetExceededError, CapacityError, InferenceError)


@dataclass(frozen=True)
class DegradationStep:
    """Provenance of one ladder attempt."""

    rung: str
    #: ``"ok"`` (this rung produced the result), ``"failed"``, or
    #: ``"skipped"`` (a prerequisite — e.g. the DNF — was unavailable).
    outcome: str
    reason: str
    seconds: float


def _step(steps, registry, rung, outcome, reason, started) -> None:
    steps.append(DegradationStep(rung, outcome, reason, perf_counter() - started))
    if registry is not None:
        registry.inc(f"resilience.rung.{rung}.{outcome}")


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def resilient_component_marginals(
    subnet: AndOrNetwork,
    targets,
    budget: QueryBudget | None = None,
    cache=None,
    rng: random.Random | None = None,
    registry=None,
    narrow: bool | None = None,
    exact_fraction: float = 0.5,
    est_cost: float | None = None,
) -> dict[int, Enclosure]:
    """Ladder solve of one component slice: never raises on hard instances.

    Tries the exact engines on the whole component first (one solve shared
    by all its targets, like the non-resilient path), under
    ``exact_fraction`` of the remaining deadline — callers that know the
    per-component cost estimates size this adaptively, so cheap components
    keep generous slices and the expensive one cannot starve its own
    fallbacks. When *est_cost* (factor-table entries) says the exact solve
    cannot finish inside the remaining deadline at all, rung 1 is skipped
    outright. On failure the whole component gets linear-time dissociation
    bounds; targets whose enclosure is still too wide degrade *per target*
    through OBDD, interval bounds, and sampling, intersecting with the
    dissociation prior. Only genuine bugs
    (non-:class:`~repro.errors.ReproError` exceptions) propagate.
    """
    from repro.perf.parallel import solve_slice

    budget = (budget or QueryBudget()).start()
    rng = rng or random.Random(0)
    out: dict[int, Enclosure] = {}
    with _span("ladder", nodes=len(subnet), targets=len(targets)) as sp:
        # Rung 1 — exact, on a slice of the remaining deadline.
        steps: list[DegradationStep] = []
        started = perf_counter()
        remaining = budget.remaining()
        if (
            est_cost is not None
            and remaining is not None
            and est_cost > EXACT_COST_PER_SECOND * max(remaining, 0.0)
        ):
            _step(
                steps, registry, "exact", "skipped",
                f"estimated cost {est_cost:.3g} entries exceeds deadline",
                started,
            )
            sp.annotate(exact="skipped")
        else:
            try:
                solved = solve_slice(
                    subnet,
                    list(targets),
                    "auto",
                    budget.dpll_max_calls,
                    cache,
                    narrow=narrow,
                    budget=budget.sub(exact_fraction),
                )
            except _RECOVERABLE as exc:
                _step(steps, registry, "exact", "failed", _reason(exc), started)
                sp.annotate(exact="failed")
            else:
                _step(steps, registry, "exact", "ok", "", started)
                shared = tuple(steps)
                for t in targets:
                    out[t] = Enclosure(
                        solved[t], solved[t], "exact", True, shared
                    )
                return out

        # Rung 2 — dissociation: two linear-time folds bound the whole
        # component at once; a within-tolerance enclosure wins outright,
        # a wider one rides along as a prior for the lower rungs.
        priors: dict[int, Enclosure] = {}
        started = perf_counter()
        dissoc = network_dissociation_bounds(
            subnet, [t for t in targets if t != EPSILON]
        )
        if dissoc is None:
            _step(
                steps, registry, "dissociation", "skipped",
                "conjunctive sharing", started,
            )
        else:
            priors = dissoc.bounds
            _step(
                steps, registry, "dissociation", "ok",
                "exact folds" if dissoc.exact
                else f"{dissoc.shared} shared nodes split",
                started,
            )
        degraded = 0
        for t in targets:
            if t == EPSILON:
                out[t] = Enclosure(1.0, 1.0, "exact", True, tuple(steps))
                continue
            prior = priors.get(t)
            if prior is not None:
                if registry is not None:
                    registry.observe(
                        "resilience.dissociation.width", prior.width
                    )
                if prior.width <= budget.approx_epsilon:
                    out[t] = replace(prior, steps=tuple(steps))
                    degraded += 1
                    continue
            out[t] = _degrade_target(
                subnet, t, budget, list(steps), rng, registry, prior=prior
            )
            degraded += 1
        sp.add("degraded", degraded)
        if registry is not None:
            registry.inc("resilience.degraded_targets", degraded)
    return out


def _degrade_target(
    subnet, target, budget, steps, rng, registry,
    prior: Enclosure | None = None,
) -> Enclosure:
    """Rungs 3-5 for one target whose exact and dissociation rungs failed.

    *prior* is the target's dissociation enclosure when one exists; every
    lower rung's interval intersects with it (both are sound, so the
    intersection is too).
    """
    dnf = probs = None
    started = perf_counter()
    try:
        from repro.core.compile import partial_lineage_dnf

        dnf, probs = partial_lineage_dnf(subnet, target)
    except _RECOVERABLE as exc:
        _step(steps, registry, "obdd", "skipped", _reason(exc), started)
        _step(steps, registry, "bounds", "skipped", "no DNF", started)
        return _sampling_rung(subnet, target, None, None, budget, steps, rng,
                              registry, prior=prior)

    # Rung 3 — OBDD: still exact, materialised Shannon expansion.
    started = perf_counter()
    try:
        from repro.lineage.obdd import build_obdd

        obdd = build_obdd(
            dnf, max_nodes=budget.obdd_max_nodes, budget=budget.sub(0.5)
        )
        p = obdd.probability(probs)
    except _RECOVERABLE as exc:
        _step(steps, registry, "obdd", "failed", _reason(exc), started)
    else:
        _step(steps, registry, "obdd", "ok", "", started)
        return Enclosure(p, p, "obdd", True, tuple(steps))

    # Rung 4 — sound interval bounds by truncated evaluation.
    started = perf_counter()
    try:
        iv = approximate_probability(
            dnf,
            probs,
            epsilon=budget.approx_epsilon,
            max_calls=budget.approx_max_calls,
            budget=budget,
        )
    except (_RECOVERABLE + (RecursionError,)) as exc:
        _step(steps, registry, "bounds", "failed", _reason(exc), started)
    else:
        _step(steps, registry, "bounds", "ok", "", started)
        iv = iv.intersect(prior)
        if iv.width <= budget.approx_epsilon:
            return replace(iv, steps=tuple(steps))
        # Interval too loose for the caller's tolerance: let sampling try
        # to do better, but keep this sound interval to intersect with.
        return _sampling_rung(
            subnet, target, dnf, probs, budget, steps, rng, registry,
            prior=iv,
        )
    return _sampling_rung(subnet, target, dnf, probs, budget, steps, rng,
                          registry, prior=prior)


def _sampling_rung(
    subnet, target, dnf, probs, budget, steps, rng, registry,
    prior: Enclosure | None = None,
) -> Enclosure:
    """Rung 5 — Monte-Carlo with a Hoeffding confidence interval.

    Karp-Luby on the DNF when it compiled (relative-error behaviour,
    better for small probabilities — the estimator is ``S · mean`` of a
    Bernoulli, so Hoeffding scales by the union weight ``S``); forward
    sampling on the sub-network otherwise. Never fails: the floor is a
    small sample count even with the deadline already blown, and the
    result is intersected with any sound *prior* interval from rung 2 or 4.
    """
    samples = max(64, budget.max_samples)
    half_log = math.log(2.0 / SAMPLING_DELTA) / 2.0
    started = perf_counter()
    if dnf is not None:
        from repro.lineage.sampling import karp_luby, union_weight

        scale = min(float(len(dnf)), union_weight(dnf, probs))
        est = karp_luby(dnf, probs, samples, rng)
        eps = scale * math.sqrt(half_log / samples)
        method = "karp-luby"
    else:
        from repro.core.approximate import forward_sample_marginal

        est = forward_sample_marginal(subnet, target, samples, rng)
        eps = math.sqrt(half_log / samples)
        method = "forward"
    _step(steps, registry, method, "ok", f"{samples} samples", started)
    # Both enclosures hold (the prior surely, ours with 1-δ), so their
    # intersection does too.
    return Enclosure.clamped(
        est - eps, est + eps, method, False, tuple(steps)
    ).intersect(prior)
