"""Sampling + DPLL-cache micro-benchmark; writes ``BENCH_mc_dpll.json``.

Measures the two perf levers of the vectorized evaluation layer on the
Figure 5 workload (Section 6.1 generator, ``r_f = 0.01, r_d = 1``):

* **Batched Monte-Carlo** — scalar vs vectorized ``naive_monte_carlo``,
  ``karp_luby`` (per-answer lineages) and ``mc_query_probability`` (whole
  query), with samples/sec and speedups, cross-checked against the exact
  DPLL answer.
* **Shared DPLL cache** — full-lineage evaluation of the multi-answer
  Table 1 queries through one :class:`~repro.perf.SubformulaCache`, cold
  and then again warm, reporting hit/miss/eviction counters (root- and
  component-level lookups: the warm pass is what hits) and agreement with
  partial-lineage evaluation.

Run ``PYTHONPATH=src python -m repro.bench.mc_dpll --help`` (or
``repro bench``); CI runs it at reduced sample counts and uploads the JSON
as an artifact, so the numbers form a trajectory across PRs.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.bench.harness import run_full_lineage, run_partial_lineage
from repro.bench.reporting import (
    acceptance_exit_code,
    bench_environment,
    write_bench_report,
)
from repro.lineage.dnf import answer_lineages
from repro.lineage.exact import dnf_probability
from repro.obs.metrics import MetricsRegistry
from repro.lineage.sampling import karp_luby, naive_monte_carlo
from repro.mc.engine import mc_query_probability
from repro.perf.cache import SubformulaCache
from repro.workload.generator import WorkloadParams, generate_database
from repro.workload.queries import TABLE1_QUERIES

#: Agreement tolerance between MC estimates and the exact answer at the
#: reference 50k samples; :func:`mc_tolerance` widens it as ``1/√samples``
#: for reduced smoke runs (Karp-Luby's error is relative to the clause-weight
#: total, which dominates the band).
MC_TOLERANCE = 0.05
_REFERENCE_SAMPLES = 50_000


def mc_tolerance(samples: int) -> float:
    """Absolute agreement band for *samples* Monte-Carlo draws."""
    return MC_TOLERANCE * (_REFERENCE_SAMPLES / samples) ** 0.5


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _estimator_comparison(
    estimator,
    dnfs: dict,
    probs: dict,
    exact: dict,
    samples: int,
    seed: int,
) -> dict:
    """Time one estimator both ways over every answer lineage."""
    scalar_s, scalar_est = _timed(lambda: {
        a: estimator(f, probs, samples, random.Random(seed), method="scalar")
        for a, f in dnfs.items()
    })
    vec_s, vec_est = _timed(lambda: {
        a: estimator(f, probs, samples, random.Random(seed), method="vectorized")
        for a, f in dnfs.items()
    })
    drawn = samples * len(dnfs)
    return {
        "samples": samples,
        "answers": len(dnfs),
        "scalar_seconds": scalar_s,
        "vectorized_seconds": vec_s,
        "speedup": scalar_s / vec_s if vec_s > 0 else 0.0,
        "scalar_samples_per_sec": drawn / scalar_s if scalar_s > 0 else 0.0,
        "vectorized_samples_per_sec": drawn / vec_s if vec_s > 0 else 0.0,
        "scalar_max_abs_error": max(
            abs(scalar_est[a] - exact[a]) for a in dnfs
        ),
        "vectorized_max_abs_error": max(
            abs(vec_est[a] - exact[a]) for a in dnfs
        ),
    }


def run_benchmark(
    *,
    samples: int = 50_000,
    n: int = 2,
    m: int = 60,
    seed: int = 7,
    mc_query: str = "P1",
    cache_queries: tuple[str, ...] = ("P1", "P2", "S2"),
    max_calls: int = 2_000_000,
) -> dict:
    """Run the full micro-benchmark and return the JSON payload."""
    params = WorkloadParams(N=n, m=m, fanout=4, r_f=0.01, r_d=1.0, seed=seed)
    db = generate_database(params)
    bench = TABLE1_QUERIES[mc_query]
    dnfs, probs = answer_lineages(bench.query, db)
    exact = {a: dnf_probability(f, probs) for a, f in dnfs.items()}

    sampling = {
        "karp_luby": _estimator_comparison(
            karp_luby, dnfs, probs, exact, samples, seed
        ),
        "naive_monte_carlo": _estimator_comparison(
            naive_monte_carlo, dnfs, probs, exact, samples, seed
        ),
    }

    # Whole-query MC: the Boolean view of the same Table 1 query.
    boolean_exact = 1.0
    for p_answer in exact.values():
        boolean_exact *= 1.0 - p_answer
    boolean_exact = 1.0 - boolean_exact  # per-answer lineages are disjoint in h
    scalar_s, scalar_est = _timed(lambda: mc_query_probability(
        bench.query, db, samples, random.Random(seed), method="scalar"
    ))
    vec_s, vec_est = _timed(lambda: mc_query_probability(
        bench.query, db, samples, random.Random(seed), method="vectorized"
    ))
    sampling["mc_query_probability"] = {
        "query": mc_query,
        "samples": samples,
        "scalar_seconds": scalar_s,
        "vectorized_seconds": vec_s,
        "speedup": scalar_s / vec_s if vec_s > 0 else 0.0,
        "scalar_samples_per_sec": samples / scalar_s if scalar_s > 0 else 0.0,
        "vectorized_samples_per_sec": samples / vec_s if vec_s > 0 else 0.0,
        "scalar_estimate": scalar_est,
        "vectorized_estimate": vec_est,
        "exact": boolean_exact,
        "scalar_abs_error": abs(scalar_est - boolean_exact),
        "vectorized_abs_error": abs(vec_est - boolean_exact),
    }

    # Shared DPLL cache over the multi-answer Table 1 queries.
    cache = SubformulaCache()
    per_query = {}
    for name in cache_queries:
        before_hits = cache.stats.hits
        before_misses = cache.stats.misses
        fl = run_full_lineage(db, TABLE1_QUERIES[name], max_calls, cache=cache)
        # The solver consults the shared cache for whole lineages and their
        # big independent components only, so the hits measured here are the
        # ones a repeated (or isomorphic) answer gets: solve each again.
        warm = run_full_lineage(db, TABLE1_QUERIES[name], max_calls, cache=cache)
        pl = run_partial_lineage(db, TABLE1_QUERIES[name], max_calls)
        agree = (
            not fl.timed_out
            and not pl.timed_out
            and set(fl.answers) == set(pl.answers)
            and all(
                abs(fl.answers[a] - pl.answers[a]) <= 1e-6 for a in fl.answers
            )
        )
        per_query[name] = {
            "answers": len(fl.answers),
            "seconds": fl.seconds,
            "dpll_calls": fl.dpll_calls,
            "eliminated": fl.eliminated,
            "warm_seconds": warm.seconds,
            "warm_dpll_calls": warm.dpll_calls,
            "cache_hits": cache.stats.hits - before_hits,
            "cache_misses": cache.stats.misses - before_misses,
            "agrees_with_partial_lineage": agree,
        }
    cache_section = {
        "queries": per_query,
        "totals": cache.stats.as_dict(),
        "entries": len(cache),
    }

    kl = sampling["karp_luby"]
    mcq = sampling["mc_query_probability"]
    tolerance = mc_tolerance(samples)
    acceptance = {
        "karp_luby_speedup_at_least_10x": kl["speedup"] >= 10.0,
        "mc_query_probability_speedup_at_least_10x": mcq["speedup"] >= 10.0,
        "dpll_cache_hit_rate_nonzero": cache.stats.hit_rate > 0.0,
        "tolerance": tolerance,
        "methods_agree_within_tolerance": (
            kl["vectorized_max_abs_error"] <= tolerance
            and kl["scalar_max_abs_error"] <= tolerance
            and mcq["vectorized_abs_error"] <= tolerance
            and mcq["scalar_abs_error"] <= tolerance
            and all(q["agrees_with_partial_lineage"] for q in per_query.values())
        ),
    }

    return {
        "benchmark": "mc_dpll",
        "workload": {
            "figure": "fig5",
            "N": n,
            "m": m,
            "fanout": 4,
            "r_f": 0.01,
            "r_d": 1.0,
            "seed": seed,
            "mc_query": mc_query,
            "cache_queries": list(cache_queries),
        },
        "environment": bench_environment(),
        "sampling": sampling,
        "dpll_cache": cache_section,
        "acceptance": acceptance,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.mc_dpll",
        description="Scalar-vs-vectorized sampling and shared-DPLL-cache "
                    "micro-benchmark on the Fig. 5 workload.",
    )
    parser.add_argument("--out", default="BENCH_mc_dpll.json",
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--samples", type=int, default=50_000,
                        help="Monte-Carlo samples per estimator "
                             "(default: %(default)s)")
    parser.add_argument("--n", type=int, default=2,
                        help="workload N, number of head values")
    parser.add_argument("--m", type=int, default=60,
                        help="workload m, per-head relation size")
    parser.add_argument("--seed", type=int, default=7,
                        help="generator + sampler seed; every estimator is "
                             "seeded from it, never from an unseeded RNG")
    parser.add_argument("--query", default="P1",
                        choices=sorted(TABLE1_QUERIES),
                        help="Table 1 query for the sampling comparison")
    args = parser.parse_args(argv)
    if args.samples <= 0:
        parser.error("--samples must be positive")

    payload = run_benchmark(
        samples=args.samples, n=args.n, m=args.m, seed=args.seed,
        mc_query=args.query,
    )
    registry = MetricsRegistry()
    for name, section in payload["sampling"].items():
        registry.absorb(f"sampling.{name}", section)
    registry.absorb("dpll_cache", payload["dpll_cache"]["totals"])
    path = write_bench_report(args.out, payload, registry)
    kl = payload["sampling"]["karp_luby"]
    mcq = payload["sampling"]["mc_query_probability"]
    totals = payload["dpll_cache"]["totals"]
    print(f"karp_luby:            {kl['speedup']:.1f}x "
          f"({kl['scalar_seconds']:.2f}s -> {kl['vectorized_seconds']:.3f}s, "
          f"{kl['vectorized_samples_per_sec']:.0f} samples/s)")
    print(f"mc_query_probability: {mcq['speedup']:.1f}x "
          f"({mcq['scalar_seconds']:.2f}s -> {mcq['vectorized_seconds']:.3f}s)")
    print(f"dpll cache:           {totals['hits']} hits / "
          f"{totals['misses']} misses (hit rate {totals['hit_rate']:.2%})")
    print(f"acceptance:           {payload['acceptance']}")
    print(f"wrote {path}")
    return acceptance_exit_code(payload["acceptance"])


if __name__ == "__main__":
    sys.exit(main())
