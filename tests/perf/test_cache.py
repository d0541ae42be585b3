"""Unit tests for the hash-consing / subformula-cache layer."""

import pytest

from repro.lineage.dnf import DNF, EventVar, EventVarInterner
from repro.lineage.exact import DPLLStats, dnf_probability
from repro.lineage.obdd import build_obdd
from repro.perf import CacheStats, SubformulaCache, canonical_key
from repro.resilience import QueryBudget

from tests.conftest import rst_lineage


def v(rel: str, *key: int) -> EventVar:
    return EventVar(rel, key)


class TestSubformulaCache:
    def test_get_put_and_counters(self):
        cache = SubformulaCache()
        assert cache.get("k") is None
        cache.put("k", 0.25)
        assert cache.get("k") == 0.25
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = SubformulaCache(max_entries=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        assert cache.get("a") == 1.0  # refresh "a"; "b" is now LRU
        cache.put("c", 3.0)
        assert cache.stats.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == 1.0
        assert cache.get("c") == 3.0
        assert len(cache) == 2

    def test_clear_drops_entries_keeps_counters(self):
        cache = SubformulaCache()
        cache.put("a", 1.0)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.stats == CacheStats(hits=1, misses=1)

    def test_stats_as_dict(self):
        stats = CacheStats(hits=3, misses=1, evictions=0)
        assert stats.as_dict() == {
            "hits": 3, "misses": 1, "evictions": 0, "hit_rate": 0.75,
        }


class TestCanonicalKey:
    def test_rename_invariance(self):
        interner = EventVarInterner()
        a = [interner.intern(v("R", i)) for i in range(3)]
        b = [interner.intern(v("S", i)) for i in range(3)]
        probs_by_id = {i: 0.1 * (i % 3 + 1) for i in a + b}
        key_a = canonical_key([(a[0], a[1]), (a[1], a[2])], probs_by_id)
        key_b = canonical_key([(b[1], b[2]), (b[0], b[1])], probs_by_id)
        assert key_a == key_b

    def test_different_probabilities_different_keys(self):
        probs = {0: 0.2, 1: 0.3, 2: 0.9}
        assert canonical_key([(0, 1)], probs) != canonical_key([(0, 2)], probs)

    def test_different_shape_different_keys(self):
        probs = {0: 0.2, 1: 0.2}
        assert canonical_key([(0,), (1,)], probs) != canonical_key([(0, 1)], probs)


class TestSharedDPLLCache:
    def test_isomorphic_formulas_hit_across_calls(self):
        f1 = DNF([{v("R", 1), v("R", 2)}, {v("R", 2), v("R", 3)}])
        f2 = DNF([{v("S", 7), v("S", 8)}, {v("S", 8), v("S", 9)}])
        probs = {}
        for i in (1, 2, 3):
            probs[v("R", i)] = 0.1 * i
        for i, j in zip((7, 8, 9), (1, 2, 3)):
            probs[v("S", i)] = 0.1 * j
        cache = SubformulaCache()
        p1 = dnf_probability(f1, probs, cache=cache)
        first_pass_hits = cache.stats.hits
        stats = DPLLStats()
        p2 = dnf_probability(f2, probs, stats=stats, cache=cache)
        assert p1 == pytest.approx(p2)
        # The isomorphic root formula is answered straight from the cache,
        # in front of both engines: nothing eliminated, nothing branched on.
        assert cache.stats.hits == first_pass_hits + 1
        assert (stats.engine, stats.memo_hits) == ("cache", 1)
        assert (stats.calls, stats.eliminated) == (0, 0)

    def test_root_lookup_fronts_the_dpll_engine_too(self):
        # over the width limit, so DPLL solves it; asked again (renamed),
        # the root lookup answers before a single call is made
        f, probs = rst_lineage(8, 0.5, seed=2)
        budget = QueryBudget(max_width=2)
        cache = SubformulaCache()
        cold = DPLLStats()
        p1 = dnf_probability(f, probs, stats=cold, cache=cache, budget=budget)
        assert cold.engine == "dpll" and cold.calls > 1
        renamed = {x: EventVar(x.relation + "2", x.row) for x in probs}
        f2 = DNF([frozenset(renamed[x] for x in c) for c in f.clauses])
        warm = DPLLStats()
        p2 = dnf_probability(
            f2, {renamed[x]: p for x, p in probs.items()},
            stats=warm, cache=cache, budget=budget,
        )
        assert p1 == p2
        assert (warm.engine, warm.calls, warm.memo_hits) == ("cache", 0, 1)

    def test_cached_matches_uncached(self):
        f = DNF([
            {v("R", 1), v("S", 1)},
            {v("R", 2), v("S", 1)},
            {v("R", 2), v("S", 2)},
        ])
        probs = {
            v("R", 1): 0.3, v("R", 2): 0.6,
            v("S", 1): 0.4, v("S", 2): 0.7,
        }
        plain = dnf_probability(f, probs)
        cache = SubformulaCache()
        assert dnf_probability(f, probs, cache=cache) == pytest.approx(plain)
        # Second evaluation is a pure cache hit.
        before = cache.stats.misses
        assert dnf_probability(f, probs, cache=cache) == pytest.approx(plain)
        assert cache.stats.misses == before

    def test_one_cache_shared_across_workload_queries(self):
        # full-lineage solves of P1 then P2 against one cache, each asked
        # twice: the repeats hit, and sharing never changes an answer
        from repro.bench.harness import (
            agreement,
            run_full_lineage,
            run_partial_lineage,
        )
        from repro.workload.generator import WorkloadParams, generate_database
        from repro.workload.queries import benchmark_query

        db = generate_database(
            WorkloadParams(N=2, m=20, fanout=4, r_f=0.01, seed=7)
        )
        cache = SubformulaCache()
        for name in ("P1", "P2"):
            bench = benchmark_query(name)
            cold = run_full_lineage(db, bench, cache=cache)
            warm = run_full_lineage(db, bench, cache=cache)
            assert agreement(cold, run_partial_lineage(db, bench))
            assert agreement(cold, warm, tolerance=0.0)
        assert cache.stats.hit_rate > 0.0


class TestOBDDCache:
    def test_rebuild_hits_cache_and_agrees(self):
        f = DNF([{v("R", 1), v("S", 1)}, {v("R", 2), v("S", 1)}])
        probs = {v("R", 1): 0.5, v("R", 2): 0.25, v("S", 1): 0.8}
        cache = SubformulaCache()
        first = build_obdd(f, cache=cache)
        assert cache.stats.misses == 1
        second = build_obdd(f, cache=cache)
        assert cache.stats.hits == 1
        assert second.nodes == first.nodes
        assert second.root == first.root
        assert second.probability(probs) == pytest.approx(
            dnf_probability(f, probs)
        )

    def test_obdd_cache_isolated_from_dpll_keys(self):
        f = DNF([{v("R", 1)}])
        probs = {v("R", 1): 0.5}
        cache = SubformulaCache()
        dnf_probability(f, probs, cache=cache)
        build_obdd(f, cache=cache)
        # The OBDD structure key must not collide with a DPLL scalar entry.
        assert build_obdd(f, cache=cache).probability(probs) == 0.5
