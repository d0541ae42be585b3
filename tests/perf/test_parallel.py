"""Sliced / batched / process-parallel marginals vs the serial oracle."""

import random

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.inference import compute_marginals
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.db import ProbabilisticDatabase
from repro.errors import InferenceError
from repro.lineage.exact import ELIMINATION_WIDTH_LIMIT
from repro.perf import SubformulaCache
from repro.perf.parallel import (
    ComponentWork,
    _chunk_by_cost,
    estimate_component,
    group_by_component,
    parallel_marginals,
    solve_slice,
)
from repro.query.parser import parse_query
from repro.resilience import QueryBudget

from tests.conftest import WIDE_RST, rst_network
from tests.core.test_inference import random_network


def assert_matches_oracle(net, nodes, marginals, tol=1e-12):
    oracle = compute_marginals(net, nodes)
    for v in nodes:
        assert marginals[v] == pytest.approx(oracle[v], abs=tol), v


def multi_component_network(rng: random.Random, components: int):
    """Several independent random networks grown into one AndOrNetwork."""
    net = AndOrNetwork()
    roots = []
    for _ in range(components):
        nodes = [net.add_leaf(rng.uniform(0.05, 0.95)) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 4)):
            k = rng.randint(1, min(3, len(nodes)))
            parents = [
                (v, rng.choice([1.0, rng.uniform(0.1, 0.9)]))
                for v in rng.sample(nodes, k)
            ]
            nodes.append(net.add_gate(rng.choice([NodeKind.AND, NodeKind.OR]), parents))
        roots.append(nodes[-1])
    return net, roots


class TestSlicedMarginals:
    def test_random_multi_component_networks(self):
        rng = random.Random(21)
        for _ in range(30):
            net, roots = multi_component_network(rng, rng.randint(1, 5))
            targets = roots + [EPSILON]
            assert_matches_oracle(net, targets, parallel_marginals(net, targets))

    def test_random_entangled_networks(self):
        rng = random.Random(22)
        for _ in range(30):
            net = random_network(rng, rng.randint(2, 7), rng.randint(1, 7))
            targets = [v for v in net.nodes() if v != EPSILON]
            assert_matches_oracle(net, targets, parallel_marginals(net, targets))

    def test_single_giant_component(self):
        # one chain entangling every leaf: slicing must degrade gracefully
        # to a single-component solve and still agree with the oracle
        rng = random.Random(23)
        net = AndOrNetwork()
        leaves = [net.add_leaf(rng.uniform(0.2, 0.8)) for _ in range(8)]
        gate = net.add_gate(NodeKind.OR, [(l, 0.9) for l in leaves])
        top = net.add_gate(NodeKind.AND, [(gate, 1.0), (leaves[0], 1.0)])
        targets = [gate, top]
        assert len(group_by_component(net, targets)) == 1
        assert_matches_oracle(net, targets, parallel_marginals(net, targets))

    def test_all_singleton_components(self):
        net = AndOrNetwork()
        leaves = [net.add_leaf(0.1 * (i + 1)) for i in range(8)]
        works = group_by_component(net, leaves)
        assert len(works) == 8
        out = parallel_marginals(net, leaves)
        for i, l in enumerate(leaves):
            assert out[l] == pytest.approx(0.1 * (i + 1))

    def test_engines_agree(self):
        rng = random.Random(24)
        for _ in range(10):
            net, roots = multi_component_network(rng, 3)
            for engine in ("auto", "ve", "dpll"):
                assert_matches_oracle(
                    net, roots, parallel_marginals(net, roots, engine=engine)
                )

    def test_unknown_engine_rejected(self):
        net, roots = multi_component_network(random.Random(0), 1)
        with pytest.raises(ValueError, match="engine"):
            parallel_marginals(net, roots, engine="bogus")

    def test_query_evaluation_matches(self):
        db = ProbabilisticDatabase()
        rng = random.Random(2)
        db.add_relation(
            "R", ("A", "B"),
            {(i, j): rng.uniform(0.2, 0.9) for i in range(5) for j in range(3)},
        )
        db.add_relation(
            "S", ("B",), {(j,): rng.uniform(0.2, 0.9) for j in range(3)}
        )
        result = PartialLineageEvaluator(db).evaluate_query(
            parse_query("q(x) :- R(x,y), S(y)")
        )
        nodes = [l for _, l, _ in result.relation.items()]
        assert_matches_oracle(
            result.network, nodes, parallel_marginals(result.network, nodes)
        )


class TestParallelMarginals:
    def test_workers_match_oracle(self):
        rng = random.Random(31)
        net, roots = multi_component_network(rng, 6)
        for workers in (None, 1, 2):
            out = parallel_marginals(
                net, roots, workers=workers, min_parallel_cost=0.0
            )
            assert_matches_oracle(net, roots, out)

    def test_small_workload_stays_serial(self):
        # under the cost threshold no pool is created; results still exact
        net, roots = multi_component_network(random.Random(32), 4)
        out = parallel_marginals(net, roots, workers=8)
        assert_matches_oracle(net, roots, out)

    def test_single_component_stays_serial(self):
        net, roots = multi_component_network(random.Random(33), 1)
        out = parallel_marginals(
            net, roots, workers=4, min_parallel_cost=0.0
        )
        assert_matches_oracle(net, roots, out)

    def test_worker_cache_entries_merge_back(self):
        rng = random.Random(34)
        # entangled components keep the lineage path (and thus the root
        # lookups of the cache) busy
        net = AndOrNetwork()
        roots = []
        for _ in range(4):
            leaves = [net.add_leaf(rng.uniform(0.2, 0.8)) for _ in range(4)]
            a = net.add_gate(NodeKind.AND, [(leaves[0], 1.0), (leaves[1], 1.0)])
            b = net.add_gate(NodeKind.AND, [(leaves[0], 1.0), (leaves[2], 1.0)])
            roots.append(net.add_gate(NodeKind.OR, [(a, 1.0), (b, 1.0), (leaves[3], 0.5)]))
        cache = SubformulaCache()
        out = parallel_marginals(
            net, roots, workers=2, engine="dpll",
            cache=cache, min_parallel_cost=0.0,
        )
        assert_matches_oracle(net, roots, out)
        assert len(cache) > 0  # worker entries were folded back

    def test_worker_budget_error_propagates(self):
        # lineage over the elimination limit: DPLL runs, and its cap fires
        net, roots = rst_network(*WIDE_RST, components=2)
        with pytest.raises(InferenceError, match="DPLL exceeded the budget"):
            parallel_marginals(
                net, roots, workers=2, dpll_max_calls=20,
                min_parallel_cost=0.0,
            )

    def test_narrow_lineage_never_meets_the_call_cap(self):
        # eliminated, so there is no DPLL call for a cap of zero to refuse
        net, roots = multi_component_network(random.Random(35), 3)
        out = parallel_marginals(
            net, roots, workers=2, engine="dpll",
            dpll_max_calls=0, min_parallel_cost=0.0,
        )
        assert_matches_oracle(net, roots, out)


class TestMultiAnswerComponents:
    """Several answers in one narrow component: the lineage path answers
    them, in-process and through both fan-outs."""

    def test_entry_points_match_oracle(self):
        from repro.obs import Tracer
        from repro.resilience import resilient_marginals
        from repro.workload import WorkloadParams, generate_database

        db = generate_database(WorkloadParams(N=2, m=20, r_f=0.3, seed=1))
        result = PartialLineageEvaluator(db).evaluate_query(
            parse_query("q(x) :- R1(h,x), S1(h,x,y), R2(h,y)")
        )
        net, rows = result.network, list(result.relation.items())
        nodes = [l for _, l, _ in rows]
        works = group_by_component(net, nodes)
        assert len(works) >= 2
        assert any(w.narrow and len(w.targets) >= 2 for w in works)
        oracle = compute_marginals(net, nodes)
        with Tracer() as tracer:
            answers = result.answer_probabilities()
            sliced = parallel_marginals(
                net, nodes, workers=2, min_parallel_cost=0.0
            )
            outcomes = resilient_marginals(net, nodes, workers=2)
        for row, node, p in rows:
            assert answers[row] == pytest.approx(p * oracle[node], abs=1e-12)
            assert sliced[node] == pytest.approx(oracle[node], abs=1e-12)
            assert outcomes[node].method == "exact"
            assert outcomes[node].lower == pytest.approx(
                oracle[node], abs=1e-12
            )
        solves = [
            s for root in tracer.roots for s in root.find("solve_slice")
            if s.attrs["targets"] >= 2
        ]
        assert len(solves) >= 3  # one per entry point at least
        for s in solves:
            assert s.attrs["path"] in ("lineage-ve", "dpll", "cache")


class TestDpllCallsOnSpan:
    """``solve_slice`` reports the engine that answered, not a guess."""

    def triangle(self):
        net = AndOrNetwork()
        x, y, z = (net.add_leaf(p) for p in (0.3, 0.5, 0.7))
        a = net.add_gate(NodeKind.AND, [(x, 1.0), (y, 1.0)])
        b = net.add_gate(NodeKind.AND, [(y, 1.0), (z, 1.0)])
        c = net.add_gate(NodeKind.AND, [(z, 1.0), (x, 1.0)])
        return net, net.add_gate(NodeKind.OR, [(a, 1.0), (b, 1.0), (c, 1.0)])

    def span_of(self, net, root, raises=None, **kwargs):
        from repro.obs import Tracer

        with Tracer() as tracer:
            if raises is None:
                solve_slice(net, [root], "dpll", **kwargs)
            else:
                with pytest.raises(raises):
                    solve_slice(net, [root], "dpll", **kwargs)
        (span,) = [s for s in tracer.roots if s.name == "solve_slice"]
        return span

    def test_finished_solve(self):
        span = self.span_of(*self.triangle())
        assert (span.attrs["path"], span.attrs["width"]) == ("lineage-ve", 2)
        assert span.counters["eliminated"] == 3
        assert span.counters["dpll_calls"] == 0

    def test_finished_dpll_solve(self):
        span = self.span_of(*self.triangle(), budget=QueryBudget(max_width=1))
        assert span.attrs["path"] == "dpll"
        assert span.counters["dpll_calls"] > 2
        assert span.counters["eliminated"] == 0

    def test_capped_solve_shows_the_calls_it_made(self):
        # counted on the way out of the failed attempt, not lost with it
        (net, (root,)) = rst_network(*WIDE_RST)
        span = self.span_of(net, root, raises=InferenceError, dpll_max_calls=2)
        assert span.attrs["path"] == "dpll"
        assert span.attrs["width"] > ELIMINATION_WIDTH_LIMIT
        assert span.counters["dpll_calls"] == 3

    def test_auto_engines_annotate_what_ran(self):
        from repro.obs import Tracer

        net, roots = multi_component_network(random.Random(41), 1)
        with Tracer() as tracer:
            solve_slice(net, roots)
        (span,) = tracer.roots
        assert span.attrs["path"] in ("tree", "ve")


class TestScheduling:
    def test_estimate_component_narrow(self):
        net, roots = multi_component_network(random.Random(41), 1)
        narrow, cost = estimate_component(net)
        assert narrow
        assert cost > 0

    def test_estimate_component_wide(self):
        # every ternary-decomposed gate factor has three variables, so even
        # the min-degree vertex has two neighbours and a limit of 1 must
        # trip the early exit immediately
        net = AndOrNetwork()
        leaves = [net.add_leaf(0.5) for _ in range(5)]
        net.add_gate(NodeKind.AND, [(l, 1.0) for l in leaves])
        narrow, cost = estimate_component(net, limit=1)
        assert not narrow
        assert cost > 0

    def test_wide_verdict_still_solved_exactly(self):
        net, roots = multi_component_network(random.Random(42), 3)
        for work in group_by_component(net, roots):
            solved = solve_slice(
                work.slice.network, work.targets, narrow=False
            )
            oracle = compute_marginals(net, [work.slice.to_orig(t) for t in work.targets])
            for t in work.targets:
                assert solved[t] == pytest.approx(
                    oracle[work.slice.to_orig(t)], abs=1e-12
                )

    def test_chunks_are_cost_balanced(self):
        works = [
            ComponentWork(slice=None, targets=[], cost=c)
            for c in (100.0, 1.0, 1.0, 1.0, 99.0, 1.0)
        ]
        chunks = _chunk_by_cost(works, 2)
        loads = sorted(
            sum(works[i].cost for i in members) for members in chunks
        )
        assert loads == [101.0, 102.0]  # LPT separates the two heavy items

    def test_chunk_count_never_exceeds_requested(self):
        works = [
            ComponentWork(slice=None, targets=[], cost=1.0) for _ in range(3)
        ]
        assert len(_chunk_by_cost(works, 8)) == 3
