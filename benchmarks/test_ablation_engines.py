"""Ablation: the final-inference engines on one evaluation result.

The partial lineage is engine-agnostic ("on this we run any general purpose
probabilistic inference algorithm", Sec. 4.2). Measured here across the
safety spectrum: linear tree propagation (when the network is a tree,
including the in-database SQLite variant), plain variable elimination, and
the exact solver on the compiled partial-lineage DNF (clause elimination or
DPLL) — all agreeing exactly wherever they apply.
"""

from __future__ import annotations

import time

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.treeprop import is_tree_factorable
from repro.sqlbackend.inference import sqlite_tree_marginals
from repro.sqlbackend.storage import SQLiteStorage
from repro.workload.generator import WorkloadParams, generate_database
from repro.workload.queries import benchmark_query

from repro.bench.reporting import format_table
from benchmarks.conftest import bench_report


def run_engine(result, engine: str):
    start = time.perf_counter()
    answers = result.answer_probabilities(engine=engine)
    return answers, time.perf_counter() - start


def test_engine_ablation(benchmark):
    rows = []
    reference_result = None
    for r_f in (0.05, 0.3, 0.6):
        db = generate_database(
            WorkloadParams(N=2, m=50, fanout=3, r_f=r_f, r_d=1.0, seed=31)
        )
        bench = benchmark_query("P1")
        result = PartialLineageEvaluator(db).evaluate_query(
            bench.query, list(bench.join_order)
        )
        if reference_result is None:
            reference_result = result
        reference, _ = run_engine(result, "ve")
        engines = ["auto", "ve", "dpll"]
        tree_ok = is_tree_factorable(result.network)
        if tree_ok:
            engines.append("tree")
        for engine in engines:
            answers, seconds = run_engine(result, engine)
            for k in reference:
                assert answers[k] == pytest.approx(reference[k]), (engine, r_f)
            rows.append((r_f, engine, round(seconds, 4), len(result.network)))
        if tree_ok:
            store = SQLiteStorage()
            start = time.perf_counter()
            marginals = sqlite_tree_marginals(store, result.network)
            seconds = time.perf_counter() - start
            store.close()
            for row, l, p in result.relation.items():
                assert p * marginals[l] == pytest.approx(reference[row])
            rows.append((r_f, "tree (in SQLite)", round(seconds, 4),
                         len(result.network)))

    # A tree-factorable case: the Section 5.4 deterministic-S instance,
    # where hashing collapses the network to a tree — linear propagation
    # applies, in Python and inside SQLite.
    from repro.db import ProbabilisticDatabase
    from repro.query.parser import parse_query

    n = 24
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(i,): 0.5 for i in range(n)})
    db.add_relation(
        "S", ("A", "B"), {(i, j): 1.0 for i in range(n) for j in range(n)}
    )
    db.add_relation("T", ("B",), {(j,): 0.5 for j in range(n)})
    result = PartialLineageEvaluator(db).evaluate_query(
        parse_query("q() :- R(x), S(x,y), T(y)"), ["R", "S", "T"]
    )
    assert is_tree_factorable(result.network)
    reference, _ = run_engine(result, "ve")
    for engine in ("tree", "auto", "dpll"):
        answers, seconds = run_engine(result, engine)
        assert answers[()] == pytest.approx(reference[()])
        rows.append(("sec5.4", engine, round(seconds, 4), len(result.network)))
    store = SQLiteStorage()
    start = time.perf_counter()
    marginals = sqlite_tree_marginals(store, result.network)
    seconds = time.perf_counter() - start
    store.close()
    ((_, l, p),) = list(result.relation.items())
    assert p * marginals[l] == pytest.approx(reference[()])
    rows.append(("sec5.4", "tree (in SQLite)", round(seconds, 4),
                 len(result.network)))

    benchmark(lambda: run_engine(reference_result, "auto"))
    bench_report(
        "ablation_engines",
        format_table(
            ("r_f", "engine", "inference s", "net nodes"),
            rows,
            title=(
                "Ablation: final-inference engines on the same partial "
                "lineage (P1, N=2, m=50); all agree exactly"
            ),
        ),
    )
