"""ExplainReport: the paper's hardness diagnostics assembled per query."""

import json

import pytest

from repro.db import ProbabilisticDatabase
from repro.obs import build_explain_report
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.query.parser import parse_query


@pytest.fixture
def db():
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5, (2,): 0.7})
    db.add_relation(
        "S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5, (2, 1): 0.9}
    )
    return db


def test_report_matches_direct_evaluation(db):
    query = parse_query("q(x) :- R(x), S(x,y)")
    report, answers = build_explain_report(db, query)
    assert report.answers == len(answers) == 2
    # R(1)·(1-(1-0.5)(1-0.5)) and R(2)·0.9 — the textbook safe-plan values
    assert answers[(1,)] == pytest.approx(0.375)
    assert answers[(2,)] == pytest.approx(0.63)


def test_report_fields_reflect_the_run(db):
    query = parse_query("q(x) :- R(x), S(x,y)")
    report, _ = build_explain_report(db, query)
    assert report.engine == "columnar"
    assert report.query == str(query)
    assert "R" in report.plan and "S" in report.plan
    assert report.offending_total >= 1
    assert not report.data_safe
    assert sum(report.offending_by_source.values()) == report.offending_total
    assert report.component_count == sum(report.component_sizes.values())
    assert len(report.slices) == len([
        s for s in report.slices
        if s["engine"] in ("tree", "ve", "lineage-ve", "dpll")
    ])
    assert report.operators
    for op in report.operators:
        assert set(op) == {"operator", "output_size", "conditioned", "seconds"}
    assert report.eval_seconds >= 0 and report.inference_seconds >= 0
    # metrics snapshot embedded and coherent with the top-level fields
    assert report.metrics["counters"]["offending"] == report.offending_total
    assert report.metrics["gauges"]["network.nodes"] == report.network_nodes


def test_slice_engines_are_read_from_the_solve_spans():
    # the lineage of a hard head is past the network probe but narrow as a
    # clause set: the report shows the engine that ran, with its width —
    # with or without a tracer of the caller's
    from tests.conftest import rst_database

    hard = rst_database(8, 0.5, seed=2)
    query = parse_query("q(h) :- R1(h,x), S1(h,x,y), R2(h,y)")
    report, answers = build_explain_report(hard, query)
    (record,) = report.slices
    assert record["engine"] == "lineage-ve"
    assert record["width"] >= 2 and record["eliminated"] > 0
    assert record["dpll_calls"] == 0
    assert "lineage-ve" in report.format()
    with Tracer() as tracer:
        traced, same = build_explain_report(hard, query)
    assert traced.slices[0]["engine"] == "lineage-ve"
    assert same == answers
    (solve,) = tracer.roots[0].find("solve_slice")
    assert solve.attrs["width"] == record["width"]


def test_data_safe_query_has_no_offending(db):
    report, answers = build_explain_report(db, parse_query("q(x) :- R(x)"))
    assert report.data_safe
    assert report.offending_total == 0
    assert report.offending_by_source == {}
    assert answers[(1,)] == pytest.approx(0.5)


def test_as_dict_is_json_serialisable(db):
    report, _ = build_explain_report(db, parse_query("q(x) :- R(x), S(x,y)"))
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["query"] == report.query
    assert payload["component_sizes"]  # str-keyed histogram survived
    assert payload["metrics"]["counters"]


def test_format_renders_all_sections(db):
    report, _ = build_explain_report(db, parse_query("q(x) :- R(x), S(x,y)"))
    text = report.format()
    for fragment in (
        "query:", "offending tuples per relation", "per-operator timings",
        "network components", "per-component inference", "subformula cache",
    ):
        assert fragment in text, fragment


def test_registry_and_tracing_are_shared(db):
    registry = MetricsRegistry()
    with Tracer() as tracer:
        build_explain_report(
            db, parse_query("q(x) :- R(x), S(x,y)"), registry=registry
        )
    assert registry.counter("offending") >= 1
    assert [r.name for r in tracer.roots] == ["explain"]
    assert tracer.roots[0].find("explain_slice")


def test_explicit_join_order_is_recorded(db):
    report, _ = build_explain_report(
        db, parse_query("q(x) :- R(x), S(x,y)"), join_order=["S", "R"]
    )
    assert report.join_order == ["S", "R"]


@pytest.mark.parametrize("top_k", [None, 2])
def test_each_base_relation_is_encoded_once(top_k):
    # the evaluator, the plan annotations and the top-k bounds evaluator
    # share one encode cache
    from repro.workload import WorkloadParams, generate_database
    from repro.workload.queries import benchmark_query

    bench = benchmark_query("P1")
    db = generate_database(WorkloadParams(N=3, m=20, r_f=0.3, seed=0))
    with Tracer() as tracer:
        build_explain_report(
            db, bench.query, join_order=list(bench.join_order), top_k=top_k
        )
    encoded = [
        s.attrs["relation"]
        for root in tracer.roots for s in root.find("encode_base")
    ]
    assert sorted(encoded) == sorted(a.relation for a in bench.query.atoms)
