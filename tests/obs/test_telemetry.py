"""The per-query flight recorder: ring bound, JSONL sink, schema validator,
and the records the evaluator layers actually emit."""

import json

import pytest

from repro.obs.telemetry import (
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    budget_dict,
    cache_dict,
    current_recorder,
    flight_recorder,
    query_hash,
    read_flight_log,
    record,
    validate_flight_records,
)


def test_query_hash_is_stable_and_short():
    h = query_hash("q() :- R(x), S(x,y)")
    assert h == query_hash("q() :- R(x), S(x,y)")
    assert len(h) == 12 and int(h, 16) >= 0
    assert h != query_hash("q() :- R(x), T(x)")


def test_ring_is_bounded_but_seq_keeps_counting():
    rec = FlightRecorder(capacity=4)
    for i in range(10):
        rec.record("pool_chunk", chunk=i, attempts=1,
                   requeued_serial=False, events=[])
    assert rec.recorded == 10
    assert len(rec.records) == 4
    assert [r["chunk"] for r in rec.records] == [6, 7, 8, 9]
    assert [r["seq"] for r in rec.records] == [7, 8, 9, 10]


def test_query_kinds_get_full_telemetry_block_defaulted():
    rec = FlightRecorder()
    r = rec.record("query", engine="columnar", seconds=0.1, answers=2)
    for field in ("query_hash", "plan", "offending", "network_nodes",
                  "operators", "rungs", "degraded", "cache", "budget",
                  "workers", "error"):
        assert field in r
    assert r["v"] == FLIGHT_SCHEMA_VERSION
    assert r["engine"] == "columnar"
    assert validate_flight_records([r]) == []


def test_jsonl_sink_and_read_back(tmp_path):
    path = tmp_path / "flight.jsonl"
    with flight_recorder(path) as rec:
        record("query", engine="rows", seconds=0.25, answers=1)
        record("pool_chunk", chunk=0, attempts=2,
               requeued_serial=True, events=["attempt0:timeout"])
        assert current_recorder() is rec
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line) for line in lines)
    records = read_flight_log(path)
    assert validate_flight_records(records) == []
    assert validate_flight_records(str(path)) == []
    assert records[0]["engine"] == "rows"
    assert records[1]["requeued_serial"] is True


def test_flight_recorder_restores_previous_recorder():
    before = current_recorder()
    with flight_recorder():
        assert current_recorder() is not before
        with flight_recorder() as inner:
            assert current_recorder() is inner
    assert current_recorder() is before


def test_validator_rejects_bad_records():
    base = {"v": FLIGHT_SCHEMA_VERSION, "seq": 1, "ts": 0.0, "pid": 1}
    assert validate_flight_records([{"seq": 1}])[0].startswith(
        "record 0: missing stamped fields"
    )
    assert "unknown kind" in validate_flight_records(
        [dict(base, kind="nonsense")]
    )[0]
    assert any(
        "schema version" in e
        for e in validate_flight_records([dict(base, kind="query", v=99)])
    )
    # seq must strictly increase
    rec = FlightRecorder()
    a = rec.record("pool_chunk", chunk=0, attempts=1,
                   requeued_serial=False, events=[])
    b = dict(a)
    assert any("not increasing" in e
               for e in validate_flight_records([a, b]))
    # query-level records must carry the full block with the right types
    bad = dict(base, kind="query", seq=1)
    assert any("missing" in e for e in validate_flight_records([bad]))
    good = FlightRecorder().record("query")
    good["rungs"] = "exact"
    assert any("rungs" in e and "dict" in e
               for e in validate_flight_records([good]))


def test_validator_reads_recorder_directly():
    rec = FlightRecorder()
    rec.record("ladder", engine="columnar")
    assert validate_flight_records(rec) == []


def test_budget_and_cache_builders():
    assert budget_dict(None) == {}
    assert cache_dict(None) == {}
    from repro.resilience import QueryBudget

    block = budget_dict(QueryBudget(deadline_seconds=2.0, max_samples=10))
    assert block["deadline_seconds"] == 2.0
    assert block["max_samples"] == 10
    assert "remaining_seconds" in block

    from repro.perf.cache import CacheStats

    class FakeCache:
        stats = CacheStats(hits=3, misses=1)

    assert cache_dict(FakeCache())["hits"] == 3


def test_evaluator_emits_one_query_record_per_evaluation():
    from repro.core.executor import PartialLineageEvaluator
    from repro.query.parser import parse_query
    from tests.core.test_executor import sec42_database

    db = sec42_database()
    q = parse_query("q() :- R(x), S(x,y), T(y)")
    with flight_recorder() as rec:
        result = PartialLineageEvaluator(db).evaluate_query(
            q, ["R", "S", "T"]
        )
        result.answer_probabilities()
    assert rec.recorded == 1
    (r,) = rec.records
    assert r["kind"] == "query"
    assert r["engine"] == "columnar"
    assert r["answers"] == 1
    assert r["offending"] == result.offending_count
    assert r["network_nodes"] == len(result.network)
    assert r["rungs"] == {"exact": 1}
    assert r["engines"] == {}  # no tracer was recording
    assert len(r["operators"]) == len(result.stats)
    assert r["error"] is None
    assert validate_flight_records(rec) == []


def test_query_and_ladder_records_name_the_engines_that_ran_when_traced():
    from repro.core.executor import PartialLineageEvaluator
    from repro.obs import Tracer
    from repro.query.parser import parse_query
    from tests.conftest import rst_database

    db = rst_database(8, 0.5, seed=2)
    q = parse_query("q(h) :- R1(h,x), S1(h,x,y), R2(h,y)")
    with flight_recorder() as rec, Tracer():
        result = PartialLineageEvaluator(db).evaluate_query(q)
        result.answer_probabilities()
        result.resilient_answer_probabilities()
    query, ladder = rec.records
    assert (query["kind"], ladder["kind"]) == ("query", "ladder")
    assert query["engines"] == ladder["engines"] == {"lineage-ve": 1}
    assert validate_flight_records(rec) == []


def test_evaluator_records_errors_before_reraising():
    from repro.core.executor import PartialLineageEvaluator
    from repro.errors import BudgetExceededError
    from repro.query.parser import parse_query
    from repro.resilience import QueryBudget
    from tests.core.test_executor import sec42_database

    db = sec42_database()
    q = parse_query("q() :- R(x), S(x,y), T(y)")
    with flight_recorder() as rec:
        result = PartialLineageEvaluator(db).evaluate_query(
            q, ["R", "S", "T"]
        )
        with pytest.raises(BudgetExceededError):
            result.answer_probabilities(
                budget=QueryBudget(deadline_seconds=-1.0)
            )
    (r,) = rec.records
    assert r["kind"] == "query"
    assert r["error"] and "ExceededError" in r["error"]
    assert r["budget"]["deadline_seconds"] == -1.0
    assert validate_flight_records(rec) == []


def test_ladder_emits_ladder_record_with_rungs():
    from repro.core.executor import PartialLineageEvaluator
    from repro.query.parser import parse_query
    from tests.core.test_executor import sec42_database

    db = sec42_database()
    q = parse_query("q() :- R(x), S(x,y), T(y)")
    with flight_recorder() as rec:
        result = PartialLineageEvaluator(db).evaluate_query(
            q, ["R", "S", "T"]
        )
        answers = result.resilient_answer_probabilities()
    ladder = [r for r in rec.records if r["kind"] == "ladder"]
    assert len(ladder) == 1
    assert sum(ladder[0]["rungs"].values()) == len(answers)
    assert ladder[0]["degraded"] == sum(
        1 for a in answers.values() if a.degraded
    )
    assert validate_flight_records(rec) == []
