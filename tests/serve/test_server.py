"""The in-process Server: modes, sessions, protocol dispatch, drain."""

import threading

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.optimizer import choose_join_order
from repro.core.plan import left_deep_plan
from repro.db import ProbabilisticDatabase
from repro.dissociation import DissociationEvaluator
from repro.errors import (
    AdmissionError,
    BudgetExceededError,
    TransactionError,
)
from repro.query.parser import parse_query
from repro.resilience import QueryBudget
from repro.serve import AdmissionPolicy, Server
from repro.workload import WorkloadParams, generate_database
from repro.workload.queries import benchmark_query

from tests.conftest import rst_database

QUERY = "q(a) :- R(a), S(a,b)"


@pytest.fixture
def db() -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5, (2,): 0.4, (3,): 1.0})
    db.add_relation(
        "S", ("A", "B"), {(1, 1): 0.5, (2, 1): 0.9, (3, 2): 0.25}
    )
    return db


@pytest.fixture
def server(db) -> Server:
    server = Server(db, default_deadline=30.0)
    server.prepare("q", QUERY)
    yield server
    server.drain(timeout=10.0)


def oracle(db, text=QUERY) -> dict:
    plan = left_deep_plan(parse_query(text), None)
    result = PartialLineageEvaluator(db).evaluate(plan)
    return result.answer_probabilities()


class TestQueryModes:
    def test_exact_matches_oracle_bit_for_bit(self, server, db):
        payload = server.query("q", mode="exact")
        got = {tuple(a["row"]): a["probability"] for a in payload["answers"]}
        assert got == oracle(db)
        assert payload["mode"] == "exact" and payload["exact"] is True

    def test_adhoc_text_query(self, server, db):
        payload = server.query(text=QUERY)
        got = {tuple(a["row"]): a["probability"] for a in payload["answers"]}
        assert got == oracle(db)
        assert payload["prepared"] == "<adhoc>"

    def test_degrade_encloses_oracle(self, server, db):
        payload = server.query("q", mode="degrade")
        truth = oracle(db)
        for a in payload["answers"]:
            assert a["lower"] - 1e-9 <= truth[tuple(a["row"])] <= a["upper"] + 1e-9

    def test_bounds_mode_is_sound(self, server, db):
        payload = server.query("q", mode="bounds")
        truth = oracle(db)
        assert payload["mode"] == "bounds"
        for a in payload["answers"]:
            assert a["lower"] - 1e-9 <= truth[tuple(a["row"])] <= a["upper"] + 1e-9

    def test_exact_mode_is_strict_about_budgets(self, db):
        server = Server(
            db, budget_template=QueryBudget(max_network_nodes=0),
            default_deadline=30.0,
        )
        server.prepare("q", QUERY)
        try:
            with pytest.raises(BudgetExceededError):
                server.query("q", mode="exact")
        finally:
            server.drain(timeout=10.0)

    def test_auto_degrades_instead_of_failing(self, db):
        # An oversized-query cap: auto mode must fall to sound bounds
        # rather than surface the pipeline's budget error.
        server = Server(
            db, budget_template=QueryBudget(max_network_nodes=0),
            default_deadline=30.0,
        )
        server.prepare("q", QUERY)
        try:
            payload = server.query("q", mode="auto")
            truth = oracle(db)
            assert payload["mode"] == "bounds"
            assert "note" in payload
            for a in payload["answers"]:
                assert (
                    a["lower"] - 1e-9
                    <= truth[tuple(a["row"])]
                    <= a["upper"] + 1e-9
                )
        finally:
            server.drain(timeout=10.0)

    def test_zero_deadline_is_rejected_at_admission(self, server):
        with pytest.raises(AdmissionError) as err:
            server.query("q", deadline=0.0)
        assert err.value.code == "rejected_deadline"

    def test_unknown_prepared_name(self, server):
        with pytest.raises(ValueError, match="unknown prepared"):
            server.query("nope")

    def test_unknown_mode(self, server):
        with pytest.raises(ValueError, match="unknown query mode"):
            server.query("q", mode="telepathy")

    def test_shed_level_forces_cheaper_modes(self, server, db):
        req = server.submit_query("q", mode="exact")
        req.shed = 2  # simulate admission under pressure
        payload = server._execute(req, server.prepared["q"], "exact")
        assert payload["mode"] == "bounds"

    def test_prepared_state_is_reused(self, server):
        server.query("q")
        server.query("q")
        stats = server.prepared["q"].describe()
        assert stats["requests"] == 2


#: The keys of every answer entry, whatever mode served it.
WIRE_KEYS = {"row", "probability", "lower", "upper", "method", "exact"}


def assert_wire_shape(answers) -> None:
    assert answers
    for a in answers:
        assert set(a) == WIRE_KEYS, a
        assert a["probability"] == (a["lower"] + a["upper"]) / 2
        assert not a["exact"] or a["lower"] == a["upper"]


class TestWireShape:
    @pytest.mark.parametrize("mode", ["exact", "degrade", "bounds"])
    def test_every_mode_answers_in_one_shape(self, server, mode):
        assert_wire_shape(server.query("q", mode=mode)["answers"])

    def test_degraded_enclosures_keep_the_shape(self):
        # No exact engine and no OBDD: the ladder must answer with
        # non-exact enclosures, in the same shape.
        server = Server(
            rst_database(6, 0.6, 0),
            budget_template=QueryBudget(
                max_width=0, dpll_max_calls=0, obdd_max_nodes=1
            ),
        )
        server.prepare("q", "q(h) :- R1(h,x), S1(h,x,y), R2(h,y)")
        try:
            answers = server.query("q", mode="degrade")["answers"]
            assert not any(a["exact"] for a in answers)
            assert_wire_shape(answers)
            assert_wire_shape(server.query("q", mode="bounds")["answers"])
        finally:
            server.drain(timeout=10.0)


class TestPreparedBounds:
    """``mode="bounds"`` reuses the statement's dissociation evaluator and
    shares its encode cache with the pL pipeline."""

    def test_requests_at_one_version_reuse_the_scan_cache(self, server):
        server.query("q", mode="bounds")
        cache = server.prepared["q"].scanner._cache
        first = dict(cache)
        assert sorted(first) == ["R", "S"]
        server.query("q", mode="bounds")
        assert all(cache[name] is entry for name, entry in first.items())

    def test_exact_and_bounds_requests_share_one_encoding(self, server):
        server.query("q", mode="exact")
        cache = server.prepared["q"].scanner._cache
        first = dict(cache)
        assert sorted(first) == ["R", "S"]
        server.query("q", mode="bounds")
        assert all(cache[name] is entry for name, entry in first.items())

    def test_bounds_do_not_wait_for_the_pl_pipeline(self, server, db):
        statement = server.prepared["q"]
        done = threading.Event()

        def bounds() -> None:
            statement.bounds(db.snapshot())
            done.set()

        with statement._lock:  # a pL pipeline in flight
            worker = threading.Thread(target=bounds, daemon=True)
            worker.start()
            assert done.wait(timeout=10.0)
        worker.join()

    def test_commit_between_requests_serves_the_new_snapshot(self, server, db):
        def served() -> dict:
            payload = server.query("q", mode="bounds")
            return {
                tuple(a["row"]): (a["lower"], a["upper"])
                for a in payload["answers"]
            }

        before = served()
        sid = server.begin()["session"]
        server.set_prob(sid, "R", (1,), 0.9)
        server.commit(sid)
        after = served()
        fresh = DissociationEvaluator(db.snapshot()).evaluate(
            server.prepared["q"].plan
        )
        assert after == {
            row: (e.lower, e.upper) for row, e in fresh.bounds.items()
        }
        assert after[(1,)] != before[(1,)]
        assert after[(1,)][1] == pytest.approx(0.45)


class TestSessions:
    def test_begin_commit_changes_answers(self, server, db):
        before = oracle(db)
        sid = server.begin()["session"]
        server.insert(sid, "R", (9,), 0.5)
        server.insert(sid, "S", (9, 1), 0.5)
        out = server.commit(sid)
        assert sorted(out["touched"]) == ["R", "S"]
        payload = server.query("q", mode="exact")
        got = {tuple(a["row"]): a["probability"] for a in payload["answers"]}
        assert got == oracle(db)
        assert got != before
        assert (9,) in got

    def test_rollback_changes_nothing(self, server, db):
        before = oracle(db)
        sid = server.begin()["session"]
        server.set_prob(sid, "R", (1,), 0.9)
        server.rollback(sid)
        payload = server.query("q", mode="exact")
        got = {tuple(a["row"]): a["probability"] for a in payload["answers"]}
        assert got == before

    def test_double_begin_is_txn_state_error(self, server):
        sid = server.begin()["session"]
        with pytest.raises(TransactionError):
            server.begin(sid)

    def test_ops_without_begin_fail(self, server):
        sid = server.open_session()["session"]
        with pytest.raises(TransactionError):
            server.insert(sid, "R", (9,), 0.5)
        with pytest.raises(TransactionError):
            server.commit(sid)

    def test_unknown_session(self, server):
        with pytest.raises(TransactionError):
            server.commit("s999")

    def test_close_session_rolls_back(self, server, db):
        sid = server.begin()["session"]
        server.insert(sid, "R", (9,), 0.5)
        server.close_session(sid)
        assert (9,) not in db["R"]

    def test_drain_rolls_back_abandoned_txns(self, db):
        server = Server(db, default_deadline=30.0)
        sid = server.begin()["session"]
        server.insert(sid, "R", (9,), 0.5)
        assert server.drain(timeout=10.0) is True
        assert (9,) not in db["R"]
        # Post-drain queries are refused.
        server.prepare("q", QUERY)
        with pytest.raises(AdmissionError) as err:
            server.query("q")
        assert err.value.code == "shutting_down"


class TestProtocolDispatch:
    def test_ping(self, server):
        resp = server.handle({"id": 7, "op": "ping"})
        assert resp["ok"] and resp["id"] == 7 and resp["pong"]

    def test_query_roundtrip(self, server, db):
        resp = server.handle({"id": 1, "op": "query", "prepared": "q"})
        assert resp["ok"]
        got = {tuple(a["row"]): a["probability"] for a in resp["answers"]}
        # Wire rows come back as tuples here because handle() is in-process;
        # probabilities must still be the oracle's.
        assert got == oracle(db)

    def test_unknown_op_is_bad_request(self, server):
        resp = server.handle({"id": 2, "op": "teleport"})
        assert not resp["ok"]
        assert resp["error"]["code"] == "bad_request"

    def test_missing_fields_are_bad_request(self, server):
        resp = server.handle({"id": 3, "op": "insert"})
        assert not resp["ok"]
        assert resp["error"]["code"] == "bad_request"

    def test_txn_errors_carry_their_code(self, server):
        resp = server.handle({"id": 4, "op": "commit", "session": "s404"})
        assert resp["error"]["code"] == "txn_state"

    def test_full_txn_flow_over_protocol(self, server, db):
        begin = server.handle({"id": 1, "op": "begin"})
        sid = begin["session"]
        ins = server.handle({
            "id": 2, "op": "insert", "session": sid,
            "relation": "R", "row": [9], "p": 0.5,
        })
        assert ins["ok"]
        commit = server.handle({"id": 3, "op": "commit", "session": sid})
        assert commit["ok"] and commit["touched"] == ["R"]
        assert (9,) in db["R"]

    def test_prepare_with_optimize_uses_the_chosen_order(self):
        db = generate_database(WorkloadParams(N=2, m=30, r_f=0.3))
        # P2's atoms listed so the written order conditions more than the best
        text = "q(h) :- S2(h,y,z), S1(h,x,y), R1(h,x), R2(h,z)"
        chosen = list(choose_join_order(parse_query(text), db).order)
        assert chosen != ["S2", "S1", "R1", "R2"]
        server = Server(db, default_deadline=30.0)
        try:
            resp = server.handle({
                "id": 1, "op": "prepare", "name": "opt", "query": text,
                "optimize": True,
            })
            assert resp["ok"] and resp["join_order"] == chosen
            server.prepare("plain", text)
            answers = {
                name: {
                    tuple(a["row"]): a["probability"]
                    for a in server.query(name, mode="exact")["answers"]
                }
                for name in ("opt", "plain")
            }
            assert answers["plain"]
            assert answers["opt"].keys() == answers["plain"].keys()
            for row, p in answers["plain"].items():
                assert answers["opt"][row] == pytest.approx(p, abs=1e-12)
        finally:
            server.drain(timeout=10.0)

    def test_shutdown_op_drains(self, server):
        resp = server.handle({"id": 9, "op": "shutdown", "timeout": 10.0})
        assert resp["ok"] and resp["drained"] is True
        assert server.closed


class TestStatsAndWorkload:
    def test_stats_shape(self, server):
        server.query("q")
        stats = server.stats()
        assert stats["scheduler"]["workers"] == AdmissionPolicy().workers
        assert "q" in stats["prepared"]
        assert stats["counters"]["serve.requests"] == 1

    def test_workload_scale(self):
        db = generate_database(WorkloadParams(N=4, m=30, seed=5))
        server = Server(db, default_deadline=30.0)
        try:
            bench = benchmark_query("P2")
            server.prepare(
                "p2", bench.text, join_order=list(bench.join_order)
            )
            payload = server.query("p2", mode="exact")
            plan = left_deep_plan(bench.query, list(bench.join_order))
            truth = (
                PartialLineageEvaluator(db).evaluate(plan)
                .answer_probabilities()
            )
            got = {
                tuple(a["row"]): a["probability"] for a in payload["answers"]
            }
            assert got == truth
        finally:
            server.drain(timeout=10.0)
