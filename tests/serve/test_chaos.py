"""Chaos soak: concurrent replay with injected faults — never wrong.

The acceptance test of the serving layer. A workload replays concurrently
against one server while a chaos plan runs alongside: worker crashes
through the resilient pool, slow requests that outlive their deadline,
oversized queries that blow the global node cap, and a burst that
overflows the bounded queue. Afterwards, every response must have been

* bit-identical to a serial oracle when served exact,
* a sound enclosure of the oracle when served degraded, or
* an explicit, machine-readable rejection

— with a valid flight log, a coherent SLO report, and a clean drain.
"""

import threading

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.plan import left_deep_plan
from repro.errors import AdmissionError
from repro.obs import telemetry
from repro.obs.slo import SERVE_SLO_TARGETS, evaluate_slos, registry_from_records
from repro.resilience import QueryBudget
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import AdmissionPolicy, Server, protocol
from repro.workload import WorkloadParams, generate_database
from repro.workload.queries import benchmark_query

TOLERANCE = 1e-9
STATEMENTS = ("P1", "P2")
KNOWN_REJECTIONS = {
    "rejected_overload", "rejected_deadline", "timeout", "budget_exceeded",
}


@pytest.fixture(scope="module")
def workload():
    db = generate_database(WorkloadParams(N=3, m=40, seed=11))
    oracles = {}
    for name in STATEMENTS:
        bench = benchmark_query(name)
        plan = left_deep_plan(bench.query, list(bench.join_order))
        result = PartialLineageEvaluator(db).evaluate(plan)
        oracles[name] = result.answer_probabilities()
    return db, oracles


def check(payload, oracle) -> str | None:
    """None when sound/correct; otherwise a description of the wrongness."""
    got = {tuple(a["row"]): a for a in payload["answers"]}
    if set(got) != set(oracle):
        return f"answer set mismatch: {set(got) ^ set(oracle)}"
    for row, truth in oracle.items():
        a = got[row]
        if payload["mode"] == "exact":
            if a["probability"] != truth:
                return f"exact answer not bit-identical at {row}"
        if not (a["lower"] - TOLERANCE <= truth <= a["upper"] + TOLERANCE):
            return (
                f"unsound enclosure at {row}: "
                f"[{a['lower']}, {a['upper']}] vs {truth}"
            )
    return None


def test_chaos_soak_never_wrong(workload):
    db, oracles = workload
    server = Server(
        db,
        policy=AdmissionPolicy(max_queue=8, workers=3),
        default_deadline=30.0,
        seed=11,
    )
    for name in STATEMENTS:
        bench = benchmark_query(name)
        server.prepare(name, bench.text, join_order=list(bench.join_order))

    crash_plan = FaultPlan((
        FaultSpec("crash", chunk=0),
        FaultSpec("nan", chunk=1),  # corrupted results: retried, never served
    ))
    wrongs: list[str] = []
    outcomes = {"ok": 0, "rejected": 0, "degraded": 0, "unexpected": 0}
    lock = threading.Lock()

    def fire(i: int) -> None:
        name = STATEMENTS[i % len(STATEMENTS)]
        kwargs = {"mode": "auto", "deadline": 30.0}
        flavor = i % 6
        if flavor == 1:  # worker crash + NaN corruption through the pool
            kwargs = {
                "mode": "degrade", "deadline": 30.0,
                "fault_plan": crash_plan, "pool_workers": 2,
            }
        elif flavor == 3:  # slow request: deadline expires mid-flight
            kwargs = {"mode": "auto", "deadline": 0.001}
        elif flavor == 5:  # dead on arrival: admission must refuse it
            kwargs = {"mode": "auto", "deadline": 0.0}
        try:
            payload = server.query(name, **kwargs)
        except Exception as exc:
            code = protocol.code_for_exception(exc)
            with lock:
                if code in KNOWN_REJECTIONS:
                    outcomes["rejected"] += 1
                else:
                    outcomes["unexpected"] += 1
                    wrongs.append(f"unexpected error {type(exc).__name__}: {exc}")
            return
        problem = check(payload, oracles[name])
        with lock:
            outcomes["ok"] += 1
            if payload["mode"] != "exact":
                outcomes["degraded"] += 1
            if problem is not None:
                wrongs.append(f"request {i} ({name}, {kwargs}): {problem}")

    with telemetry.flight_recorder(capacity=4096) as recorder:
        threads = [
            threading.Thread(target=lambda base=base: [
                fire(base * 12 + j) for j in range(12)
            ])
            for base in range(5)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        clean = server.drain(timeout=30.0)
        records = [r for r in recorder.records if r.get("kind") == "serve"]

    # Never wrong: every served answer exact-identical or soundly enclosing.
    assert wrongs == [], "\n".join(wrongs)
    assert outcomes["unexpected"] == 0
    assert outcomes["ok"] > 0
    # The chaos plan actually degraded and rejected something.
    assert outcomes["degraded"] > 0
    assert outcomes["rejected"] > 0
    # Clean drain, valid flight log, coherent SLO report.
    assert clean is True
    assert telemetry.validate_flight_records(records) == []
    assert len(records) == 60
    report = evaluate_slos(registry_from_records(records), SERVE_SLO_TARGETS)
    assert report.as_dict()["slos"]  # evaluated, not empty
    latency = registry_from_records(records).histogram(
        "serve.request.latency_ms"
    )
    assert latency.count == outcomes["ok"] + outcomes["rejected"]


def test_oversized_query_is_contained_not_wrong(workload):
    db, oracles = workload
    server = Server(
        db,
        budget_template=QueryBudget(max_network_nodes=0),
        default_deadline=30.0,
    )
    bench = benchmark_query("P2")
    server.prepare("P2", bench.text, join_order=list(bench.join_order))
    try:
        # Strict mode: the oversized query is an explicit budget error.
        with pytest.raises(Exception) as err:
            server.query("P2", mode="exact")
        assert protocol.code_for_exception(err.value) in KNOWN_REJECTIONS
        # Auto mode: same query degrades to sound extensional bounds.
        payload = server.query("P2", mode="auto")
        assert payload["mode"] == "bounds"
        assert check(payload, oracles["P2"]) is None
    finally:
        assert server.drain(timeout=10.0) is True


def test_burst_overflow_sheds_explicitly(workload):
    db, _ = workload
    server = Server(
        db,
        policy=AdmissionPolicy(max_queue=2, workers=1),
        default_deadline=30.0,
    )
    bench = benchmark_query("P1")
    server.prepare("P1", bench.text, join_order=list(bench.join_order))
    rejected = 0
    submitted = []
    try:
        for _ in range(12):
            try:
                submitted.append(server.submit_query("P1", deadline=30.0))
            except AdmissionError as exc:
                assert exc.code == "rejected_overload"
                rejected += 1
        assert rejected > 0  # the burst overflowed the bounded queue
        for req in submitted:  # everything admitted still completes
            assert req.future.result(timeout=30.0)["answers"]
    finally:
        assert server.drain(timeout=30.0) is True


def test_readers_racing_commits_never_see_a_torn_state():
    """Exact readers race a writer toggling one tuple between two committed
    states: every read bit-matches the oracle of exactly one of them."""
    params = WorkloadParams(N=2, m=40, seed=0)
    bench = benchmark_query("P1")
    plan = left_deep_plan(bench.query, list(bench.join_order))

    def oracle(database):
        return PartialLineageEvaluator(database).evaluate(
            plan
        ).answer_probabilities()

    db, db_b = generate_database(params), generate_database(params)
    row, p_a = next(iter(db["R1"].items()))
    p_b = p_a / 2
    db_b["R1"].set_probability(row, p_b)
    states = (oracle(db), oracle(db_b))
    assert states[0] != states[1]  # the toggle is visible in the answers

    server = Server(
        db, policy=AdmissionPolicy(max_queue=16, workers=3),
        default_deadline=30.0,
    )
    server.prepare("P1", bench.text, join_order=list(bench.join_order))
    torn: list[dict] = []

    def writer() -> None:
        for i in range(10):
            sid = server.begin()["session"]
            server.set_prob(sid, "R1", row, p_a if i % 2 else p_b)
            server.commit(sid)

    def reader() -> None:
        for _ in range(10):
            payload = server.query("P1", mode="exact", deadline=30.0)
            got = {
                tuple(a["row"]): a["probability"] for a in payload["answers"]
            }
            if got not in states:
                torn.append(got)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(3)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads)
        assert torn == []
    finally:
        assert server.drain(timeout=30.0) is True
