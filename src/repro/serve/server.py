"""The in-process query service: prepared statements, scheduling, sessions.

:class:`Server` ties the serving layers together behind two surfaces: a
direct Python API (``prepare`` / ``query`` / ``begin`` / ``commit`` / …,
used by tests and ``benchmarks/e2e``) and the protocol dispatcher
:meth:`Server.handle` the socket daemon (:mod:`repro.serve.daemon`) feeds
decoded request objects.

Request lifecycle for a query::

    admission (Scheduler.submit: deadline + queue bound, shed stamp)
      -> worker thread: snapshot capture (consistent relations + version)
      -> prepared-statement pipeline (warm plan/base-encode caches)
      -> final inference by effective mode:
           exact  — answer_probabilities under the full budget
           ladder — resilient_answer_probabilities (sound enclosures,
                    worker-crash recovery, deterministic seeding)
           bounds — DissociationEvaluator at extensional speed
      -> response payload; one ``serve`` flight record per request

The *effective mode* is the requested mode overridden by the admission
shed level (1 forces the ladder, 2 forces bounds). Mode ``auto`` is
exact-first: on a blown budget it degrades to the ladder over the
already-built network (or to bounds when the operator pipeline itself blew
the cap) instead of failing — degraded, never wrong. Mode ``exact`` is
strict: a blown budget is an explicit ``budget_exceeded``/``timeout``
error.

Mutations go through sessions (:mod:`repro.serve.session`) and the
database's buffered transactions: queries in flight keep their snapshot,
caches flush only on commit, rollbacks are free.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.db import ProbabilisticDatabase
from repro.dissociation import DissociationEvaluator
from repro.errors import (
    AdmissionError,
    BudgetExceededError,
    ReproError,
)
from repro.obs import telemetry
from repro.obs.metrics import MetricsRegistry
from repro.resilience import QueryBudget
from repro.serve import protocol
from repro.serve.prepared import PreparedQuery
from repro.serve.scheduler import AdmissionPolicy, Scheduler
from repro.serve.session import SessionManager

__all__ = ["Server"]


class Server:
    """A long-lived query service over one probabilistic database.

    Parameters
    ----------
    db:
        The root :class:`~repro.db.ProbabilisticDatabase` (mutations go
        through sessions; direct mutation while serving forfeits snapshot
        isolation but never correctness of already-captured snapshots).
    policy:
        The scheduler's :class:`~repro.serve.scheduler.AdmissionPolicy`.
    default_deadline:
        Deadline (seconds) applied to requests that bring none; ``None``
        leaves them unbudgeted (and thus unreapable).
    budget_template:
        A :class:`~repro.resilience.QueryBudget` whose non-deadline caps
        (``max_network_nodes``, ``max_samples``, …) apply to every request
        — the global guard against oversized queries.
    pool_workers:
        Process-pool size for the resilient ladder's component fan-out
        (``None`` keeps inference in the worker thread).
    seed:
        Base seed for the sampling rung; each request solves with a
        deterministic seed so retries and replays agree bit-for-bit.
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        *,
        policy: AdmissionPolicy | None = None,
        registry: MetricsRegistry | None = None,
        default_deadline: float | None = None,
        budget_template: QueryBudget | None = None,
        pool_workers: int | None = None,
        seed: int = 0,
    ) -> None:
        self.db = db
        self.registry = registry if registry is not None else MetricsRegistry()
        self.policy = policy or AdmissionPolicy()
        self.scheduler = Scheduler(self.policy, self.registry)
        self.sessions = SessionManager()
        self.prepared: dict[str, PreparedQuery] = {}
        self.default_deadline = default_deadline
        self.budget_template = budget_template
        self.pool_workers = pool_workers
        self.seed = seed
        self.started_at = time.time()
        self._closed = False

    # ----------------------------------------------------------- statements
    def prepare(
        self,
        name: str,
        text: str,
        *,
        join_order: list[str] | None = None,
        optimize: bool = False,
    ) -> dict:
        """Register (or replace) a prepared statement; returns its summary."""
        statement = PreparedQuery(
            name, text, self.db,
            join_order=join_order, optimize=optimize,
        )
        self.prepared[name] = statement
        self.registry.inc("serve.prepared")
        return statement.describe()

    def _statement(self, prepared: str | None, text: str | None) -> PreparedQuery:
        if prepared is not None:
            try:
                return self.prepared[prepared]
            except KeyError:
                raise ValueError(
                    f"unknown prepared query {prepared!r}; "
                    f"known: {sorted(self.prepared)}"
                ) from None
        if text is None:
            raise ValueError("query request needs 'prepared' or 'query'")
        # Ad-hoc text: full prepare cost, no registration, no warm reuse.
        return PreparedQuery("<adhoc>", text, self.db)

    # -------------------------------------------------------------- queries
    def _request_budget(self, deadline: float | None) -> QueryBudget | None:
        if deadline is None:
            deadline = self.default_deadline
        if deadline is None and self.budget_template is None:
            return None
        template = self.budget_template or QueryBudget()
        return replace(template, deadline_seconds=deadline, started_at=None)

    def submit_query(
        self,
        prepared: str | None = None,
        *,
        text: str | None = None,
        deadline: float | None = None,
        mode: str = "auto",
        fault_plan=None,
        chunk_timeout: float | None = None,
        pool_workers: int | None = None,
    ):
        """Admit a query; returns the scheduled request (``.future`` pends).

        *mode* is ``auto`` (exact-first, degrade on blown budget),
        ``exact`` (strict), ``degrade`` (always the ladder), or ``bounds``
        (dissociation only). *fault_plan* / *chunk_timeout* /
        *pool_workers* reach the resilient pool — the chaos-test and bench
        knobs.
        """
        if mode not in ("auto", "exact", "degrade", "bounds"):
            raise ValueError(f"unknown query mode {mode!r}")
        statement = self._statement(prepared, text)
        budget = self._request_budget(deadline)
        workers = pool_workers if pool_workers is not None else self.pool_workers

        def work(request):
            return self._execute(
                request, statement, mode,
                fault_plan=fault_plan, chunk_timeout=chunk_timeout,
                pool_workers=workers,
            )

        return self.scheduler.submit(
            work, budget=budget, label=statement.name
        )

    def query(self, prepared: str | None = None, **kwargs) -> dict:
        """Synchronous query: admit, wait, return the response payload.

        Raises the scheduling/evaluation error on failure; every call —
        served, rejected, reaped, failed — leaves one ``serve`` flight
        record behind.
        """
        t0 = time.perf_counter()
        status, shed, depth = "ok", 0, self.scheduler.stats()["queued"]
        label = prepared or "<adhoc>"
        try:
            request = self.submit_query(prepared, **kwargs)
            shed, depth = request.shed, request.queue_depth
            payload = request.future.result()
            return payload
        except BaseException as exc:
            status = protocol.code_for_exception(exc)
            raise
        finally:
            telemetry.record(
                "serve", op="query", status=status,
                code="" if status == "ok" else status,
                queue_depth=depth, shed=shed,
                seconds=time.perf_counter() - t0,
                prepared=label,
                error=None if status == "ok" else status,
            )
            self.registry.inc("serve.requests")

    def _snapshot(self):
        snap = self.db.snapshot()
        return snap, snap.version

    def _execute(
        self, request, statement: PreparedQuery, mode: str,
        *, fault_plan=None, chunk_timeout=None, pool_workers=None,
    ) -> dict:
        t0 = time.perf_counter()
        snapshot, version = self._snapshot()
        shed = request.shed
        effective = mode
        if shed >= 2:
            effective = "bounds"
        elif shed == 1 and effective in ("auto", "exact"):
            effective = "degrade"
        budget = request.budget
        note = None

        if effective == "bounds":
            payload = self._bounds_payload(statement, snapshot)
        elif effective == "degrade":
            try:
                # The ladder turns a blown deadline into sound bounds, so
                # only non-deadline caps guard the operator pipeline here.
                pipeline_budget = (
                    replace(budget, deadline_seconds=None, started_at=None)
                    if budget is not None else None
                )
                result = statement.evaluate(snapshot, pipeline_budget)
                payload = self._ladder_payload(
                    result, statement, budget,
                    fault_plan=fault_plan, chunk_timeout=chunk_timeout,
                    pool_workers=pool_workers,
                )
            except BudgetExceededError:
                # Oversized even for the pipeline: the extensional-speed
                # rung still produces a sound enclosure.
                payload = self._bounds_payload(statement, snapshot)
                note = "pipeline budget exceeded; dissociation bounds served"
        elif effective == "exact":
            result = statement.evaluate(snapshot, budget)
            payload = self._exact_payload(result, statement, budget)
        else:  # auto: exact-first, degrade instead of failing
            result = None
            try:
                result = statement.evaluate(snapshot, budget)
                payload = self._exact_payload(result, statement, budget)
            except BudgetExceededError:
                if result is None:
                    payload = self._bounds_payload(statement, snapshot)
                    note = ("pipeline budget exceeded; "
                            "dissociation bounds served")
                else:
                    payload = self._ladder_payload(
                        result, statement, budget,
                        fault_plan=fault_plan, chunk_timeout=chunk_timeout,
                        pool_workers=pool_workers,
                    )
                    note = "exact budget exceeded; ladder enclosures served"

        payload.update(
            requested_mode=mode, shed=shed, version=version,
            seconds=time.perf_counter() - t0, prepared=statement.name,
        )
        if note:
            payload["note"] = note
            self.registry.inc("serve.query.degraded_fallback")
        self.registry.inc(f"serve.query.mode.{payload['mode']}")
        return payload

    def _exact_payload(self, result, statement, budget) -> dict:
        probs = result.answer_probabilities(
            engine="auto", cache=statement.infer_cache, budget=budget,
        )
        return {
            "answers": protocol.answers_payload(probs),
            "mode": "exact", "exact": True, "degraded": 0,
        }

    def _ladder_payload(
        self, result, statement, budget,
        *, fault_plan=None, chunk_timeout=None, pool_workers=None,
    ) -> dict:
        answers = result.resilient_answer_probabilities(
            budget,
            workers=pool_workers,
            cache=statement.infer_cache,
            timeout=chunk_timeout,
            fault_plan=fault_plan,
            registry=self.registry,
            seed=self.seed,
        )
        degraded = sum(1 for a in answers.values() if a.degraded)
        return {
            "answers": protocol.answers_payload(answers),
            "mode": "ladder",
            "exact": degraded == 0,
            "degraded": degraded,
        }

    def _bounds_payload(self, statement, snapshot) -> dict:
        bounds = DissociationEvaluator(snapshot).evaluate(statement.plan)
        inexact = sum(1 for b in bounds.bounds.values() if b.width > 0.0)
        return {
            "answers": protocol.answers_payload(bounds.bounds),
            "mode": "bounds",
            "exact": inexact == 0,
            "degraded": inexact,
        }

    # ------------------------------------------------------------- sessions
    def open_session(self) -> dict:
        session = self.sessions.open()
        self.registry.inc("serve.sessions.opened")
        return {"session": session.id}

    def close_session(self, session_id: str) -> dict:
        self.sessions.close(session_id)
        return {"session": session_id, "closed": True}

    def begin(self, session_id: str | None = None) -> dict:
        """Open a transaction (auto-opening a session when none given)."""
        if session_id is None:
            session = self.sessions.open()
            self.registry.inc("serve.sessions.opened")
        else:
            session = self.sessions.get(session_id)
        if session.txn is not None and session.txn.active:
            from repro.errors import TransactionError

            raise TransactionError(
                f"session {session.id} already has an open transaction"
            )
        session.txn = self.db.begin()
        self.registry.inc("serve.txn.begun")
        return {"session": session.id, "version": self.db.version}

    def insert(self, session_id: str, relation: str, row, probability) -> dict:
        txn = self.sessions.get(session_id).require_txn()
        txn.insert(relation, protocol.row_from_wire(row), float(probability))
        return {"session": session_id, "buffered": txn.operations}

    def set_prob(self, session_id: str, relation: str, row, probability) -> dict:
        txn = self.sessions.get(session_id).require_txn()
        txn.set_probability(
            relation, protocol.row_from_wire(row), float(probability)
        )
        return {"session": session_id, "buffered": txn.operations}

    def delete(self, session_id: str, relation: str, row) -> dict:
        txn = self.sessions.get(session_id).require_txn()
        txn.delete(relation, protocol.row_from_wire(row))
        return {"session": session_id, "buffered": txn.operations}

    def commit(self, session_id: str) -> dict:
        session = self.sessions.get(session_id)
        txn = session.require_txn()
        touched = txn.commit()
        self.registry.inc("serve.txn.committed")
        return {
            "session": session_id, "touched": touched,
            "version": self.db.version, "ops": txn.operations,
        }

    def rollback(self, session_id: str) -> dict:
        session = self.sessions.get(session_id)
        txn = session.require_txn()
        ops = txn.operations
        txn.rollback()
        self.registry.inc("serve.txn.rolled_back")
        return {"session": session_id, "discarded": ops}

    # ----------------------------------------------------------- operations
    def stats(self) -> dict:
        return {
            "uptime_seconds": time.time() - self.started_at,
            "version": self.db.version,
            "scheduler": self.scheduler.stats(),
            "sessions": self.sessions.as_dicts(),
            "prepared": {
                name: p.describe() for name, p in sorted(self.prepared.items())
            },
            "counters": self.registry.snapshot()["counters"],
        }

    def drain(self, timeout: float | None = 30.0) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight requests,
        roll back abandoned transactions. Idempotent."""
        clean = self.scheduler.drain(timeout=timeout)
        self.sessions.close_all()
        self._closed = True
        self.registry.gauge("serve.drained_clean", clean)
        return clean

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------- protocol
    def handle(self, msg: dict) -> dict:
        """Dispatch one decoded protocol request; always returns a response
        object (per-request error isolation lives here)."""
        rid = msg.get("id")
        op = msg.get("op")
        t0 = time.perf_counter()
        status = "ok"
        try:
            if op not in protocol.OPS:
                raise ValueError(f"unknown op {op!r}")
            payload = self._dispatch(op, msg)
            return protocol.ok_response(rid, **payload)
        except (ReproError, ValueError, TypeError, KeyError) as exc:
            if isinstance(exc, (ValueError, TypeError, KeyError)):
                status = "bad_request"
            else:
                status = protocol.code_for_exception(exc)
            return protocol.error_response(rid, status, str(exc))
        except Exception as exc:  # contained: one bad request, not the daemon
            status = "internal"
            return protocol.error_response(
                rid, "internal", f"{type(exc).__name__}: {exc}"
            )
        finally:
            if op != "query":  # query() records its own serve record
                telemetry.record(
                    "serve", op=str(op), status=status,
                    code="" if status == "ok" else status,
                    queue_depth=self.scheduler.stats()["queued"],
                    shed=0, seconds=time.perf_counter() - t0,
                    session=str(msg.get("session", "")),
                    error=None if status == "ok" else status,
                )

    def _dispatch(self, op: str, msg: dict) -> dict:
        if op == "ping":
            return {
                "pong": True,
                "protocol": protocol.PROTOCOL_VERSION,
                "version": self.db.version,
            }
        if op == "prepare":
            return self.prepare(
                msg["name"], msg["query"],
                join_order=msg.get("join_order"),
                optimize=bool(msg.get("optimize", False)),
            )
        if op == "query":
            return self.query(
                msg.get("prepared"),
                text=msg.get("query"),
                deadline=msg.get("deadline"),
                mode=msg.get("mode", "auto"),
            )
        if op == "open_session":
            return self.open_session()
        if op == "close_session":
            return self.close_session(msg["session"])
        if op == "begin":
            return self.begin(msg.get("session"))
        if op == "insert":
            return self.insert(
                msg["session"], msg["relation"], msg["row"], msg["p"]
            )
        if op == "set_prob":
            return self.set_prob(
                msg["session"], msg["relation"], msg["row"], msg["p"]
            )
        if op == "delete":
            return self.delete(msg["session"], msg["relation"], msg["row"])
        if op == "commit":
            return self.commit(msg["session"])
        if op == "rollback":
            return self.rollback(msg["session"])
        if op == "stats":
            return self.stats()
        if op == "shutdown":
            clean = self.drain(timeout=msg.get("timeout", 30.0))
            return {"drained": clean}
        raise ValueError(f"unknown op {op!r}")
