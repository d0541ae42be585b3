"""Per-query flight recorder: always-on, bounded-overhead telemetry.

Every evaluation the pipeline performs — a CLI query, a workload replay
method, a resilient ladder run, a fault-tolerant pool chunk, a SQL-backend
query — appends one structured record to the active
:class:`FlightRecorder`. The recorder is the workload-level counterpart of
the per-query :class:`~repro.obs.report.ExplainReport`: instead of one deep
report about one evaluation, it keeps a shallow record about *every*
evaluation, cheap enough to leave on permanently.

Design constraints, in order:

* **Always on, bounded overhead.** A process-global recorder with a ring
  buffer (``collections.deque(maxlen=...)``) is active from import time.
  Recording is one dict build plus a deque append per *evaluation* (not per
  operator or per tuple), so the cost is independent of instance size;
  :mod:`repro.obs.check` bounds it under the same <5% gate as the no-op
  tracer spans.
* **Structured and streamable.** With a sink attached (``--flight-log``),
  each record is also written as one JSON line — the JSONL log a serving
  daemon tails and the ``telemetry-smoke`` CI job schema-validates.
* **Self-describing.** Every record carries the schema version
  (:data:`FLIGHT_SCHEMA_VERSION`), a per-recorder sequence number, a wall
  timestamp, and the recording pid; query-level records always carry the
  ``engine`` / ``rungs`` / ``cache`` / ``budget`` fields even when empty,
  so consumers never branch on key presence.

Examples
--------
>>> with flight_recorder() as rec:
...     _ = record("query", query_hash="abc123def456", engine="columnar",
...                seconds=0.5, answers=3, offending=1, network_nodes=9)
...     len(rec.records)
1
>>> rec.records[0]["kind"], rec.records[0]["engine"]
('query', 'columnar')
>>> validate_flight_records(rec.records)
[]
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import os
import pathlib
import threading
import time
from typing import Iterable

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "current_recorder",
    "flight_recorder",
    "record",
    "query_hash",
    "read_flight_log",
    "validate_flight_records",
]

#: Version stamped into every record as ``"v"``; bump on breaking changes.
FLIGHT_SCHEMA_VERSION = 1

#: Fields the recorder itself stamps onto every record.
STAMPED_FIELDS = ("v", "seq", "ts", "pid", "kind")

#: Record kinds that describe one full evaluation and therefore must carry
#: the rung/engine/cache/budget telemetry block.
QUERY_KINDS = ("query", "sql", "ladder")

#: The telemetry block every query-level record carries (defaulted by
#: :meth:`FlightRecorder.record` so emitters only set what they know).
QUERY_FIELD_DEFAULTS: dict = {
    "query_hash": "",
    "engine": "",
    "plan": "",
    "seconds": 0.0,
    "answers": 0,
    "offending": 0,
    "network_nodes": 0,
    "operators": [],
    "rungs": {},
    "engines": {},
    "degraded": 0,
    "cache": {},
    "budget": {},
    "workers": None,
    "error": None,
}

#: Fields every ``serve`` record carries (defaulted by
#: :meth:`FlightRecorder.record`): the query service's request log line.
SERVE_FIELD_DEFAULTS: dict = {
    "op": "",
    "status": "ok",
    "code": "",
    "queue_depth": 0,
    "shed": 0,
    "seconds": 0.0,
    "session": "",
    "prepared": "",
    "error": None,
}

#: Known record kinds (anything else fails validation).
RECORD_KINDS = QUERY_KINDS + ("pool_chunk", "serve")


def query_hash(text: str) -> str:
    """Stable 12-hex-digit digest identifying a query/plan shape.

    Examples
    --------
    >>> query_hash("q() :- R(x), S(x,y)")
    'a5d8485dfc24'
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


class FlightRecorder:
    """Ring-buffered structured event log with an optional JSONL sink.

    *capacity* bounds the in-memory ring; *sink* is a path (appended to as
    JSON lines) or an open text file object (useful for a discarded sink in
    the overhead guard). Thread-safe: one lock serialises sequence
    assignment, ring appends, and sink writes.
    """

    def __init__(self, capacity: int = 512, sink=None) -> None:
        self._ring: collections.deque = collections.deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._sink_path: pathlib.Path | None = None
        self._sink = None
        self._owns_sink = False
        if sink is not None:
            if hasattr(sink, "write"):
                self._sink = sink
            else:
                self._sink_path = pathlib.Path(sink)
                self._sink = self._sink_path.open("a")
                self._owns_sink = True

    # ------------------------------------------------------------ recording
    def record(self, kind: str, **fields) -> dict:
        """Append one record; returns the completed record dict.

        Query-level kinds get the full telemetry block defaulted (see
        :data:`QUERY_FIELD_DEFAULTS`), so the record schema is uniform no
        matter which layer emitted it.
        """
        rec: dict = {}
        if kind in QUERY_KINDS:
            rec.update(QUERY_FIELD_DEFAULTS)
        elif kind == "serve":
            rec.update(SERVE_FIELD_DEFAULTS)
        rec.update(fields)
        rec["v"] = FLIGHT_SCHEMA_VERSION
        rec["kind"] = kind
        rec["ts"] = time.time()
        rec["pid"] = os.getpid()
        with self._lock:
            self._seq += 1
            rec["seq"] = self._seq
            self._ring.append(rec)
            if self._sink is not None:
                self._sink.write(json.dumps(rec, sort_keys=True) + "\n")
        return rec

    # -------------------------------------------------------------- reading
    @property
    def records(self) -> list[dict]:
        """The ring's current contents, oldest first."""
        with self._lock:
            return list(self._ring)

    @property
    def recorded(self) -> int:
        """Total records ever recorded (ring evictions included)."""
        with self._lock:
            return self._seq

    def clear(self) -> None:
        """Drop the ring contents (the sequence counter keeps counting)."""
        with self._lock:
            self._ring.clear()

    def close(self) -> None:
        """Flush and close a sink the recorder opened itself."""
        with self._lock:
            if self._sink is not None:
                self._sink.flush()
                if self._owns_sink:
                    self._sink.close()
                self._sink = None


#: The process-global, always-on recorder (ring only, no sink).
_GLOBAL = FlightRecorder()
_active = _GLOBAL
_active_lock = threading.Lock()


def current_recorder() -> FlightRecorder:
    """The recorder receiving :func:`record` calls right now."""
    return _active


def record(kind: str, **fields) -> dict:
    """Append one record to the active recorder (never a no-op: the global
    ring is always on)."""
    return _active.record(kind, **fields)


@contextlib.contextmanager
def flight_recorder(path=None, *, capacity: int = 512, sink=None):
    """Activate a fresh recorder (optionally JSONL-sinking to *path*).

    The previous recorder — ultimately the process-global ring — is
    restored on exit and the sink is closed. Used by the CLI's
    ``--flight-log`` flag and by tests.
    """
    global _active
    rec = FlightRecorder(capacity=capacity, sink=sink if sink is not None else path)
    with _active_lock:
        prev = _active
        _active = rec
    try:
        yield rec
    finally:
        with _active_lock:
            _active = prev
        rec.close()


# ---------------------------------------------------------------- validation
def read_flight_log(path) -> list[dict]:
    """Parse a JSONL flight log into a list of record dicts."""
    records = []
    for line in pathlib.Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def _check_block(rec: dict, where: str, field: str, type_) -> str | None:
    value = rec.get(field)
    if not isinstance(value, type_):
        return (f"{where}: field {field!r} must be "
                f"{getattr(type_, '__name__', type_)}, got {type(value).__name__}")
    return None


def validate_flight_records(source) -> list[str]:
    """Schema-check flight records; returns a list of problems (empty = OK).

    *source* is a JSONL path, a list of record dicts, or a
    :class:`FlightRecorder`. Checks the shape the ``telemetry-smoke`` CI job
    relies on: every record carries the stamped fields with the current
    schema version, sequence numbers increase strictly, kinds are known, and
    query-level records carry the full rung/engine/cache/budget block.

    Examples
    --------
    >>> validate_flight_records([{"v": 1, "seq": 1, "ts": 0.0, "pid": 1,
    ...                           "kind": "nonsense"}])
    ["record 0: unknown kind 'nonsense'"]
    """
    if isinstance(source, FlightRecorder):
        records: Iterable[dict] = source.records
    elif isinstance(source, (str, pathlib.Path)):
        try:
            records = read_flight_log(source)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable flight log: {exc}"]
    else:
        records = list(source)
    errors: list[str] = []
    last_seq = None
    for i, rec in enumerate(records):
        where = f"record {i}"
        if not isinstance(rec, dict):
            errors.append(f"{where}: not an object")
            continue
        missing = [f for f in STAMPED_FIELDS if f not in rec]
        if missing:
            errors.append(f"{where}: missing stamped fields {missing}")
            continue
        if rec["v"] != FLIGHT_SCHEMA_VERSION:
            errors.append(f"{where}: schema version {rec['v']!r}, "
                          f"expected {FLIGHT_SCHEMA_VERSION}")
        if rec["kind"] not in RECORD_KINDS:
            errors.append(f"{where}: unknown kind {rec['kind']!r}")
            continue
        if last_seq is not None and rec["seq"] <= last_seq:
            errors.append(f"{where}: seq {rec['seq']} not increasing "
                          f"(previous {last_seq})")
        last_seq = rec["seq"]
        if rec["kind"] in QUERY_KINDS:
            for field in QUERY_FIELD_DEFAULTS:
                if field not in rec:
                    errors.append(f"{where}: query-level record missing "
                                  f"{field!r}")
            for field, type_ in (
                ("query_hash", str), ("engine", str), ("seconds", (int, float)),
                ("answers", int), ("offending", int), ("network_nodes", int),
                ("operators", list), ("rungs", dict), ("engines", dict),
                ("degraded", int),
                ("cache", dict), ("budget", dict),
            ):
                if field in rec:
                    problem = _check_block(rec, where, field, type_)
                    if problem:
                        errors.append(problem)
        elif rec["kind"] == "pool_chunk":
            for field, type_ in (("chunk", int), ("attempts", int),
                                 ("requeued_serial", bool), ("events", list)):
                if field not in rec:
                    errors.append(f"{where}: pool_chunk record missing "
                                  f"{field!r}")
                else:
                    problem = _check_block(rec, where, field, type_)
                    if problem:
                        errors.append(problem)
        elif rec["kind"] == "serve":
            for field, type_ in (("op", str), ("status", str),
                                 ("queue_depth", int), ("shed", int),
                                 ("seconds", (int, float))):
                if field not in rec:
                    errors.append(f"{where}: serve record missing {field!r}")
                else:
                    problem = _check_block(rec, where, field, type_)
                    if problem:
                        errors.append(problem)
    return errors


# ------------------------------------------------------------ record builders
def budget_dict(budget) -> dict:
    """The ``budget`` block of a record from a
    :class:`~repro.resilience.QueryBudget` (``{}`` when unbudgeted)."""
    if budget is None:
        return {}
    block = {
        "deadline_seconds": budget.deadline_seconds,
        "max_network_nodes": budget.max_network_nodes,
        "max_samples": budget.max_samples,
    }
    remaining = budget.remaining()
    if remaining is not None:
        block["remaining_seconds"] = remaining
    return block


def cache_dict(cache) -> dict:
    """The ``cache`` block of a record from a
    :class:`~repro.perf.SubformulaCache`-style object (``{}`` when absent)."""
    if cache is None:
        return {}
    stats = getattr(cache, "stats", cache)
    if hasattr(stats, "as_dict"):
        return dict(stats.as_dict())
    return {}


def engines_dict(handle) -> dict:
    """The ``engines`` block: how many component slices each exact engine
    answered (``tree`` / ``ve`` / ``lineage-ve`` / ``dpll`` / ``cache``),
    read from the ``solve_slice`` spans recorded under the span *handle* —
    ``{}`` when no tracer was recording."""
    root = getattr(handle, "span", None)
    counts: dict = {}
    if root is not None:
        for s in root.find("solve_slice"):
            path = s.attrs.get("path", "?")
            counts[path] = counts.get(path, 0) + 1
    return counts


def operator_dicts(stats) -> list[dict]:
    """The ``operators`` block from a list of
    :class:`~repro.core.executor.OperatorStat`."""
    return [s.as_dict() for s in stats]
