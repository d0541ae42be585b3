"""Wire protocol of the query service: line-delimited JSON.

One request per line, one response per line, over a TCP or unix-domain
stream. Requests are JSON objects with an ``op`` field (and an optional
client-chosen ``id``, echoed back verbatim so clients can pipeline);
responses carry ``ok`` plus either the op's payload or an ``error`` object
with a machine-readable ``code``:

.. code-block:: text

    -> {"id": 1, "op": "prepare", "name": "p1", "query": "q(h) :- R(h,x)"}
    <- {"id": 1, "ok": true, "name": "p1", ...}
    -> {"id": 2, "op": "query", "prepared": "p1", "deadline": 2.0}
    <- {"id": 2, "ok": true, "answers": [...], "mode": "exact", ...}

Rejections are part of the protocol, not connection failures: an
admission-controlled request that cannot be queued comes back immediately
as ``ok: false`` with code ``rejected_overload`` / ``rejected_deadline``
(the HTTP-429 analogue), so clients can back off and retry.

Rows travel as JSON arrays and are converted back to tuples on the way in;
answers are objects carrying the row, the point ``probability``, and the
sound ``[lower, upper]`` enclosure (zero-width and ``exact: true`` for
exactly solved answers).
"""

from __future__ import annotations

import json

from repro.enclosure import Enclosure
from repro.errors import (
    AdmissionError,
    BudgetExceededError,
    DeadlineExceededError,
    ProbabilityError,
    QuerySemanticsError,
    QuerySyntaxError,
    ReproError,
    SchemaError,
    TransactionConflictError,
    TransactionError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "OPS",
    "decode",
    "encode",
    "ok_response",
    "error_response",
    "code_for_exception",
    "row_from_wire",
    "answers_payload",
]

#: Bumped on breaking wire-format changes; stamped into ``ping`` replies.
PROTOCOL_VERSION = 1

#: Operations the server understands.
OPS = (
    "ping", "prepare", "query", "begin", "insert", "set_prob", "delete",
    "commit", "rollback", "open_session", "close_session", "stats",
    "shutdown",
)

#: Machine-readable error codes a response may carry.
ERROR_CODES = (
    "rejected_overload",   # bounded queue full — back off and retry
    "rejected_deadline",   # deadline already (or nearly) expired at admission
    "shutting_down",       # server draining; no new work accepted
    "timeout",             # request reaped after its deadline passed
    "budget_exceeded",     # a non-deadline cap (nodes/samples) ran out
    "conflict",            # optimistic transaction commit conflict
    "txn_state",           # transaction misuse (no begin / already finished)
    "bad_request",         # malformed request object
    "invalid",             # schema/probability/query-language violation
    "internal",            # contained per-request failure
)


def encode(obj: dict) -> str:
    """One JSON line (terminator included) for *obj*."""
    return json.dumps(obj, sort_keys=True, default=_jsonable) + "\n"


def _jsonable(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if hasattr(value, "as_dict"):
        return value.as_dict()
    return str(value)


def decode(line: str) -> dict:
    """Parse one request line into a dict.

    Raises
    ------
    ValueError
        If the line is not a JSON object.
    """
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError(f"request must be a JSON object, got {type(obj).__name__}")
    return obj


def ok_response(request_id, **payload) -> dict:
    """A success response echoing the request ``id``."""
    resp = {"ok": True, "id": request_id}
    resp.update(payload)
    return resp


def error_response(request_id, code: str, message: str, **extra) -> dict:
    """A failure response with a machine-readable *code*."""
    return {
        "ok": False,
        "id": request_id,
        "error": dict(extra, code=code, message=message),
    }


def code_for_exception(exc: BaseException) -> str:
    """The :data:`ERROR_CODES` entry describing *exc*."""
    if isinstance(exc, AdmissionError):
        return exc.code
    if isinstance(exc, DeadlineExceededError):
        return "timeout"
    if isinstance(exc, BudgetExceededError):
        return "budget_exceeded"
    if isinstance(exc, TransactionConflictError):
        return "conflict"
    if isinstance(exc, TransactionError):
        return "txn_state"
    if isinstance(exc, (SchemaError, ProbabilityError, QuerySyntaxError,
                        QuerySemanticsError)):
        return "invalid"
    if isinstance(exc, ReproError):
        return "internal"
    return "internal"


def row_from_wire(row) -> tuple:
    """A row as received from JSON (a list) back into the tuple the
    storage layer uses."""
    if not isinstance(row, (list, tuple)):
        raise ValueError(f"row must be an array, got {type(row).__name__}")
    return tuple(row)


def answers_payload(answers: dict) -> list[dict]:
    """Uniform JSON shape for every answer family.

    *answers* maps rows to a float (exact inference) or an
    :class:`~repro.enclosure.Enclosure` (degradation ladder, or the
    extensional-speed dissociation rung). Every entry carries a sound
    enclosure; exact answers have ``lower == upper == probability``.
    """
    payload = []
    for row, value in sorted(answers.items(), key=lambda kv: repr(kv[0])):
        if isinstance(value, float):
            value = Enclosure(value, value, "exact", True)
        payload.append({"row": list(row), **value.as_dict()})
    return payload
