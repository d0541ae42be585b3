"""Deterministic fault injection for the parallel-inference pool.

Chaos testing needs failures that are *reproducible*: the same plan must
crash the same worker on the same chunk every run. A :class:`FaultPlan`
is a picklable description of which chunk fails, how, and on which retry
attempts; it ships to the workers inside the chunk payload, and
:func:`apply_fault` fires inside the worker right before the chunk solves.

Four fault kinds cover the failure modes the pool must survive:

``crash``
    ``os._exit`` — the worker process dies without cleanup, surfacing as
    ``BrokenProcessPool`` in the parent (a segfault/OOM-kill stand-in).
``slow``
    ``time.sleep`` — the chunk hangs long enough to trip the per-chunk
    timeout (a stuck-worker stand-in).
``capacity``
    raise :class:`~repro.errors.CapacityError` — a hard-instance blow-up
    in the worker (DNF explosion stand-in).
``nan``
    poison every marginal in the chunk result with NaN — a numerical
    corruption the parent must detect at merge-back, not propagate.

Faults are keyed by chunk index and fire only on the listed attempt
numbers, so a plan like ``FaultSpec("crash", chunk=0)`` (attempts
``(0,)``) fails the first dispatch and lets the retry succeed, while
``attempts=(0, 1)`` exhausts the pool retries and exercises the
requeue-to-serial path — the serial fallback never applies faults.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.errors import CapacityError

__all__ = ["FaultSpec", "FaultPlan", "apply_fault", "FAULT_KINDS"]

#: The injectable failure modes.
FAULT_KINDS = ("crash", "slow", "capacity", "nan")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: *kind* on *chunk*, firing on *attempts*."""

    kind: str
    #: Chunk index (dispatch order) the fault applies to.
    chunk: int
    #: Pool attempt numbers on which the fault fires (0 = first dispatch).
    attempts: tuple[int, ...] = (0,)
    #: Sleep duration for ``slow`` faults.
    seconds: float = 1.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A picklable set of :class:`FaultSpec` entries.

    Examples
    --------
    >>> plan = FaultPlan((FaultSpec("crash", chunk=0),))
    >>> plan.for_chunk(0, attempt=0).kind
    'crash'
    >>> plan.for_chunk(0, attempt=1) is None    # retry is clean
    True
    """

    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def for_chunk(self, chunk: int, attempt: int) -> FaultSpec | None:
        """The fault that fires for this (chunk, attempt), if any."""
        for spec in self.faults:
            if spec.chunk == chunk and attempt in spec.attempts:
                return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.faults)


def apply_fault(spec: FaultSpec | None) -> bool:
    """Fire *spec* inside a worker; returns True when results must be
    NaN-poisoned afterwards (the ``nan`` kind corrupts output rather than
    control flow)."""
    if spec is None:
        return False
    if spec.kind == "crash":
        # Hard death: no exception propagation, no executor cleanup — the
        # parent sees BrokenProcessPool, exactly like a segfault.
        os._exit(17)
    if spec.kind == "slow":
        time.sleep(spec.seconds)
        return False
    if spec.kind == "capacity":
        raise CapacityError("injected capacity fault")
    return spec.kind == "nan"
