"""Cooperative execution budgets: deadlines and resource caps.

A :class:`QueryBudget` bounds one query execution end to end: a wall-clock
deadline plus caps on network growth, elimination width, DPLL calls, OBDD
nodes, approximation work, and Monte-Carlo samples. It is *cooperative*:
nothing preempts a running kernel — instead the evaluator, both pL engines,
and every inference backend call :meth:`QueryBudget.checkpoint` at natural
step boundaries (one relational operator, one eliminated variable, a block
of DPLL calls), and the checkpoint raises
:class:`~repro.errors.DeadlineExceededError` once the deadline has passed.

Checkpoints cost one ``time.monotonic()`` call, so leaving a budget attached
is cheap; a ``None`` budget costs nothing at all (every call site guards
with ``if budget is not None``).

Budgets cross process boundaries: :meth:`QueryBudget.for_worker` converts
the absolute monotonic deadline back into a relative remaining-seconds
budget, which the worker re-anchors against its own clock via
:meth:`QueryBudget.start`. :meth:`QueryBudget.sub` carves out a fraction of
the remaining time for one rung of the degradation ladder so a hopeless
exact attempt cannot starve the fallbacks behind it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.errors import BudgetExceededError, DeadlineExceededError

__all__ = ["QueryBudget", "UNLIMITED"]


@dataclass
class QueryBudget:
    """Resource budget for one query execution.

    All caps are optional; the default budget is unlimited, so attaching one
    never changes behaviour until a cap is set. Budgets are picklable while
    un-started; a started budget must cross process boundaries through
    :meth:`for_worker` (monotonic clocks do not compare across processes).

    Examples
    --------
    >>> b = QueryBudget(deadline_seconds=30.0, max_network_nodes=100_000)
    >>> b.start().expired
    False
    >>> QueryBudget().checkpoint("anything")   # unlimited: always a no-op
    """

    #: Wall-clock deadline for the whole execution, in seconds; ``None``
    #: means no deadline.
    deadline_seconds: float | None = None
    #: Cap on And-Or network size during evaluation (offending-tuple-dense
    #: instances grow the network; this bounds the memory/inference exposure).
    max_network_nodes: int | None = None
    #: Elimination-width cap for the network width probe that routes a
    #: component to variable elimination and for the lineage solver's
    #: elimination engine; ``None`` keeps each engine's default
    #: (:data:`repro.core.inference.VE_WIDTH_LIMIT`,
    #: :data:`repro.lineage.exact.ELIMINATION_WIDTH_LIMIT`).
    max_width: int | None = None
    #: DPLL call budget for exact DNF solves.
    dpll_max_calls: int = 5_000_000
    #: OBDD construction budget (decision nodes).
    obdd_max_nodes: int = 200_000
    #: Target interval width for the bounds rung of the ladder.
    approx_epsilon: float = 0.01
    #: Expansion budget for the bounds rung.
    approx_max_calls: int = 200_000
    #: Monte-Carlo samples for the sampling rung.
    max_samples: int = 20_000
    #: Absolute monotonic deadline, set by :meth:`start`; internal.
    started_at: float | None = None

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "QueryBudget":
        """Anchor the deadline against this process's monotonic clock.

        Idempotent: calling it again keeps the original anchor, so nested
        layers can all ``budget.start()`` defensively.
        """
        if self.deadline_seconds is not None and self.started_at is None:
            self.started_at = time.monotonic()
        return self

    def for_worker(self) -> "QueryBudget":
        """A picklable copy carrying the *remaining* deadline.

        The worker re-anchors with :meth:`start` against its own clock, so
        time already spent in the parent counts against the worker too
        (minus pool dispatch latency, which we accept). A parent whose
        deadline has already passed yields a zero-second worker budget (never
        a negative one), which expires at the worker's first checkpoint.
        """
        remaining = self.remaining()
        return replace(
            self,
            deadline_seconds=max(0.0, remaining) if remaining is not None else None,
            started_at=None,
        )

    def sub(self, fraction: float) -> "QueryBudget":
        """A child budget owning *fraction* of the remaining time.

        Caps are inherited; only the deadline shrinks. Used by the
        degradation ladder to stop one rung from consuming the whole
        deadline. A child of an unlimited budget is unlimited.
        """
        remaining = self.remaining()
        if remaining is None:
            return replace(self, started_at=None)
        child = replace(
            self,
            deadline_seconds=max(0.0, remaining * fraction),
            started_at=None,
        )
        return child.start()

    # ------------------------------------------------------------- accounting
    def remaining(self) -> float | None:
        """Seconds until the deadline (``None`` when unlimited).

        Un-started budgets report their full ``deadline_seconds``.
        """
        if self.deadline_seconds is None:
            return None
        if self.started_at is None:
            return self.deadline_seconds
        return self.deadline_seconds - (time.monotonic() - self.started_at)

    @property
    def expired(self) -> bool:
        """True once the deadline has passed."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def admissible(self, min_seconds: float = 0.0) -> bool:
        """Whether dispatching work under this budget can possibly succeed.

        Admission control in :mod:`repro.serve` calls this *before* queueing
        a request: a budget with no deadline is always admissible; one whose
        remaining time is not strictly greater than *min_seconds* is
        rejected up front instead of being dispatched to die at its first
        mid-operator checkpoint.
        """
        remaining = self.remaining()
        return remaining is None or remaining > min_seconds

    # ------------------------------------------------------------ checkpoints
    def checkpoint(self, stage: str = "") -> None:
        """Cooperative deadline check; call at natural step boundaries.

        Raises
        ------
        DeadlineExceededError
            Once the wall-clock deadline has passed.
        """
        if self.deadline_seconds is None:
            return
        if self.expired:
            raise DeadlineExceededError(
                f"deadline of {self.deadline_seconds:.3f}s exceeded"
                + (f" during {stage}" if stage else "")
            )

    def check_nodes(self, nodes: int, stage: str = "") -> None:
        """Enforce the network-size cap.

        Raises
        ------
        BudgetExceededError
            When the network has grown past ``max_network_nodes``.
        """
        if self.max_network_nodes is not None and nodes > self.max_network_nodes:
            raise BudgetExceededError(
                f"network grew to {nodes} nodes, over the budget of "
                f"{self.max_network_nodes}"
                + (f" during {stage}" if stage else "")
            )

    def width_limit(self, default: int) -> int:
        """The elimination width cap to use: ``max_width`` if set, else the
        calling engine's *default*."""
        return default if self.max_width is None else self.max_width


#: A shared no-cap budget for call sites that want to avoid ``None`` checks.
UNLIMITED = QueryBudget()
