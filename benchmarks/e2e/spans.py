"""The benchmark's own span recorder.

Spans are recorded from outside the program, around calls into each layer's
public functions: name, start, end, parent, operation id. They stay in
memory during the run and are written at exit as a Chrome trace-event file
plus a per-layer table (self time = span minus the part its children cover).
The untraced run uses :data:`OFF`, whose ``span`` is a shared no-op.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = 0
    tid: int = 0
    args: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one open-span stack per thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ops = 0

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, **args):
        stack = self._stack()
        with self._lock:
            if stack:
                op = self.spans[stack[-1]].op
            else:
                self._ops += 1
                op = self._ops
            index = len(self.spans)
            span = Span(name, 0.0, parent=stack[-1] if stack else -1, op=op,
                        tid=threading.get_ident(), args=args)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, **args) -> None:
        """A child of the open span whose interval was measured elsewhere
        (e.g. the server-side seconds a response reports)."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            op = self.spans[parent].op if stack else 0
            self.spans.append(Span(name, start, end, parent, op,
                                   threading.get_ident(), args))

    # ------------------------------------------------------------ analysis
    def children_seconds(self) -> list[float]:
        """Per span, the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.seconds
        return covered

    def layer_table(self) -> dict[str, dict[str, float]]:
        """``name -> {count, total_s, self_s}`` over all spans."""
        covered = self.children_seconds()
        table: dict[str, dict[str, float]] = {}
        for span, inside in zip(self.spans, covered):
            row = table.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += span.seconds
            row["self_s"] += max(span.seconds - inside, 0.0)
        return table

    def coverage(self, roots: tuple[str, ...]) -> float:
        """Time inside child spans / wall time, over root spans named *roots*."""
        covered = self.children_seconds()
        wall = inside = 0.0
        for span, c in zip(self.spans, covered):
            if span.parent < 0 and span.name in roots:
                wall += span.seconds
                inside += c
        return inside / wall if wall else 0.0

    def seconds_of(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def write(self, path) -> None:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto) with the
        per-layer table under ``layers``."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "ph": "X", "pid": 1, "tid": s.tid,
                "ts": (s.start - origin) * 1e6, "dur": s.seconds * 1e6,
                "args": dict(s.args, op=s.op, parent=s.parent),
            }
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "layers": self.layer_table()}, handle)


class _Off:
    """Recorder of the untraced run: records nothing, costs one call."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, **args):
        return self._null

    def add(self, name: str, start: float, end: float, **args) -> None:
        pass


OFF = _Off()
