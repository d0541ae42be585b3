"""Metrics registry: counters, gauges, and histograms with one JSON shape.

The pipeline's work accounting used to live in bespoke objects —
:class:`~repro.core.executor.OperatorStat`,
:class:`~repro.perf.cache.CacheStats`,
:class:`~repro.lineage.exact.DPLLStats`, ad-hoc bench dicts. The
:class:`MetricsRegistry` is the common sink: every such object implements
``as_dict()`` and is absorbed under a name prefix, new instrumentation
records directly, and one :meth:`~MetricsRegistry.snapshot` emits the whole
state as plain JSON for explain reports.

Metric taxonomy (dotted names, lowercase):

* ``counter`` — monotone totals (``cache.hits``, ``parallel.chunks``);
* ``gauge`` — last-written values (``network.nodes``, ``pool.workers``);
* ``histogram`` — distributions (``component.size``, ``chunk.cost``),
  recorded as count/sum/min/max plus power-of-two bucket counts.

Examples
--------
>>> reg = MetricsRegistry()
>>> reg.inc("cache.hits", 3)
>>> reg.gauge("network.nodes", 17)
>>> for size in (1, 1, 5):
...     reg.observe("component.size", size)
>>> snap = reg.snapshot()
>>> snap["counters"]["cache.hits"], snap["gauges"]["network.nodes"]
(3, 17)
>>> snap["histograms"]["component.size"]["count"]
3
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

__all__ = ["Histogram", "MetricsRegistry"]


@dataclass
class Histogram:
    """Streaming distribution summary with power-of-two buckets.

    ``buckets[k]`` counts observations ``v`` with ``2**(k-1) < v <= 2**k``
    (``k = 0`` catches everything at or below 1). Enough resolution for
    component sizes, chunk costs, and operator timings without storing
    samples.
    """

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        k = 0 if value <= 1.0 else math.ceil(math.log2(value))
        self.buckets[k] = self.buckets.get(k, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile estimate from the power-of-two buckets.

        Walks the cumulative bucket counts to the bucket holding the
        nearest-rank observation and returns that bucket's upper edge,
        clamped into ``[min, max]``. The estimate therefore always lies in
        the same bucket as (and at or above) the exact nearest-rank value —
        the "within one bucket" accuracy the SLO layer advertises.

        Examples
        --------
        >>> h = Histogram()
        >>> for v in (1, 2, 3, 100):
        ...     h.observe(v)
        >>> h.percentile(0.5)
        2.0
        >>> h.percentile(1.0)
        100.0
        """
        if not self.count:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile fraction {q!r} not in [0, 1]")
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for k in sorted(self.buckets):
            cumulative += self.buckets[k]
            if cumulative >= rank:
                upper = 2.0 ** k
                return min(max(upper, self.min), self.max)
        return self.max

    def as_dict(self) -> dict:
        """JSON shape; bucket keys become ``"<=2^k"`` strings."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                f"<=2^{k}": n for k, n in sorted(self.buckets.items())
            },
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms; one snapshot, one JSON shape.

    All recording and reading methods are thread-safe: one registry can be
    shared by every concurrent session of the query service, and concurrent
    :meth:`inc`/:meth:`observe` calls never lose updates (the read-modify-
    write cycles run under an internal re-entrant lock).

    Examples
    --------
    >>> reg = MetricsRegistry()
    >>> from repro.perf.cache import CacheStats
    >>> reg.absorb("cache", CacheStats(hits=3, misses=1))
    >>> reg.snapshot()["counters"]["cache.hits"]
    3
    >>> reg.snapshot()["gauges"]["cache.hit_rate"]
    0.75
    """

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, object] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------ recording
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add *value* to the counter *name* (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value) -> None:
        """Set the gauge *name* to *value* (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram *name*."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def histogram(self, name: str) -> Histogram:
        """The histogram *name*, created empty on first access.

        The returned object is shared; mutate it only from one thread or
        via :meth:`observe` (which locks)."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            return hist

    def absorb(self, prefix: str, stats) -> None:
        """Unify a stats object under *prefix*.

        *stats* is anything with ``as_dict()`` (the shared convention of
        ``OperatorStat``, ``CacheStats``, ``DPLLStats``, …) or a plain
        mapping. Integer values land as counters; everything else (rates,
        strings, flags) as gauges.
        """
        items = stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
        with self._lock:
            for key, value in items.items():
                name = f"{prefix}.{key}"
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    self._gauges[name] = value
                elif isinstance(value, int):
                    self.inc(name, value)
                else:
                    self._gauges[name] = value

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add; gauges take the incoming value; histograms add their
        summaries bucket-wise (the merge a worker pool needs).
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.inc(name, value)
            self._gauges.update(snapshot.get("gauges", {}))
            for name, summary in snapshot.get("histograms", {}).items():
                hist = self.histogram(name)
                if not summary.get("count"):
                    continue
                hist.count += summary["count"]
                hist.total += summary["sum"]
                hist.min = min(hist.min, summary["min"])
                hist.max = max(hist.max, summary["max"])
                for label, n in summary.get("buckets", {}).items():
                    k = int(label.split("^", 1)[1])
                    hist.buckets[k] = hist.buckets.get(k, 0) + n

    # ------------------------------------------------------------- reading
    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """The whole registry as sorted, JSON-serialisable dicts."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: hist.as_dict()
                    for name, hist in sorted(self._histograms.items())
                },
            }
