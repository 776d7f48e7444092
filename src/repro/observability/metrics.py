"""Thread-safe metrics registry: counters, timers, histograms.

The registry is deliberately tiny — a dict of integer counters plus a
dict of histograms (count/total/min/max and fixed log-spaced duration
buckets). It answers the questions the fit engine's instrumentation
asks of itself ("how many residual evaluations", "how many cache hits",
"how is solve time distributed") without pulling in a metrics
dependency the container does not have.

Timers are histograms observed in seconds::

    registry = MetricsRegistry()
    with registry.timer("fit.seconds"):
        ...                          # observed on exit
    registry.inc("fit.count")
    print(registry.to_table())
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.utils.tables import format_table

__all__ = ["MetricsRegistry", "PERCENTILE_WINDOW", "TIMER_BUCKETS"]

#: Upper edges (seconds) of the histogram buckets; the final implicit
#: bucket is +inf. One per decade from 1 µs to 100 s, so a 20 µs
#: memoized read, a 0.3 ms forecast and a 30 s grid each land in an
#: informative bin.
TIMER_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0
)

#: Observations each histogram retains for exact percentiles. Beyond
#: this the window slides (oldest dropped), so quantiles reflect the
#: most recent observations — the behavior a latency SLO wants.
PERCENTILE_WINDOW = 4096


@dataclass
class _Histogram:
    """Running summary of one observed series."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    buckets: list[int] = field(
        default_factory=lambda: [0] * (len(TIMER_BUCKETS) + 1)
    )
    #: Sliding sample window backing :meth:`percentile`; a ring buffer
    #: of the last :data:`PERCENTILE_WINDOW` observations.
    samples: list[float] = field(default_factory=list)
    _ring_next: int = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if len(self.samples) < PERCENTILE_WINDOW:
            self.samples.append(value)
        else:
            self.samples[self._ring_next] = value
            self._ring_next = (self._ring_next + 1) % PERCENTILE_WINDOW
        for index, edge in enumerate(TIMER_BUCKETS):
            if value <= edge:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0–100) over the sample window.

        Exact (nearest-rank with linear interpolation, numpy
        convention) while fewer than :data:`PERCENTILE_WINDOW`
        observations have arrived; a sliding-window estimate after.
        """
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (max(0.0, min(100.0, q)) / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] + (ordered[high] - ordered[low]) * fraction

    def as_dict(self) -> dict[str, Any]:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total": self.total,
            "mean": mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Named counters and histograms behind one lock.

    All operations are thread-safe; the registry is shared by every
    span a :class:`~repro.observability.tracer.Tracer` records, and the
    thread executor may drive instrumented code from several threads at
    once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, _Histogram] = {}

    # -- counters -------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Add *n* to the counter *name* (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(n)

    def counter(self, name: str) -> int:
        """Current value of counter *name* (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- histograms / timers --------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram *name*."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = _Histogram()
            histogram.observe(float(value))

    def percentile(self, name: str, q: float) -> float:
        """The *q*-th percentile (0–100) of histogram *name*.

        Exact until the histogram's sample window
        (:data:`PERCENTILE_WINDOW` observations) fills, then a
        sliding-window estimate over the most recent observations.
        ``0.0`` for a histogram that was never observed — the serving
        SLO accountant reads p50/p99 through here without caring
        whether traffic arrived yet.
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                return 0.0
            return histogram.percentile(q)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager observing its elapsed seconds into *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- snapshots ------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy of every counter and histogram."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in self._histograms.items()
                },
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._histograms)

    def to_table(self) -> str:
        """Aligned text rendering of the registry (summary output)."""
        snap = self.snapshot()
        blocks: list[str] = []
        if snap["counters"]:
            rows = [[name, value] for name, value in sorted(snap["counters"].items())]
            blocks.append(format_table(["Counter", "Value"], rows))
        if snap["histograms"]:
            rows = [
                [
                    name,
                    stats["count"],
                    stats["total"],
                    stats["mean"],
                    stats["min"],
                    stats["max"],
                ]
                for name, stats in sorted(snap["histograms"].items())
            ]
            blocks.append(
                format_table(
                    ["Histogram", "Count", "Total", "Mean", "Min", "Max"],
                    rows,
                    float_digits=6,
                )
            )
        return "\n\n".join(blocks)
