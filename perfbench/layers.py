"""Per-layer metrics from a recorded span ledger.

Every layer total counts the outermost span of its recursion key only
(``NESTED`` spans are skipped), so a fit that calls a fit is not counted
twice. Metrics of layers a workload does not reach stay at 0.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Any

from common import percentile, units
from ledger import ASYNC, ERROR, NESTED, TOP, iter_spans


@dataclass
class SpanTotals:
    """Per-name sums over the spans that started inside a window."""

    busy: dict[str, float] = field(default_factory=lambda: collections.defaultdict(float))
    self_busy: dict[str, float] = field(default_factory=lambda: collections.defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: collections.defaultdict(int))
    errors: dict[str, int] = field(default_factory=lambda: collections.defaultdict(int))
    counts: dict[str, float] = field(default_factory=lambda: collections.defaultdict(float))
    durations: dict[str, list[float]] = field(default_factory=lambda: collections.defaultdict(list))
    extras: dict[str, list[dict[str, float]]] = field(
        default_factory=lambda: collections.defaultdict(list)
    )
    top_busy: float = 0.0
    gc_pauses: list[float] = field(default_factory=list)


def totals(data: dict[str, Any], window: tuple[float, float] | None = None) -> SpanTotals:
    """Sum the exported spans (and GC pauses) that start in *window*."""
    out = SpanTotals()
    for name, start, end, self_s, flags, extra in iter_spans(data, window):
        if flags & ERROR:
            out.errors[name] += 1
            continue
        duration = end - start
        if flags & TOP and not flags & ASYNC:
            out.top_busy += duration
        out.self_busy[name] += self_s
        if flags & NESTED:
            continue
        out.busy[name] += duration
        out.calls[name] += 1
        out.durations[name].append(duration)
        out.extras[name].append(extra)
        for key, value in extra.items():
            out.counts[f"{name}.{key}"] += value
    for start, end in zip(data["gc_start"], data["gc_end"]):
        if window is None or window[0] <= start < window[1]:
            out.gc_pauses.append(end - start)
    return out


def empty_metrics() -> dict[str, float]:
    return {name: 0.0 for name in units("per_layer")}


def layer_metrics(span: SpanTotals, cold: SpanTotals | None = None) -> dict[str, float]:
    """Every per-layer metric that comes from spans.

    *cold* supplies the cold-fit totals when they are counted over a
    longer window than the rest (a server's first fits happen during
    set-up, before the measured phases).
    """
    cold = cold or span
    metrics = empty_metrics()
    # Ticks with nothing due return at once; only ticks that refit count.
    ticks = [
        duration
        for duration, extra in zip(
            span.durations["server.refit_tick"], span.extras["server.refit_tick"]
        )
        if extra.get("adopted")
    ]
    plans = span.counts["session.execute_refits.plans"]
    planned = span.counts["session.adopt_refits.planned"]
    fit_errors = span.errors["least_squares.cold"] + span.errors["least_squares.warm"]
    metrics.update(
        {
            "server.refit_tick.count": float(len(ticks)),
            "server.refit_tick_ms.p50": percentile(ticks, 50) * 1e3,
            "server.refit_tick_ms.max": max(ticks, default=0.0) * 1e3,
            "session.refit_plans.busy_s": span.busy["session.refit_plans"],
            "session.adopt_refits.busy_s": span.busy["session.adopt_refits"],
            "session.execute_refits.busy_s": span.busy["session.execute_refits"],
            "session.execute_refits.plans": plans,
            "session.refit_ms": (
                span.busy["session.execute_refits"] / plans * 1e3 if plans else 0.0
            ),
            "session.adopted_share": (
                span.counts["session.adopt_refits.adopted"] / planned if planned else 0.0
            ),
            "online.forecast.calls": float(span.calls["online.forecast"]),
            "online.forecast.busy_ms": span.busy["online.forecast"] * 1e3,
            "online.report.busy_ms": span.busy["online.report"] * 1e3,
            "intervals.confidence_band.busy_ms": span.busy["intervals.confidence_band"] * 1e3,
            "predictive.metric_report.busy_ms": span.busy["predictive.metric_report"] * 1e3,
            "models.derived.busy_s": span.busy["models.derived"],
            "least_squares.cold.fits": float(cold.calls["least_squares.cold"]),
            "least_squares.cold.busy_s": cold.busy["least_squares.cold"],
            "least_squares.warm.fits": float(span.calls["least_squares.warm"]),
            "least_squares.warm.busy_s": span.busy["least_squares.warm"],
            "least_squares.nfev": span.counts["least_squares.warm.nfev"]
            + span.counts["least_squares.cold.nfev"],
            "least_squares.njev": span.counts["least_squares.warm.njev"]
            + span.counts["least_squares.cold.njev"],
            "least_squares.failed": float(fit_errors),
            "least_squares.scipy.calls": float(span.calls["least_squares.scipy"]),
            "least_squares.scipy.busy_s": span.busy["least_squares.scipy"],
            "batched.calls": float(span.calls["batched.solve"]),
            "batched.problems": span.counts["batched.solve.problems"],
            "batched.busy_s": span.busy["batched.solve"],
            "fleet.busy_s": span.busy["fleet.fit_fleet"],
            "fleet.self_s": span.self_busy["fleet.fit_fleet"],
            "fleet.failed_cells": span.counts["fleet.fit_fleet.failed_cells"],
            "store.chunks": float(span.calls["store.iter_chunks"]),
            "store.iter_chunks.busy_s": span.busy["store.iter_chunks"],
            "store.bytes_read": span.counts["store.iter_chunks.bytes"],
            "parallel.map.calls": float(span.calls["parallel.map"]),
            "parallel.map.busy_s": span.busy["parallel.map"],
            "runtime.gc.pause_s": sum(span.gc_pauses),
            "runtime.gc.pause_ms_max": max(span.gc_pauses, default=0.0) * 1e3,
        }
    )
    return metrics

