"""Replay a recorded dataset through the online forecasting service.

:func:`replay_forecasts` feeds a stream of
:class:`~repro.datasets.stream.StreamEvent` into a
:class:`~repro.serving.session.ForecastSession` and yields
JSON-serializable dicts: one ``update`` per (sampled) observation,
one ``final`` per stream at end-of-stream (the bit-identical
:meth:`~repro.serving.online.OnlineForecaster.finalize` fit), and one
closing ``summary``. The ``repro serve-replay`` CLI subcommand prints
these as JSONL.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.datasets.stream import StreamEvent
from repro.fitting.options import EngineOptions
from repro.models.base import ResilienceModel
from repro.serving.online import RefitPolicy
from repro.serving.session import ForecastSession

__all__ = ["replay_forecasts"]


def replay_forecasts(
    events: Iterable[StreamEvent],
    *,
    horizon: float = 12.0,
    every: int = 1,
    n_points: int = 10,
    confidence: float = 0.95,
    family: ResilienceModel | str = "competing_risks",
    options: EngineOptions | None = None,
    policy: RefitPolicy | None = None,
    finalize: bool = True,
    session: ForecastSession | None = None,
) -> Iterator[dict[str, Any]]:
    """Replay *events* as live traffic and yield forecast updates.

    Parameters
    ----------
    events:
        Time-ordered observation stream, e.g. from
        :func:`~repro.datasets.stream.replay_recessions`. Streams are
        auto-registered by event key.
    horizon:
        Forecast horizon (same time units as the stream).
    every:
        Emit an update every this-many observations per stream. Each
        update first calls
        :meth:`~repro.serving.online.OnlineForecaster.refit`, which
        solves only when *policy* says a refit is due; the update's
        ``refit`` field says whether it did.
    n_points:
        Grid points per emitted forecast trajectory.
    family, options, policy:
        Session defaults (see :class:`ForecastSession`); ignored when
        an existing *session* is supplied.
    finalize:
        Emit one ``final`` record per stream after the last event: a
        cold full-curve fit bit-identical to the one-shot batch fit.
    session:
        Reuse an existing session instead of building one.

    Yields
    ------
    dict
        ``{"type": "update", ...}`` per sampled observation,
        ``{"type": "final", ...}`` per stream, then one
        ``{"type": "summary", ...}``.
    """
    if session is None:
        session = ForecastSession(options=options, family=family, policy=policy)
    n_events = 0
    for event in events:
        forecaster = session.push(event)
        n_events += 1
        if not forecaster.ready:
            continue
        if every > 1 and (event.index + 1) % every != 0:
            continue
        previous = forecaster.fit
        forecaster.refit()
        forecast = forecaster.forecast(
            horizon, n_points=n_points, confidence=confidence
        )
        payload = forecast.to_dict()
        payload["refit"] = forecaster.fit is not previous
        payload["type"] = "update"
        payload["t"] = event.time
        payload["p"] = event.performance
        yield payload
    if finalize:
        for key in session.keys():
            forecaster = session[key]
            if not forecaster.ready:
                continue
            fit = forecaster.finalize()
            yield {
                "type": "final",
                "key": key,
                "model": fit.model.name,
                "params": [float(v) for v in fit.model.params],
                "sse": float(fit.sse),
                "converged": bool(fit.converged),
                "n": len(forecaster.curve),
            }
    yield {"type": "summary", "events": n_events, **session.stats()}
