"""Multiplexing many online forecasts over one shared engine.

:class:`ForecastSession` manages a fleet of
:class:`~repro.serving.online.OnlineForecaster` streams — the "many
concurrently disrupted systems" workload — behind one resolved
cache/tracer/executor. Observations are routed by stream key
(auto-registering unknown keys), and :meth:`ForecastSession.refit_stale`
solves every due refit in one stacked solve
(:func:`~repro.fitting.least_squares._fit_pairs`) instead of N
sequential fits. Each stream's refit fails on its own: a stream whose
refit cannot converge is skipped, counted, and not planned again until
it receives a new observation.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, NamedTuple, Sequence

from repro.datasets.stream import StreamEvent
from repro.exceptions import FitError, ServingError
from repro.serving.errors import StreamNotFound
from repro.fitting.least_squares import _FailedPair, _fit_pairs
from repro.fitting.options import EngineOptions
from repro.fitting.result import FitResult
from repro.models.base import ResilienceModel
from repro.serving.online import OnlineForecaster, RefitPolicy, _checked_observations

__all__ = ["ForecastSession", "PlannedRefit"]


class PlannedRefit(NamedTuple):
    """One stream's due refit, snapshotted by :meth:`ForecastSession.refit_plans`.

    The snapshot pins the forecaster *instance* alongside its key:
    :meth:`ForecastSession.adopt_refits` only installs the fit if that
    exact instance is still registered under the key, so streams
    removed — or removed and re-registered — while the batch was in
    flight are skipped instead of being corrupted with a stale fit.
    """

    key: str
    forecaster: OnlineForecaster
    plan: Any  # _RefitPlan; private to repro.serving.online


class ForecastSession:
    """A batch scheduler for many concurrent online forecasts.

    Parameters
    ----------
    options:
        :class:`~repro.fitting.EngineOptions` shared by every stream —
        resolved once; all forecasters reuse the same cache, tracer,
        and executor instance.
    family, policy:
        Defaults for streams registered (or auto-registered) without
        their own.
    """

    def __init__(
        self,
        *,
        options: EngineOptions | None = None,
        family: ResilienceModel | str = "competing_risks",
        policy: RefitPolicy | None = None,
    ) -> None:
        self.options = options if options is not None else EngineOptions()
        self._engine = self.options.resolve()
        # Streams share concrete plumbing, so hand each forecaster an
        # options bundle already pinned to the resolved instances.
        self._stream_options = self.options.replace(
            cache=(
                self._engine.cache if self._engine.cache is not None else False
            ),
            trace=self._engine.tracer,
            executor=self._engine.executor,
            n_workers=None,
        )
        # Remediation solves: the streams' bundle with the cache off,
        # since a candidate refit never repeats a key.
        self._refit_options = self._stream_options.replace(cache=False)
        self._default_family = family
        self._default_policy = policy
        self._forecasters: dict[str, OnlineForecaster] = {}
        #: Stream key → observation count its last refit failed on; the
        #: stream is not planned again until it grows past it.
        self._failed_at: dict[str, int] = {}
        self._refits_failed = 0

    # ------------------------------------------------------------------
    # Stream registry
    # ------------------------------------------------------------------
    def register(
        self,
        key: str,
        *,
        family: ResilienceModel | str | None = None,
        policy: RefitPolicy | None = None,
        nominal: float | None = None,
    ) -> OnlineForecaster:
        """Create and track a new stream under *key*."""
        if key in self._forecasters:
            raise ServingError(f"stream {key!r} is already registered")
        forecaster = OnlineForecaster(
            family if family is not None else self._default_family,
            options=self._stream_options,
            policy=policy if policy is not None else self._default_policy,
            key=key,
            nominal=nominal,
        )
        self._forecasters[key] = forecaster
        return forecaster

    def unregister(self, key: str) -> OnlineForecaster:
        """Remove and return the stream under *key*.

        A batched refit already in flight for the stream is discarded at
        adoption time (see :meth:`adopt_refits`) rather than installed
        into a forecaster the session no longer tracks.

        Raises
        ------
        StreamNotFound
            If *key* is not registered.
        """
        self._failed_at.pop(key, None)
        try:
            return self._forecasters.pop(key)
        except KeyError:
            raise StreamNotFound(
                f"unknown stream {key!r}; {len(self._forecasters)} registered"
            ) from None

    def __getitem__(self, key: str) -> OnlineForecaster:
        try:
            return self._forecasters[key]
        except KeyError:
            raise StreamNotFound(
                f"unknown stream {key!r}; {len(self._forecasters)} registered"
            ) from None

    def __contains__(self, key: str) -> bool:
        return key in self._forecasters

    def __len__(self) -> int:
        return len(self._forecasters)

    def __iter__(self) -> Iterator[str]:
        return iter(self._forecasters)

    def keys(self) -> tuple[str, ...]:
        """Registered stream keys, in registration order."""
        return tuple(self._forecasters)

    @property
    def forecasters(self) -> Mapping[str, OnlineForecaster]:
        """Read-only view of the tracked streams."""
        return dict(self._forecasters)

    # ------------------------------------------------------------------
    # Observation routing
    # ------------------------------------------------------------------
    def observe(self, key: str, t: float, p: float) -> None:
        """Route one observation to stream *key*, auto-registering it."""
        self.observe_many(key, [(t, p)])

    def observe_many(self, key: str, points: Sequence[tuple[float, float]]) -> None:
        """Route ``(t, p)`` observations to stream *key* as one batch,
        auto-registering it.

        All or none: a batch the stream rejects (see
        :meth:`OnlineForecaster.observe_many`) changes neither the
        stream nor the registry, so an unknown key stays unknown.
        """
        forecaster = self._forecasters.get(key)
        if forecaster is None:
            points = _checked_observations(points, key=key)
            forecaster = self.register(key)
        forecaster.observe_many(points)

    def push(self, event: StreamEvent) -> OnlineForecaster:
        """Route one :class:`~repro.datasets.stream.StreamEvent`."""
        self.observe(event.key, event.time, event.performance)
        return self._forecasters[event.key]

    # ------------------------------------------------------------------
    # Batch refitting
    # ------------------------------------------------------------------
    def refit_plans(self) -> list[PlannedRefit]:
        """Snapshot every stream's due refit, without solving anything.

        The plan/execute/adopt split exists for the async server: plans
        are built on the event loop (cheap — each is a curve snapshot
        plus its start settings), :meth:`execute_refits` runs the
        blocking solve on a worker thread, and :meth:`adopt_refits`
        installs the results back on the loop. The registry is
        snapshotted up front, so streams may be added or removed while
        the solve runs. A stream whose last refit failed is skipped
        until it receives a new observation.
        """
        planned: list[PlannedRefit] = []
        for key, forecaster in list(self._forecasters.items()):
            if self._failed_at.get(key) == forecaster.n_observations:
                continue
            plan = forecaster.refit_plan()
            if plan is not None:
                planned.append(PlannedRefit(key, forecaster, plan))
        return planned

    def execute_refits(
        self, planned: Sequence[PlannedRefit]
    ) -> list[FitResult | FitError]:
        """Solve *planned* in one stacked solve.

        Every plan is one pair of
        :func:`~repro.fitting.least_squares._fit_pairs`, run with the
        session's options (engine, cache, tracer and executor); only a
        cold plan, a stream's first fit, consults the cache. Returns one
        entry per plan: its fit, or the
        :class:`~repro.exceptions.FitError` that stopped it, so one
        failing stream never stops the others. Pure compute: session
        state is untouched, so this step is safe to run off-thread
        while the event loop keeps serving.
        """
        fits = _fit_pairs(
            [entry.plan.pair for entry in planned], options=self._stream_options
        )
        return [fit.error if isinstance(fit, _FailedPair) else fit for fit in fits]

    def adopt_refits(
        self,
        planned: Sequence[PlannedRefit],
        fits: Sequence[FitResult | FitError],
    ) -> dict[str, FitResult]:
        """Install batch results through each forecaster's adoption path.

        A plan whose stream was unregistered — or unregistered and
        re-registered as a *new* forecaster — while the batch was in
        flight is skipped: the solve is discarded rather than installed
        into a stream it no longer describes. A failed entry is skipped
        and counted (``refits_failed`` in :meth:`stats`), and its
        stream is not planned again until it grows. Returns the fits
        actually adopted, keyed by stream.
        """
        results: dict[str, FitResult] = {}
        for entry, fit in zip(planned, fits):
            live = self._forecasters.get(entry.key) is entry.forecaster
            if isinstance(fit, FitError):
                self._refits_failed += 1
                if live:
                    self._failed_at[entry.key] = len(entry.plan.curve)
            elif live:
                self._failed_at.pop(entry.key, None)
                entry.forecaster.adopt_fit(fit, entry.plan)
                results[entry.key] = fit
        return results

    def refit_stale(self) -> dict[str, FitResult]:
        """Refit every stream whose policy says a refit is due.

        The due streams' plans are solved in one stacked solve and each
        result installed with
        :meth:`~repro.serving.online.OnlineForecaster.adopt_fit`, so a
        stream ends where its own
        :meth:`~repro.serving.online.OnlineForecaster.refit` would.
        Results are keyed by stream. Streams unregistered between
        planning and adoption, and streams whose refit failed, are
        skipped (see :meth:`adopt_refits`).
        """
        planned = self.refit_plans()
        if not planned:
            return {}
        return self.adopt_refits(planned, self.execute_refits(planned))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Aggregated per-stream counters, the failed-refit count and
        cache statistics."""
        totals: dict[str, int] = {}
        for forecaster in self._forecasters.values():
            for name, value in forecaster.stats.items():
                totals[name] = totals.get(name, 0) + value
        payload: dict[str, Any] = {
            "streams": len(self._forecasters),
            **totals,
            "refits_failed": self._refits_failed,
        }
        if self._engine.cache is not None:
            payload["cache"] = self._engine.cache.stats()
        return payload
