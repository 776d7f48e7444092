"""Online forecasting: one curve under construction, continuously fit.

:class:`OnlineForecaster` wraps a :class:`~repro.core.curve.ResilienceCurve`
that is still being observed. ``observe(t, p)`` appends points;
``forecast(horizon)`` and ``report()`` serve the incumbent fit: the
predicted trajectory with its Eq. (13) confidence band, the predicted
recovery time, and the paper's eight interval metrics. Reads never
solve.

Refit mechanics
---------------
A stream's fit changes one way: *plan → stacked solve → adopt*.
:meth:`OnlineForecaster.refit_plan` says what the
:class:`RefitPolicy` wants (every k points and/or when the incumbent's
SSE drifts), the plan is solved by
:func:`~repro.fitting.least_squares._fit_pairs`, and
:meth:`OnlineForecaster.adopt_fit` installs the result. A
:class:`~repro.serving.session.ForecastSession` solves every due
stream's plan in one call; :meth:`OnlineForecaster.refit` does the
same for one stream. The first fit runs the normal cold multi-start
sweep; every later refit warm-starts from the previous optimum alone,
because a curve that grew by a few points almost never moves the
optimum to a different basin. The incumbent *family* changes only
through :meth:`OnlineForecaster.install_fit`, which the remediation
loop (:mod:`repro.serving.remediation`) calls after a candidate beats
the incumbent on held-out points.

:meth:`OnlineForecaster.finalize` runs one cold fit with the exact
configuration of a one-shot :func:`~repro.fitting.fit_least_squares`
call, so a fully replayed curve reproduces the batch optimum
bit-identically.

The serving layer accepts engine configuration *only* as an
:class:`~repro.fitting.EngineOptions` bundle, resolved once at
construction so every refit shares the same cache/tracer/executor.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.core.curve import ResilienceCurve
from repro.exceptions import ReproError, ServingError
from repro.fitting.least_squares import (
    _FailedPair,
    _FitPair,
    _fit_pairs,
    fit_least_squares,
)
from repro.fitting.options import EngineOptions, ResolvedEngine
from repro.fitting.result import FitResult
from repro.metrics.predictive import (
    PredictiveMetricReport,
    predictive_metric_report,
)
from repro.models.base import ResilienceModel
from repro.models.registry import make_model
from repro.validation.intervals import ConfidenceBand, confidence_band

__all__ = ["Forecast", "ForecastReport", "OnlineForecaster", "RefitPolicy"]


@dataclass(frozen=True)
class RefitPolicy:
    """When an :class:`OnlineForecaster` refits.

    Attributes
    ----------
    every_k:
        Refit once this many unfitted observations accumulate. ``1``
        (the default) refits on every new point; ``None`` disables the
        cadence trigger (then *sse_drift* must be set).
    sse_drift:
        Relative per-point SSE drift that forces a refit between
        cadence ticks: refit when the incumbent model's SSE/point on
        the grown curve exceeds ``(1 + sse_drift)`` times its fitted
        SSE/point. ``None`` disables the drift trigger.
    """

    every_k: int | None = 1
    sse_drift: float | None = None

    def __post_init__(self) -> None:
        if self.every_k is None and self.sse_drift is None:
            raise ServingError(
                "RefitPolicy needs at least one trigger: set every_k "
                "and/or sse_drift"
            )
        if self.every_k is not None and self.every_k < 1:
            raise ServingError(f"every_k must be >= 1, got {self.every_k}")
        if self.sse_drift is not None and self.sse_drift < 0.0:
            raise ServingError(f"sse_drift must be >= 0, got {self.sse_drift}")


@dataclass(frozen=True)
class Forecast:
    """One forecast snapshot from an :class:`OnlineForecaster`.

    ``times`` spans from the last observation to ``last + horizon``;
    ``band`` is the Eq. (13) confidence band over those times. ``age``
    counts observations received since the underlying fit.
    """

    key: str
    model_name: str
    params: tuple[float, ...]
    sse: float
    n_observations: int
    n_fit: int
    times: tuple[float, ...]
    band: ConfidenceBand
    recovery_time: float | None

    @property
    def age(self) -> int:
        """Observations received since the fit was computed."""
        return self.n_observations - self.n_fit

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (one replay update line)."""
        return {
            "key": self.key,
            "model": self.model_name,
            "params": [float(v) for v in self.params],
            "sse": float(self.sse),
            "n": self.n_observations,
            "n_fit": self.n_fit,
            # A forecast never solves; serve-replay sets this on the
            # updates whose refit() call did.
            "refit": False,
            "recovery_time": self.recovery_time,
            "times": [float(t) for t in self.times],
            "center": [float(v) for v in self.band.center],
            "lower": [float(v) for v in self.band.lower],
            "upper": [float(v) for v in self.band.upper],
            "confidence": float(self.band.confidence),
        }


@dataclass(frozen=True)
class ForecastReport:
    """A :class:`Forecast` plus the eight interval metrics."""

    forecast: Forecast
    metrics: PredictiveMetricReport

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation."""
        payload = self.forecast.to_dict()
        payload["metrics"] = {
            row.name: {
                "actual": float(row.actual),
                "predicted": float(row.predicted),
                "delta": float(row.delta),
            }
            for row in self.metrics.rows
        }
        return payload

    def to_table(self) -> str:
        """The metric table, headed by the fit summary."""
        forecast = self.forecast
        recovery = (
            f"{forecast.recovery_time:.2f}"
            if forecast.recovery_time is not None
            else "n/a"
        )
        head = (
            f"{forecast.key}: {forecast.model_name} on "
            f"{forecast.n_observations} points (SSE {forecast.sse:.3e}, "
            f"recovery {recovery})"
        )
        return head + "\n" + self.metrics.to_table()


class _RefitPlan:
    """One planned refit: the pair to solve and its kind.

    Built by :meth:`OnlineForecaster.refit_plan`, solved by
    :func:`~repro.fitting.least_squares._fit_pairs` (one stream's plan
    in :meth:`OnlineForecaster.refit`, every due stream's in
    :meth:`~repro.serving.session.ForecastSession.execute_refits`) and
    installed by :meth:`OnlineForecaster.adopt_fit`. A cold plan, a
    stream's first fit, is the only one that uses the fit cache: a
    warm refit starts from the previous optimum, so its key never
    repeats.
    """

    __slots__ = ("curve", "kind", "pair")

    def __init__(
        self,
        family: ResilienceModel,
        curve: ResilienceCurve,
        previous: tuple[float, ...] | None,
    ) -> None:
        self.curve = curve
        self.kind = "cold" if previous is None else "warm"
        self.pair = _FitPair(
            family,
            curve,
            starts=None if previous is None else (previous,),
            use_cache=previous is None,
        )


def _checked_observations(
    points: Iterable[tuple[float, float]], *, after: float | None = None, key: str
) -> list[tuple[float, float]]:
    """*points* as ``(t, p)`` floats, checked for stream *key*.

    Every value must be finite and every time strictly after the one
    before it (*after*, the stream's last time, for the first point).

    Raises
    ------
    ServingError
        On the first point that breaks either rule.
    """
    batch = [(float(t), float(p)) for t, p in points]
    last = after
    for t, p in batch:
        if not (np.isfinite(t) and np.isfinite(p)):
            raise ServingError(f"observation must be finite, got ({t}, {p})")
        if last is not None and t <= last:
            raise ServingError(
                f"observation at t={t} is not after the last time "
                f"{last} (stream {key!r})"
            )
        last = t
    return batch


class OnlineForecaster:
    """A resilience curve under construction, with a live forecast.

    Parameters
    ----------
    family:
        Incumbent model family (name or unbound instance).
    options:
        :class:`~repro.fitting.EngineOptions` bundle — the serving
        layer's only engine-configuration input. Resolved once here;
        all refits share the resolved cache/tracer/executor.
    policy:
        :class:`RefitPolicy`; defaults to refit-on-every-point.
    key:
        Stream label used in forecasts and replay output.
    nominal:
        Nominal performance level; ``None`` uses the first observation.
    """

    def __init__(
        self,
        family: ResilienceModel | str = "competing_risks",
        *,
        options: EngineOptions | None = None,
        policy: RefitPolicy | None = None,
        key: str = "online",
        nominal: float | None = None,
    ) -> None:
        self.key = key
        self._family = make_model(family) if isinstance(family, str) else family
        self.options = options if options is not None else EngineOptions()
        self.policy = policy if policy is not None else RefitPolicy()
        self._nominal = nominal

        engine: ResolvedEngine = self.options.resolve()
        self._engine = engine
        # Per-fit options: the solver knobs from the user's bundle, with
        # the plumbing pinned to the resolved instances so every refit
        # shares one cache/tracer and the multi-starts run on the chosen
        # backend. Pinning (rather than re-resolving each fit) keeps the
        # service's behavior fixed even if the environment changes
        # mid-stream.
        self._fit_options = self.options.replace(
            cache=engine.cache if engine.cache is not None else False,
            trace=engine.tracer,
            executor=engine.executor,
            n_workers=None,
        )

        self._times: list[float] = []
        self._performance: list[float] = []
        self._curve_cache: ResilienceCurve | None = None
        self._fit: FitResult | None = None
        self._fit_n = 0
        #: Plain counters, always maintained (the tracer's metrics
        #: registry mirrors them when tracing is enabled).
        self.stats: dict[str, int] = {
            "observations": 0,
            "refits_warm": 0,
            "refits_cold": 0,
            "forecasts": 0,
        }

    # ------------------------------------------------------------------
    # Observation intake
    # ------------------------------------------------------------------
    def observe(self, t: float, p: float) -> None:
        """Append one observation. Times must be strictly increasing."""
        self.observe_many([(t, p)])

    def observe_many(self, points: Iterable[tuple[float, float]]) -> None:
        """Append several ``(t, p)`` observations in order, all or none.

        Every value must be finite and every time strictly after the
        one before it (the stream's last time, for the first point).
        A rejected batch appends nothing.
        """
        batch = _checked_observations(
            points, after=self._times[-1] if self._times else None, key=self.key
        )
        self._times.extend(t for t, _ in batch)
        self._performance.extend(p for _, p in batch)
        self._curve_cache = None
        self.stats["observations"] += len(batch)
        if self._tracer.enabled:
            self._tracer.metrics.inc("serving.observations", len(batch))

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def _tracer(self) -> Any:
        return self._engine.tracer

    @property
    def family(self) -> ResilienceModel:
        """The incumbent (unbound) model family."""
        return self._family

    @property
    def n_observations(self) -> int:
        return len(self._times)

    @property
    def min_points(self) -> int:
        """Observations required before the first fit."""
        return self._family.n_params + 2

    @property
    def ready(self) -> bool:
        """Whether enough observations arrived for a fit."""
        return len(self._times) >= self.min_points

    @property
    def curve(self) -> ResilienceCurve:
        """The observed curve so far (requires ≥ 2 observations)."""
        if len(self._times) < 2:
            raise ServingError(
                f"stream {self.key!r} has {len(self._times)} observation(s); "
                f"a curve needs at least 2"
            )
        if self._curve_cache is None:
            self._curve_cache = ResilienceCurve(
                self._times,
                self._performance,
                nominal=self._nominal,
                name=self.key,
            )
        return self._curve_cache

    @property
    def fit(self) -> FitResult | None:
        """The incumbent fit (``None`` before the first one)."""
        return self._fit

    @property
    def pending(self) -> int:
        """Observations received since the current fit."""
        return len(self._times) - self._fit_n

    # ------------------------------------------------------------------
    # Refit machinery
    # ------------------------------------------------------------------
    def _drift(self) -> float | None:
        """Relative per-point SSE drift of the incumbent on the grown
        curve, or ``None`` when it cannot be computed."""
        if self._fit is None or self._fit_n == 0 or self._fit.sse <= 0.0:
            return None
        curve = self.curve
        sse_now = self._fit.model.sse(curve, self._fit.model.params)
        if not np.isfinite(sse_now):
            return float("inf")
        fitted_per_point = self._fit.sse / self._fit_n
        return (sse_now / len(curve)) / fitted_per_point - 1.0

    def drift(self) -> float | None:
        """Relative per-point SSE drift of the incumbent fit.

        How much worse (relative, e.g. ``0.25`` = 25%) the incumbent
        model's per-point SSE is on the curve *as grown since the fit*,
        compared to its per-point SSE at fit time. ``None`` when there
        is no fit yet (or the fitted SSE is degenerate); ``inf`` when
        the incumbent has gone non-finite on the new points. This is
        the signal the remediation detector
        (:mod:`repro.serving.remediation`) watches.
        """
        return self._drift()

    def refit_due(self) -> bool:
        """Whether the policy calls for a refit right now."""
        if not self.ready:
            return False
        if self._fit is None:
            return True
        if self.pending <= 0:
            return False
        if self.policy.every_k is not None and self.pending >= self.policy.every_k:
            return True
        if self.policy.sse_drift is not None:
            drift = self._drift()
            if drift is not None and drift > self.policy.sse_drift:
                return True
        return False

    def refit_plan(self) -> _RefitPlan | None:
        """The refit the policy wants now, or ``None``.

        Solve it with :func:`~repro.fitting.least_squares._fit_pairs`
        and install the result with :meth:`adopt_fit`;
        :class:`~repro.serving.session.ForecastSession` does this for
        many streams in one stacked solve.
        """
        if not self.refit_due():
            return None
        previous = None if self._fit is None else self._fit.model.params
        return _RefitPlan(self._family, self.curve, previous)

    def adopt_fit(self, fit: FitResult, plan: _RefitPlan) -> None:
        """Install a fit solved from *plan*."""
        self._fit = fit
        self._fit_n = len(plan.curve)
        self.stats[f"refits_{plan.kind}"] += 1
        if self._tracer.enabled:
            self._tracer.metrics.inc(f"serving.refit.{plan.kind}")

    def install_fit(
        self, fit: FitResult, *, family: ResilienceModel | None = None
    ) -> None:
        """Install *fit* (and optionally a new incumbent *family*).

        The adoption path for externally computed fits, and the only
        way a stream's family changes: the remediation loop's verifier
        calls this after a proposed refit or reselection beats the
        incumbent on held-out points.
        """
        if family is not None:
            self._family = family
        self._fit = fit
        self._fit_n = len(self._times)

    def refit(self) -> FitResult:
        """Solve the refit the policy wants, if any; return the current fit.

        The plan runs through the same stacked solve and adoption as a
        session refit tick (:meth:`refit_plan`, then :meth:`adopt_fit`).
        A fit that fails raises the :class:`~repro.exceptions.FitError`
        a lone :func:`~repro.fitting.fit_least_squares` would.
        """
        if not self.ready:
            raise ServingError(
                f"stream {self.key!r} has {len(self._times)} observation(s); "
                f"needs {self.min_points} before the first fit"
            )
        plan = self.refit_plan()
        if plan is not None:
            t0 = time.perf_counter()
            (fit,) = _fit_pairs([plan.pair], options=self._fit_options)
            if isinstance(fit, _FailedPair):
                raise fit.error
            self.adopt_fit(fit, plan)
            if self._tracer.enabled:
                self._tracer.metrics.observe(
                    "serving.refit_seconds", time.perf_counter() - t0
                )
        assert self._fit is not None
        return self._fit

    # ------------------------------------------------------------------
    # Forecast surface
    # ------------------------------------------------------------------
    def forecast(
        self,
        horizon: float,
        *,
        n_points: int = 25,
        confidence: float = 0.95,
    ) -> Forecast:
        """Predicted trajectory over the next *horizon* time units.

        The band is the Eq. (13) confidence band of the current fit
        evaluated on an ``n_points`` grid from the last observation to
        ``last + horizon``; the recovery time is the model's first
        return to the nominal level.

        Serves the incumbent fit as it is, even when the policy says a
        refit is due: freshness is the job of :meth:`refit`, the
        session's refit ticks and the remediation loop. Raises
        :class:`~repro.exceptions.ServingError` before the first fit.
        """
        if not (math.isfinite(horizon) and horizon > 0.0):
            raise ServingError(f"horizon must be positive and finite, got {horizon}")
        if n_points < 2:
            raise ServingError(f"n_points must be >= 2, got {n_points}")
        fit = self._fit
        if fit is None:
            raise ServingError(
                f"stream {self.key!r} has no fit yet ({len(self._times)} "
                f"observation(s); the first fit needs {self.min_points})"
            )
        last = self._times[-1]
        future = np.linspace(last, last + float(horizon), int(n_points))
        band = confidence_band(
            fit.predict(future), fit.sse, self._fit_n, confidence=confidence
        )
        self.stats["forecasts"] += 1
        if self._tracer.enabled:
            self._tracer.metrics.inc("serving.forecasts")
        return Forecast(
            key=self.key,
            model_name=fit.model.name,
            params=fit.model.params,
            sse=fit.sse,
            n_observations=len(self._times),
            n_fit=self._fit_n,
            times=tuple(float(t) for t in future),
            band=band,
            recovery_time=self._recovery_time(fit),
        )

    def _recovery_time(self, fit: FitResult) -> float | None:
        curve = self.curve
        horizon = 100.0 * max(curve.duration, 1.0)
        try:
            return float(fit.model.recovery_time(curve.nominal, horizon=horizon))
        except (ReproError, ValueError):
            return None

    def report(
        self,
        *,
        horizon: float | None = None,
        n_points: int = 25,
        confidence: float = 0.95,
        alpha: float = 0.5,
    ) -> ForecastReport:
        """Forecast plus the eight interval metrics on the observed curve.

        The metrics treat the whole observed window as the predictive
        interval (split at the first observation), comparing the model's
        trajectory against everything seen so far. *horizon* defaults to
        half the observed duration (at least one time unit). Serves
        the incumbent fit, like :meth:`forecast`.
        """
        curve = self.curve
        if horizon is None:
            horizon = max(curve.duration / 2.0, 1.0)
        forecast = self.forecast(horizon, n_points=n_points, confidence=confidence)
        fit = self._fit
        assert fit is not None
        metrics = predictive_metric_report(
            fit.model, curve, float(curve.times[0]), alpha=alpha
        )
        return ForecastReport(forecast=forecast, metrics=metrics)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self) -> FitResult:
        """One cold fit of the full observed curve.

        Uses the exact solver configuration of a one-shot
        :func:`~repro.fitting.fit_least_squares` call with this
        forecaster's options — no warm starts — so the result is
        bit-identical to fitting the completed curve in one batch call
        (and shares its cache entries).
        """
        fit = fit_least_squares(self._family, self.curve, options=self._fit_options)
        self._fit = fit
        self._fit_n = len(self._times)
        return fit
