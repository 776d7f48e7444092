"""Online forecasting: one curve under construction, continuously fit.

:class:`OnlineForecaster` wraps a :class:`~repro.core.curve.ResilienceCurve`
that is still being observed. ``observe(t, p)`` appends points;
``forecast(horizon)`` and ``report()`` return the current best fit,
the predicted trajectory with its Eq. (13) confidence band, the
predicted recovery time, and the paper's eight interval metrics —
refitting lazily and *incrementally* by warm-starting from the
previous optimum.

Refit mechanics
---------------
The first fit (and any policy-scheduled "full" refit) runs the normal
cold multi-start sweep. Every other refit warm-starts: the previous
optimum becomes the only start (or is prepended to a small random
budget via :attr:`RefitPolicy.warm_random_starts`), because a curve
that grew by a few points almost never moves the optimum to a
different basin. :class:`RefitPolicy` controls *when* refits happen
(every k points and/or when the incumbent's SSE drifts) and when the
incumbent family is re-selected via
:func:`~repro.fitting.fit_many` across candidate families.

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
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.curve import ResilienceCurve
from repro.exceptions import ConvergenceError, ReproError, ServingError
from repro.fitting.least_squares import fit_least_squares, fit_many
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
    """When and how an :class:`OnlineForecaster` refits.

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
    warm_random_starts:
        Random starts solved *in addition to* the previous optimum on a
        warm refit. ``0`` (the default) makes warm refits a single
        solve from the previous optimum — the fast path.
    full_refit_every:
        Run every Nth refit with the full cold multi-start budget
        (previous optimum still injected), guarding against a warm
        chain that got stuck in a stale basin. ``None`` never schedules
        one.
    reselect_drift:
        Relative degradation of the incumbent family's per-point SSE —
        against the best it ever achieved on this stream — that
        triggers model reselection with
        :func:`~repro.fitting.fit_many` over the candidate families.
        ``None`` disables reselection.
    min_points:
        Observations required before the first fit; ``None`` defaults
        to ``family.n_params + 2``.
    """

    every_k: int | None = 1
    sse_drift: float | None = None
    warm_random_starts: int = 0
    full_refit_every: int | None = None
    reselect_drift: float | None = None
    min_points: int | None = None

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
        if self.warm_random_starts < 0:
            raise ServingError(
                f"warm_random_starts must be >= 0, got {self.warm_random_starts}"
            )
        if self.full_refit_every is not None and self.full_refit_every < 1:
            raise ServingError(
                f"full_refit_every must be >= 1, got {self.full_refit_every}"
            )
        if self.min_points is not None and self.min_points < 2:
            raise ServingError(f"min_points must be >= 2, got {self.min_points}")


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
    refit_performed: bool

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
            "refit": self.refit_performed,
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
    """One planned refit: its start settings plus bookkeeping labels.

    Built by :meth:`OnlineForecaster.refit_plan` and consumed either
    inline or by :class:`~repro.serving.session.ForecastSession`'s
    batch scheduler (which solves every due plan in one stacked solve
    and hands each result back to :meth:`OnlineForecaster.adopt_fit`).
    ``fit_kwargs`` holds only ``starts``, ``extra_starts`` and
    ``n_random_starts``: the settings that differ between refits.
    """

    __slots__ = ("family", "curve", "kind", "fit_kwargs")

    def __init__(
        self,
        family: ResilienceModel,
        curve: ResilienceCurve,
        kind: str,
        fit_kwargs: dict[str, Any],
    ) -> None:
        self.family = family
        self.curve = curve
        self.kind = kind  # "cold" | "warm" | "full"
        self.fit_kwargs = fit_kwargs


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
    candidates:
        Families considered when reselection triggers (see
        :attr:`RefitPolicy.reselect_drift`). The incumbent is always
        included.
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
        candidates: Sequence[ResilienceModel | str] | None = None,
        key: str = "online",
        nominal: float | None = None,
    ) -> None:
        self.key = key
        self._family = make_model(family) if isinstance(family, str) else family
        self.options = options if options is not None else EngineOptions()
        self.policy = policy if policy is not None else RefitPolicy()
        self._candidates: tuple[ResilienceModel, ...] = tuple(
            make_model(c) if isinstance(c, str) else c
            for c in (candidates or ())
        )
        if self.policy.reselect_drift is not None and not self._candidates:
            raise ServingError(
                "reselect_drift is set but no candidate families were given"
            )
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
        self._n_refits = 0
        self._best_per_point: float | None = None
        #: Plain counters, always maintained (the tracer's metrics
        #: registry mirrors them when tracing is enabled).
        self.stats: dict[str, int] = {
            "observations": 0,
            "refits_warm": 0,
            "refits_cold": 0,
            "refits_full": 0,
            "reselections": 0,
            "forecasts": 0,
        }

    # ------------------------------------------------------------------
    # Observation intake
    # ------------------------------------------------------------------
    def observe(self, t: float, p: float) -> None:
        """Append one observation. Times must be strictly increasing."""
        t = float(t)
        p = float(p)
        if not (np.isfinite(t) and np.isfinite(p)):
            raise ServingError(f"observation must be finite, got ({t}, {p})")
        if self._times and t <= self._times[-1]:
            raise ServingError(
                f"observation at t={t} is not after the last time "
                f"{self._times[-1]} (stream {self.key!r})"
            )
        self._times.append(t)
        self._performance.append(p)
        self._curve_cache = None
        self.stats["observations"] += 1
        if self._tracer.enabled:
            self._tracer.metrics.inc("serving.observations")

    def observe_many(self, points: Iterable[tuple[float, float]]) -> None:
        """Append several ``(t, p)`` observations in order."""
        for t, p in points:
            self.observe(t, p)

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
        if self.policy.min_points is not None:
            return self.policy.min_points
        return self._family.n_params + 2

    @property
    def ready(self) -> bool:
        """Whether enough observations arrived for a fit."""
        return len(self._times) >= max(self.min_points, 2)

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
        """The most recent fit, without triggering a refit."""
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

        Exposed so :class:`~repro.serving.session.ForecastSession` can
        solve many streams' plans in one stacked solve; pair with
        :meth:`adopt_fit`.
        """
        if not self.refit_due():
            return None
        curve = self.curve
        previous = None if self._fit is None else self._fit.model.params
        if previous is None:
            return _RefitPlan(self._family, curve, "cold", {})
        full_due = (
            self.policy.full_refit_every is not None
            and (self._n_refits % self.policy.full_refit_every) == 0
        )
        if full_due:
            return _RefitPlan(
                self._family, curve, "full", {"extra_starts": (previous,)}
            )
        if self.policy.warm_random_starts == 0:
            kwargs: dict[str, Any] = {"starts": (previous,)}
        else:
            kwargs = {
                "extra_starts": (previous,),
                "n_random_starts": self.policy.warm_random_starts,
            }
        return _RefitPlan(self._family, curve, "warm", kwargs)

    def adopt_fit(
        self,
        fit: FitResult,
        plan: _RefitPlan,
        *,
        allow_reselect: bool = True,
    ) -> None:
        """Install a fit computed from *plan* (inline or by a session).

        ``allow_reselect=False`` installs the fit but skips the
        drift-triggered model reselection (a cold ``fit_many`` sweep).
        The async server adopts this way on the event loop — the drift
        watermark still updates, and the remediation loop performs the
        actual reselection off-thread.
        """
        self._fit = fit
        self._fit_n = len(plan.curve)
        self._n_refits += 1
        self.stats[f"refits_{plan.kind}"] += 1
        if self._tracer.enabled:
            self._tracer.metrics.inc(f"serving.refit.{plan.kind}")
        per_point = fit.sse / max(self._fit_n, 1)
        if self._best_per_point is None or per_point < self._best_per_point:
            self._best_per_point = per_point
        elif (
            allow_reselect
            and self.policy.reselect_drift is not None
            and self._best_per_point > 0.0
            and per_point / self._best_per_point - 1.0 > self.policy.reselect_drift
        ):
            self._reselect(plan.curve)

    def install_fit(
        self, fit: FitResult, *, family: ResilienceModel | None = None
    ) -> None:
        """Install *fit* (and optionally a new incumbent *family*).

        The adoption path for externally computed fits — the
        remediation loop's verifier calls this after a proposed refit
        or reselection beats the incumbent on held-out points. The
        per-stream best-SSE watermark resets to the installed fit, so
        reselection drift is measured against the new family from here
        on.
        """
        if family is not None:
            self._family = family
        self._fit = fit
        self._fit_n = len(self._times)
        self._n_refits += 1
        self._best_per_point = fit.sse / max(self._fit_n, 1)

    def _reselect(self, curve: ResilienceCurve) -> None:
        """Refit all candidate families cold and adopt the best."""
        families = list(self._candidates)
        if all(f.name != self._family.name for f in families):
            families.insert(0, self._family)
        # _fit_options pins the executor to the resolved backend, which
        # maps every candidate's starts in fit_many's one stacked solve.
        results = fit_many(families, curve, options=self._fit_options)
        self.stats["reselections"] += 1
        if self._tracer.enabled:
            self._tracer.metrics.inc("serving.reselections")
        try:
            best = results.best()
        except ConvergenceError:
            return  # keep the incumbent; nothing converged
        if best.model.name != self._family.name:
            by_name = {f.name: f for f in families}
            self._family = by_name[best.model.name]
        self._fit = best
        self._fit_n = len(curve)
        self._best_per_point = best.sse / max(len(curve), 1)

    def _ensure_fit(self) -> tuple[FitResult, bool]:
        """Current fit, refitting first if the policy demands it.

        Returns ``(fit, refit_performed)``.
        """
        if not self.ready:
            raise ServingError(
                f"stream {self.key!r} has {len(self._times)} observation(s); "
                f"needs {self.min_points} before the first fit"
            )
        plan = self.refit_plan()
        if plan is None:
            assert self._fit is not None
            return self._fit, False
        t0 = time.perf_counter()
        fit = fit_least_squares(
            plan.family, plan.curve, options=self._fit_options, **plan.fit_kwargs
        )
        self.adopt_fit(fit, plan)
        if self._tracer.enabled:
            self._tracer.metrics.observe(
                "serving.refit_seconds", time.perf_counter() - t0
            )
        assert self._fit is not None
        return self._fit, True

    def refit(self) -> FitResult:
        """Force a policy-driven refit check and return the current fit."""
        return self._ensure_fit()[0]

    # ------------------------------------------------------------------
    # Forecast surface
    # ------------------------------------------------------------------
    def forecast(
        self,
        horizon: float,
        *,
        n_points: int = 25,
        confidence: float = 0.95,
        allow_refit: bool = True,
    ) -> Forecast:
        """Predicted trajectory over the next *horizon* time units.

        The band is the Eq. (13) confidence band of the current fit
        evaluated on an ``n_points`` grid from the last observation to
        ``last + horizon``; the recovery time is the model's first
        return to the nominal level.

        ``allow_refit=False`` serves the incumbent fit as-is even when
        the policy says a refit is due (raising if there is no fit
        yet). The async server forecasts this way so a request never
        blocks the event loop on a solve; freshness is delegated to the
        batched refit ticker and the remediation loop.
        """
        if not (math.isfinite(horizon) and horizon > 0.0):
            raise ServingError(f"horizon must be positive and finite, got {horizon}")
        if n_points < 2:
            raise ServingError(f"n_points must be >= 2, got {n_points}")
        if allow_refit:
            fit, refit_performed = self._ensure_fit()
        else:
            if self._fit is None:
                raise ServingError(
                    f"stream {self.key!r} has no fit yet and allow_refit "
                    f"is off"
                )
            fit, refit_performed = self._fit, False
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
            refit_performed=refit_performed,
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
        allow_refit: bool = True,
    ) -> ForecastReport:
        """Forecast plus the eight interval metrics on the observed curve.

        The metrics treat the whole observed window as the predictive
        interval (split at the first observation), comparing the model's
        trajectory against everything seen so far. *horizon* defaults to
        half the observed duration (at least one time unit).
        ``allow_refit`` threads through to :meth:`forecast` — the async
        server reports with it off so a report never solves inline.
        """
        curve = self.curve
        if horizon is None:
            horizon = max(curve.duration / 2.0, 1.0)
        forecast = self.forecast(
            horizon,
            n_points=n_points,
            confidence=confidence,
            allow_refit=allow_refit,
        )
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
