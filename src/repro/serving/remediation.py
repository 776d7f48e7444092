"""Auto-remediation: the fleet heals its own degraded forecasts.

A :class:`~repro.serving.session.ForecastSession` refits on the cadence
its :class:`~repro.serving.online.RefitPolicy` prescribes, but a warm
refit cannot save a stream whose incumbent *family* stopped tracking
the curve — an L-shaped outage served by a quadratic keeps predicting a
recovery that never comes. :class:`RemediationLoop` closes that loop
without operator input, in four stages:

detector
    :meth:`RemediationLoop.detect` reads each stream's
    :meth:`~repro.serving.online.OnlineForecaster.drift` — the relative
    per-point SSE degradation of the incumbent fit on the curve as
    grown — and flags streams above
    :attr:`RemediationConfig.drift_threshold`.
proposer
    Mild drift proposes a **warm** refit of the incumbent family;
    drift beyond :attr:`RemediationConfig.reselect_threshold` (or a
    non-finite incumbent) proposes full **reselection**: a fit of
    every candidate family.
verifier
    Every proposal is fitted on the curve *minus* its last
    :attr:`RemediationConfig.holdout_points` observations and scored on
    those held-out points. A candidate is adopted only if its held-out
    SSE strictly beats the incumbent's — then refit warm on the full
    curve and installed via
    :meth:`~repro.serving.online.OnlineForecaster.install_fit`.
scheduler
    Proposals are drained from a priority queue (worst drift first)
    under the per-cycle compute budget
    :attr:`RemediationConfig.budget`; the rest wait for the next cycle.

Like the session's batched refits, a cycle splits into
:meth:`RemediationLoop.plan` (cheap, snapshots state),
:meth:`RemediationLoop.execute` (pure solves, safe to run off-thread),
and :meth:`RemediationLoop.adopt` (installs results) — the async server
(:mod:`repro.serving.server`) runs the middle stage on a worker thread
while the event loop keeps serving. :meth:`RemediationLoop.run_cycle`
chains all three for synchronous callers. The middle stage is two
stacked solves (:func:`~repro.fitting.least_squares._fit_pairs`) with
the session's engine options and the cache off: one for every plan's
candidate fits, one for the full-curve solves of the verified wins.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.core.curve import ResilienceCurve
from repro.exceptions import ServingError
from repro.fitting.least_squares import _converged, _FailedPair, _fit_pairs, _FitPair
from repro.fitting.result import FitResult
from repro.models.base import ResilienceModel
from repro.models.registry import make_model
from repro.observability.metrics import MetricsRegistry
from repro.serving.online import OnlineForecaster
from repro.serving.session import ForecastSession

__all__ = [
    "CycleReport",
    "Detection",
    "RemediationConfig",
    "RemediationLoop",
    "RemediationOutcome",
    "RemediationPlan",
]


@dataclass(frozen=True)
class RemediationConfig:
    """Knobs of one :class:`RemediationLoop`.

    Attributes
    ----------
    drift_threshold:
        Relative per-point SSE drift above which a stream is flagged
        (``0.25`` = the incumbent is 25% worse per point than when it
        was fitted).
    reselect_threshold:
        Drift above which the proposer escalates from a warm refit of
        the incumbent family to full reselection across the candidate
        families. Must be >= *drift_threshold*; non-finite drift
        (incumbent diverged on the new points) always escalates.
    holdout_points:
        Trailing observations withheld from the candidate fit and used
        by the verifier to score candidate vs. incumbent.
    budget:
        Proposals *executed* per cycle — the compute budget. Flagged
        streams beyond it stay queued for the next cycle (worst drift
        is always served first).
    min_train_points:
        Minimum observations that must remain after the holdout split;
        streams with shorter curves are never proposed.
    """

    drift_threshold: float = 0.25
    reselect_threshold: float = 1.0
    holdout_points: int = 4
    budget: int = 4
    min_train_points: int = 6

    def __post_init__(self) -> None:
        if self.drift_threshold < 0.0:
            raise ServingError(
                f"drift_threshold must be >= 0, got {self.drift_threshold}"
            )
        if self.reselect_threshold < self.drift_threshold:
            raise ServingError(
                f"reselect_threshold ({self.reselect_threshold}) must be >= "
                f"drift_threshold ({self.drift_threshold})"
            )
        if self.holdout_points < 1:
            raise ServingError(
                f"holdout_points must be >= 1, got {self.holdout_points}"
            )
        if self.budget < 1:
            raise ServingError(f"budget must be >= 1, got {self.budget}")
        if self.min_train_points < 3:
            raise ServingError(
                f"min_train_points must be >= 3, got {self.min_train_points}"
            )


class Detection(NamedTuple):
    """One flagged stream: its key and the drift that flagged it."""

    key: str
    drift: float


class RemediationPlan(NamedTuple):
    """One scheduled proposal, snapshotted on the control thread.

    Everything :meth:`RemediationLoop.execute` needs is captured here
    by value (curves are immutable snapshots), so the solve stage
    touches no live session state. The forecaster *instance* is pinned
    so adoption can detect unregister/re-register races, exactly like
    :class:`~repro.serving.session.PlannedRefit`.
    """

    key: str
    forecaster: OnlineForecaster
    kind: str  # "warm" | "reselect"
    drift: float
    incumbent_family: ResilienceModel
    incumbent_params: tuple[float, ...]
    candidates: tuple[ResilienceModel, ...]
    train: ResilienceCurve
    full: ResilienceCurve
    holdout_times: tuple[float, ...]
    holdout_perf: tuple[float, ...]


class RemediationOutcome(NamedTuple):
    """The verifier's verdict on one executed proposal.

    ``fit`` is the full-curve refit to install when ``adopted`` is
    true, ``None`` otherwise. Both held-out SSEs are kept for
    reporting either way.
    """

    key: str
    kind: str
    adopted: bool
    family_changed: bool
    candidate_holdout_sse: float
    incumbent_holdout_sse: float
    family: ResilienceModel | None
    fit: FitResult | None


def _holdout_sse(
    family: ResilienceModel,
    params: tuple[float, ...],
    times: tuple[float, ...],
    perf: tuple[float, ...],
) -> float:
    """SSE of *family(params)* on the held-out points (inf if non-finite)."""
    predicted = family.evaluate(np.asarray(times, dtype=np.float64), params)
    if not np.all(np.isfinite(predicted)):
        return float("inf")
    return float(np.sum((predicted - np.asarray(perf, dtype=np.float64)) ** 2))


def _candidate_pairs(plan: RemediationPlan) -> list[_FitPair]:
    """The proposal's candidate fits on the training prefix.

    Reselection fits every candidate family and scores each on the
    held-out tail — the verifier's own metric — not on train SSE. A
    flexible family can track the pre-drift shape (low train SSE) and
    still extrapolate the drifted regime badly; the holdout is what the
    adopted fit must survive. A warm proposal refits the incumbent
    family with its optimum injected as an extra start.
    """
    if plan.kind == "reselect":
        return [_FitPair(family, plan.train) for family in plan.candidates]
    return [
        _FitPair(
            plan.incumbent_family, plan.train, extra_starts=(plan.incumbent_params,)
        )
    ]


def _verify(
    plan: RemediationPlan,
    pairs: Sequence[_FitPair],
    fits: Sequence[FitResult | _FailedPair],
) -> tuple[_FitPair | None, float, float]:
    """The verifier's verdict on one plan's candidate *fits*.

    Returns the full-curve solve a verified win still needs (``None``
    when the best candidate does not strictly beat the incumbent on the
    holdout, or no candidate converged) and the two held-out SSEs. Ties
    between candidates break toward the earlier one in candidate order.
    """
    scored: list[tuple[float, int, ResilienceModel, FitResult]] = []
    for order, (pair, fit) in enumerate(zip(pairs, map(_converged, fits))):
        if fit is not None:
            sse = _holdout_sse(
                fit.model, fit.model.params, plan.holdout_times, plan.holdout_perf
            )
            scored.append((sse, order, pair.family, fit))
    if not scored:
        return None, float("inf"), float("nan")
    candidate_sse, _, family, candidate = min(scored, key=lambda s: s[:2])
    incumbent_sse = _holdout_sse(
        plan.incumbent_family,
        plan.incumbent_params,
        plan.holdout_times,
        plan.holdout_perf,
    )
    if not candidate_sse < incumbent_sse:
        return None, candidate_sse, incumbent_sse
    win = _FitPair(family, plan.full, starts=(candidate.model.params,))
    return win, candidate_sse, incumbent_sse


@dataclass
class CycleReport:
    """Counters from one :meth:`RemediationLoop.run_cycle`."""

    detected: int = 0
    executed: int = 0
    adopted: int = 0
    rejected: int = 0
    reselected: int = 0
    queued: int = 0
    outcomes: list[RemediationOutcome] = field(default_factory=list)

    def to_dict(self) -> dict[str, int]:
        return {
            "detected": self.detected,
            "executed": self.executed,
            "adopted": self.adopted,
            "rejected": self.rejected,
            "reselected": self.reselected,
            "queued": self.queued,
        }


class RemediationLoop:
    """Detector → proposer → verifier → scheduler over one session.

    Parameters
    ----------
    session:
        The :class:`~repro.serving.session.ForecastSession` to heal.
    candidates:
        Families reselection chooses from (names or instances). The
        flagged stream's incumbent is always added, so reselection can
        conclude "keep the family, refit it".
    config:
        :class:`RemediationConfig`; defaults are conservative.
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`
        receiving ``remediation.*`` counters (the server passes its
        own, so SLO and remediation accounting land in one place).
    """

    def __init__(
        self,
        session: ForecastSession,
        *,
        candidates: Sequence[ResilienceModel | str] = (
            "quadratic",
            "competing_risks",
            "wei-exp",
        ),
        config: RemediationConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.session = session
        self.config = config if config is not None else RemediationConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._candidates: tuple[ResilienceModel, ...] = tuple(
            make_model(c) if isinstance(c, str) else c for c in candidates
        )
        if not self._candidates:
            raise ServingError("remediation needs at least one candidate family")
        #: Keys executed this cycle are skipped by the next detect()
        #: until their stream grows again — prevents thrashing a stream
        #: whose verified-best fit still drifts.
        self._cooldown: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Detector
    # ------------------------------------------------------------------
    def detect(self) -> list[Detection]:
        """Streams whose incumbent fit drifted past the threshold."""
        flagged: list[Detection] = []
        for key, forecaster in self.session.forecasters.items():
            if forecaster.fit is None:
                continue
            cooldown_n = self._cooldown.get(key)
            if cooldown_n is not None and forecaster.n_observations <= cooldown_n:
                continue
            drift = forecaster.drift()
            if drift is None:
                continue
            if drift > self.config.drift_threshold:
                flagged.append(Detection(key, float(drift)))
        self.metrics.inc("remediation.detected", len(flagged))
        return flagged

    # ------------------------------------------------------------------
    # Proposer + scheduler
    # ------------------------------------------------------------------
    def plan(self, detections: Sequence[Detection] | None = None) -> list[RemediationPlan]:
        """The proposals this cycle's budget affords, worst drift first.

        Detections beyond the budget (or with curves too short to split
        off a holdout) are left for later cycles. Snapshots everything
        the solve needs; safe to call while requests mutate the
        session between cycles.
        """
        if detections is None:
            detections = self.detect()
        queue: list[tuple[float, int, Detection]] = []
        for order, detection in enumerate(detections):
            priority = (
                -math.inf if math.isinf(detection.drift) else -detection.drift
            )
            heapq.heappush(queue, (priority, order, detection))

        plans: list[RemediationPlan] = []
        while queue and len(plans) < self.config.budget:
            _, _, detection = heapq.heappop(queue)
            built = self._plan_one(detection)
            if built is not None:
                plans.append(built)
        self.metrics.inc("remediation.planned", len(plans))
        self.metrics.inc("remediation.queued", len(queue))
        return plans

    def _plan_one(self, detection: Detection) -> RemediationPlan | None:
        forecaster = self.session.forecasters.get(detection.key)
        if forecaster is None or forecaster.fit is None:
            return None
        full = forecaster.curve
        k = self.config.holdout_points
        if len(full) - k < self.config.min_train_points:
            return None
        train = ResilienceCurve(
            full.times[:-k],
            full.performance[:-k],
            nominal=full.nominal,
            name=f"{detection.key}-train",
        )
        kind = (
            "reselect"
            if (
                not math.isfinite(detection.drift)
                or detection.drift > self.config.reselect_threshold
            )
            else "warm"
        )
        incumbent = forecaster.family
        candidates = self._candidates
        if all(f.name != incumbent.name for f in candidates):
            candidates = (incumbent, *candidates)
        fit = forecaster.fit
        return RemediationPlan(
            key=detection.key,
            forecaster=forecaster,
            kind=kind,
            drift=detection.drift,
            incumbent_family=incumbent,
            incumbent_params=fit.model.params,
            candidates=candidates,
            train=train,
            full=full,
            holdout_times=tuple(float(t) for t in full.times[-k:]),
            holdout_perf=tuple(float(p) for p in full.performance[-k:]),
        )

    # ------------------------------------------------------------------
    # Verifier (pure compute)
    # ------------------------------------------------------------------
    def execute(
        self, plans: Sequence[RemediationPlan]
    ) -> list[RemediationOutcome]:
        """Fit, verify, and (on a win) finalize every plan. Pure compute;
        the server calls this on a worker thread.

        One stacked solve fits every plan's candidates (see
        :func:`_verify`); a second refits each verified win on the full
        curve from its candidate optimum, so the installed fit covers
        every observation. A plan that fails to converge is rejected.
        """
        options = self.session._refit_options
        proposals = [_candidate_pairs(plan) for plan in plans]
        fits = iter(
            _fit_pairs([pair for pairs in proposals for pair in pairs], options=options)
        )
        verdicts = [
            _verify(plan, pairs, [next(fits) for _ in pairs])
            for plan, pairs in zip(plans, proposals)
        ]
        finals = iter(
            _fit_pairs(
                [win for win, _, _ in verdicts if win is not None], options=options
            )
        )
        outcomes: list[RemediationOutcome] = []
        for plan, (win, candidate_sse, incumbent_sse) in zip(plans, verdicts):
            final = None if win is None else _converged(next(finals))
            family = None if win is None or final is None else win.family
            changed = family is not None and family.name != plan.incumbent_family.name
            outcomes.append(
                RemediationOutcome(
                    plan.key, plan.kind, family is not None, changed,
                    candidate_sse, incumbent_sse, family, final,
                )
            )
        return outcomes

    # ------------------------------------------------------------------
    # Adoption
    # ------------------------------------------------------------------
    def adopt(
        self,
        plans: Sequence[RemediationPlan],
        outcomes: Sequence[RemediationOutcome],
    ) -> CycleReport:
        """Install verified wins; account for everything else.

        A plan whose stream was unregistered (or re-registered as a new
        forecaster) while the solves ran is dropped, mirroring
        :meth:`~repro.serving.session.ForecastSession.adopt_refits`.
        """
        report = CycleReport()
        report.executed = len(outcomes)
        for plan, outcome in zip(plans, outcomes):
            report.outcomes.append(outcome)
            live = self.session.forecasters.get(plan.key)
            if live is not plan.forecaster:
                report.rejected += 1
                self.metrics.inc("remediation.dropped_stale")
                continue
            self._cooldown[plan.key] = plan.forecaster.n_observations
            if not outcome.adopted:
                report.rejected += 1
                self.metrics.inc("remediation.rejected")
                continue
            assert outcome.fit is not None and outcome.family is not None
            plan.forecaster.install_fit(outcome.fit, family=outcome.family)
            report.adopted += 1
            self.metrics.inc("remediation.adopted")
            if outcome.family_changed:
                report.reselected += 1
                self.metrics.inc("remediation.reselected")
        return report

    # ------------------------------------------------------------------
    # Synchronous cycle
    # ------------------------------------------------------------------
    def run_cycle(self) -> CycleReport:
        """One full detect → plan → execute → adopt pass, inline."""
        detections = self.detect()
        plans = self.plan(detections)
        outcomes = self.execute(plans)
        report = self.adopt(plans, outcomes)
        report.detected = len(detections)
        report.queued = max(len(detections) - len(plans), 0)
        return report

    def stats(self) -> dict[str, Any]:
        """The ``remediation.*`` counters as a plain dict."""
        snapshot = self.metrics.snapshot()["counters"]
        return {
            name: value
            for name, value in snapshot.items()
            if name.startswith("remediation.")
        }
