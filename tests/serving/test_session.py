"""ForecastSession: routing, batch refits, and shared-engine parity."""

from __future__ import annotations

import pytest

from repro.datasets.stream import StreamEvent, iter_curve
from repro.exceptions import ServingError
from repro.fitting import EngineOptions, FitCache
from repro.serving import ForecastSession, OnlineForecaster, RefitPolicy

OPTIONS = EngineOptions(n_random_starts=2, cache=False, trace=False)

V_POINTS = [
    (0.0, 1.0),
    (1.0, 0.9),
    (2.0, 0.8),
    (3.0, 0.7),
    (4.0, 0.8),
    (5.0, 0.9),
    (6.0, 1.0),
]


def make_session(**kwargs):
    kwargs.setdefault("options", OPTIONS)
    kwargs.setdefault("family", "quadratic")
    return ForecastSession(**kwargs)


class TestRegistry:
    def test_register_and_lookup(self):
        session = make_session()
        forecaster = session.register("a")
        assert session["a"] is forecaster
        assert "a" in session
        assert len(session) == 1
        assert session.keys() == ("a",)
        assert list(session) == ["a"]

    def test_duplicate_registration_raises(self):
        session = make_session()
        session.register("a")
        with pytest.raises(ServingError, match="already registered"):
            session.register("a")

    def test_unknown_stream_raises(self):
        session = make_session()
        with pytest.raises(ServingError, match="unknown stream"):
            session["missing"]

    def test_observe_auto_registers(self):
        session = make_session()
        session.observe("a", 0.0, 1.0)
        assert "a" in session
        assert session["a"].n_observations == 1

    def test_push_routes_by_event_key(self):
        session = make_session()
        forecaster = session.push(StreamEvent("b", 0.0, 1.0, 0))
        assert forecaster is session["b"]

    def test_streams_share_resolved_engine(self):
        cache = FitCache()
        session = make_session(options=OPTIONS.replace(cache=cache))
        a = session.register("a")
        b = session.register("b")
        assert a._engine.cache is cache
        assert b._engine.cache is cache
        assert a._engine.executor is b._engine.executor
        assert a._engine.tracer is b._engine.tracer


class TestBatchRefit:
    def _fill(self, session):
        for key in ("a", "b"):
            for t, p in V_POINTS:
                session.observe(key, t, p)

    def test_refit_stale_fits_all_due_streams(self):
        session = make_session()
        self._fill(session)
        results = session.refit_stale()
        assert sorted(results) == ["a", "b"]
        for key, fit in results.items():
            assert session[key].fit is fit
            assert session[key].stats["refits_cold"] == 1

    def test_refit_stale_idempotent_when_nothing_pending(self):
        session = make_session()
        self._fill(session)
        session.refit_stale()
        assert session.refit_stale() == {}

    def test_batch_refit_matches_inline_refit(self):
        """The shared-executor batch path and the inline per-stream path
        land on the same optimum (cache/executor never affect it)."""
        session = make_session(policy=RefitPolicy(every_k=1))
        self._fill(session)
        batch = session.refit_stale()

        inline = OnlineForecaster(
            "quadratic", options=OPTIONS, policy=RefitPolicy(every_k=1)
        )
        inline.observe_many(V_POINTS)
        reference = inline.refit()
        for fit in batch.values():
            assert fit.model.params == reference.model.params
            assert fit.sse == reference.sse

    def test_batch_refit_on_thread_executor(self):
        session = make_session(
            options=OPTIONS.replace(executor="thread", n_workers=2)
        )
        self._fill(session)
        results = session.refit_stale()
        assert sorted(results) == ["a", "b"]


class TestFailureIsolation:
    """One stream whose refit cannot converge never stops the others."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_refit_is_skipped_counted_and_parked(self, recession_1990):
        session = make_session()
        for t, p in zip(recession_1990.times, recession_1990.performance):
            session.observe("healthy", t, p)
            # Finite, so observe accepts it, but no start can fit it.
            session.observe("huge", t, p * 1e200)
        adopted = session.refit_stale()
        assert set(adopted) == {"healthy"}
        assert session["healthy"].fit is adopted["healthy"]
        assert session["huge"].fit is None
        assert session.stats()["refits_failed"] == 1
        # Not planned again until the failing stream grows.
        assert session.refit_plans() == []
        session.observe("huge", float(recession_1990.times[-1]) + 1.0, 1e200)
        assert [entry.key for entry in session.refit_plans()] == ["huge"]


class TestRefitCache:
    """First fits (cold plans) use the session cache; warm refits don't."""

    def test_identical_streams_share_a_cached_first_fit(self):
        cache = FitCache()
        session = make_session(
            options=OPTIONS.replace(cache=cache), policy=RefitPolicy(every_k=1)
        )
        for t, p in V_POINTS:
            session.observe("a", t, p)
        first = session.refit_stale()["a"]
        assert not first.details["cache_hit"]
        for t, p in V_POINTS:
            session.observe("b", t, p)
        second = session.refit_stale()["b"]
        assert second.details["cache_hit"]
        assert second.params == first.params
        assert cache.stats()["hits"] == 1
        # A warm refit neither looks the cache up nor writes to it.
        before = cache.stats()
        session.observe("a", 7.0, 1.0)
        assert not session.refit_stale()["a"].details["cache_hit"]
        assert cache.stats() == before


class TestEngineOption:
    """Tick refits run on the session's engine, like inline refits."""

    def test_tick_refit_uses_the_session_engine(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIT_ENGINE", raising=False)
        session = make_session(options=OPTIONS.replace(engine="batched"))
        for t, p in V_POINTS:
            session.observe("a", t, p)
        inline = OnlineForecaster(
            "quadratic", options=OPTIONS.replace(engine="batched")
        )
        inline.observe_many(V_POINTS)
        assert session.refit_stale()["a"].engine == "batched"
        assert inline.refit().engine == "batched"


class TestSessionSurface:
    def test_stats_aggregate_streams(self, recession_1990):
        cache = FitCache()
        session = make_session(options=OPTIONS.replace(cache=cache))
        for event in iter_curve(recession_1990, key="a"):
            session.push(event)
        session.refit_stale()
        stats = session.stats()
        assert stats["streams"] == 1
        assert stats["observations"] == len(recession_1990)
        assert stats["refits_cold"] == 1
        assert stats["cache"] == cache.stats()


class TestConcurrentMutation:
    """refit_stale() while the registry mutates mid-batch.

    The plan/execute/adopt split snapshots the registry up front and
    re-validates at adoption, so streams added, removed, or replaced
    while the solves are in flight must never receive a stale fit —
    and must never corrupt the batch for the streams that stayed.
    """

    def _fill(self, session, *keys):
        for key in keys:
            for t, p in V_POINTS:
                session.observe(key, t, p)

    def test_unregistered_stream_is_skipped_at_adoption(self):
        session = make_session(policy=RefitPolicy(every_k=1))
        self._fill(session, "a", "b")
        planned = session.refit_plans()
        fits = session.execute_refits(planned)
        session.unregister("b")
        adopted = session.adopt_refits(planned, fits)
        assert set(adopted) == {"a"}
        assert session["a"].fit is not None

    def test_reregistered_stream_is_not_corrupted(self):
        # Same key, new forecaster instance: the in-flight solve
        # describes the OLD stream and must be discarded.
        session = make_session(policy=RefitPolicy(every_k=1))
        self._fill(session, "a", "b")
        planned = session.refit_plans()
        fits = session.execute_refits(planned)
        session.unregister("b")
        self._fill(session, "b")
        adopted = session.adopt_refits(planned, fits)
        assert set(adopted) == {"a"}
        assert session["b"].fit is None

    def test_streams_added_mid_batch_wait_for_next_plan(self):
        session = make_session(policy=RefitPolicy(every_k=1))
        self._fill(session, "a")
        planned = session.refit_plans()
        self._fill(session, "late")
        adopted = session.adopt_refits(planned, session.execute_refits(planned))
        assert set(adopted) == {"a"}
        assert session["late"].fit is None
        second = session.refit_plans()
        assert "late" in [entry.key for entry in second]

    def test_refit_in_flight_survives_registry_mutation(self, monkeypatch):
        """A real thread race: the batch blocks mid-solve while the
        main thread removes, replaces, and adds streams."""
        import threading

        from repro.serving import session as session_module

        session = make_session(policy=RefitPolicy(every_k=1))
        self._fill(session, "keep", "drop", "swap")

        started = threading.Event()
        release = threading.Event()
        original = session_module._fit_pairs

        def gated(pairs, **kwargs):
            started.set()
            assert release.wait(timeout=30)
            return original(pairs, **kwargs)

        monkeypatch.setattr(session_module, "_fit_pairs", gated)

        results = {}
        errors = []

        def run():
            try:
                results.update(session.refit_stale())
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        worker = threading.Thread(target=run)
        worker.start()
        assert started.wait(timeout=30)

        # Mutate while the solves are blocked in flight.
        session.unregister("drop")
        session.unregister("swap")
        self._fill(session, "swap")  # same key, NEW forecaster
        session.observe("new", 0.0, 1.0)

        release.set()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert errors == []

        assert set(results) == {"keep"}
        assert session["keep"].fit is not None
        assert session["keep"].pending == 0
        assert "drop" not in session
        assert session["swap"].fit is None  # stale solve discarded
        assert "new" in session
