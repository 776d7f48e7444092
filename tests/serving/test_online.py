"""OnlineForecaster: intake validation, refit policies, forecasts."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.fitting import EngineOptions, FitCache, fit_least_squares
from repro.models.registry import make_model
from repro.serving import OnlineForecaster, RefitPolicy

#: Hermetic, cheap engine bundle for every forecaster in this module.
OPTIONS = EngineOptions(n_random_starts=2, cache=False, trace=False)

V_POINTS = [
    (0.0, 1.0),
    (1.0, 0.9),
    (2.0, 0.8),
    (3.0, 0.7),
    (4.0, 0.8),
    (5.0, 0.9),
    (6.0, 1.0),
    (7.0, 1.05),
    (8.0, 1.1),
]


def make_forecaster(**kwargs):
    kwargs.setdefault("options", OPTIONS)
    return OnlineForecaster("quadratic", **kwargs)


class TestRefitPolicyValidation:
    def test_needs_at_least_one_trigger(self):
        with pytest.raises(ServingError, match="at least one trigger"):
            RefitPolicy(every_k=None, sse_drift=None)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"every_k": 0},
            {"sse_drift": -0.1},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ServingError):
            RefitPolicy(**kwargs)


class TestObserve:
    def test_times_must_strictly_increase(self):
        forecaster = make_forecaster()
        forecaster.observe(0.0, 1.0)
        with pytest.raises(ServingError, match="not after"):
            forecaster.observe(0.0, 0.9)

    def test_observations_must_be_finite(self):
        forecaster = make_forecaster()
        with pytest.raises(ServingError, match="finite"):
            forecaster.observe(float("nan"), 1.0)
        with pytest.raises(ServingError, match="finite"):
            forecaster.observe(1.0, float("inf"))

    def test_observe_many_and_counters(self):
        forecaster = make_forecaster()
        forecaster.observe_many(V_POINTS[:3])
        assert forecaster.n_observations == 3
        assert forecaster.stats["observations"] == 3

    def test_curve_requires_two_points(self):
        forecaster = make_forecaster()
        forecaster.observe(0.0, 1.0)
        with pytest.raises(ServingError, match="at least 2"):
            forecaster.curve


class TestReadiness:
    def test_min_points_defaults_to_n_params_plus_two(self):
        forecaster = make_forecaster()
        assert forecaster.min_points == forecaster.family.n_params + 2

    def test_ready_flips_at_min_points(self):
        forecaster = make_forecaster()
        for t, p in V_POINTS[: forecaster.min_points - 1]:
            forecaster.observe(t, p)
        assert not forecaster.ready
        forecaster.observe(*V_POINTS[forecaster.min_points - 1])
        assert forecaster.ready

    def test_forecast_before_ready_raises(self):
        forecaster = make_forecaster()
        forecaster.observe_many(V_POINTS[:2])
        with pytest.raises(ServingError, match="no fit yet"):
            forecaster.forecast(4.0)
        with pytest.raises(ServingError, match="before the first fit"):
            forecaster.refit()


class TestRefitPolicyBehavior:
    def test_first_fit_is_cold_then_warm(self):
        forecaster = make_forecaster()
        forecaster.observe_many(V_POINTS[:5])
        forecaster.refit()
        assert forecaster.stats["refits_cold"] == 1
        forecaster.observe(*V_POINTS[5])
        forecaster.refit()
        assert forecaster.stats["refits_warm"] == 1

    def test_every_k_cadence(self):
        forecaster = make_forecaster(policy=RefitPolicy(every_k=2))
        forecaster.observe_many(V_POINTS[:5])
        forecaster.refit()
        forecaster.observe(*V_POINTS[5])
        assert not forecaster.refit_due()  # only 1 pending of the 2 required
        forecaster.observe(*V_POINTS[6])
        assert forecaster.refit_due()

    def test_no_refit_without_new_observations(self):
        forecaster = make_forecaster()
        forecaster.observe_many(V_POINTS[:5])
        forecaster.refit()
        refits = forecaster.stats["refits_cold"] + forecaster.stats["refits_warm"]
        forecaster.refit()
        assert (
            forecaster.stats["refits_cold"] + forecaster.stats["refits_warm"]
            == refits
        )

    def test_sse_drift_trigger(self):
        # Drift-only policy: cadence off, refit when the incumbent's
        # per-point SSE on the grown curve rises by more than 1%.
        forecaster = make_forecaster(
            policy=RefitPolicy(every_k=None, sse_drift=0.01)
        )
        forecaster.observe_many(V_POINTS[:6])
        forecaster.refit()
        # A point far off any quadratic through the V blows up the SSE.
        forecaster.observe(6.0, 0.2)
        assert forecaster.refit_due()
        forecaster.refit()
        assert forecaster.stats["refits_warm"] == 1

    def test_sse_drift_tolerates_on_model_points(self):
        forecaster = make_forecaster(
            policy=RefitPolicy(every_k=None, sse_drift=1e6)
        )
        forecaster.observe_many(V_POINTS[:6])
        fit = forecaster.refit()
        forecaster.observe(6.0, float(fit.predict(np.array([6.0]))[0]))
        assert not forecaster.refit_due()


class TestForecastSurface:
    def test_forecast_structure(self):
        forecaster = make_forecaster()
        forecaster.observe_many(V_POINTS)
        forecaster.refit()
        forecast = forecaster.forecast(4.0, n_points=5, confidence=0.9)
        assert forecast.key == "online"
        assert forecast.model_name == "quadratic"
        assert forecast.n_observations == len(V_POINTS)
        assert forecast.n_fit == len(V_POINTS)
        assert forecast.age == 0
        assert len(forecast.times) == 5
        assert forecast.times[0] == pytest.approx(8.0)
        assert forecast.times[-1] == pytest.approx(12.0)
        band = forecast.band
        assert np.all(band.lower <= band.center)
        assert np.all(band.center <= band.upper)
        assert band.confidence == pytest.approx(0.9)

    def test_forecast_validates_arguments(self):
        forecaster = make_forecaster()
        forecaster.observe_many(V_POINTS)
        with pytest.raises(ServingError, match="horizon"):
            forecaster.forecast(0.0)
        with pytest.raises(ServingError, match="n_points"):
            forecaster.forecast(4.0, n_points=1)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_forecast_requires_a_finite_horizon(self, horizon):
        forecaster = make_forecaster()
        forecaster.observe_many(V_POINTS)
        with pytest.raises(ServingError, match="horizon"):
            forecaster.forecast(horizon)

    def test_forecast_to_dict_is_json_serializable(self):
        forecaster = make_forecaster()
        forecaster.observe_many(V_POINTS)
        forecaster.refit()
        payload = forecaster.forecast(4.0, n_points=4).to_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["model"] == "quadratic"
        assert parsed["refit"] is False
        assert len(parsed["center"]) == 4

    def test_report_has_eight_metrics(self):
        forecaster = make_forecaster()
        forecaster.observe_many(V_POINTS)
        forecaster.refit()
        report = forecaster.report(horizon=4.0, n_points=4)
        assert len(report.metrics.rows) == 8
        table = report.to_table()
        assert "quadratic" in table
        payload = report.to_dict()
        assert set(payload["metrics"]) == {
            row.name for row in report.metrics.rows
        }

    def test_second_forecast_without_new_data_reuses_fit(self):
        forecaster = make_forecaster()
        forecaster.observe_many(V_POINTS)
        fit = forecaster.refit()
        first = forecaster.forecast(4.0, n_points=4)
        assert forecaster.refit() is fit
        second = forecaster.forecast(4.0, n_points=4)
        assert second.params == first.params == fit.model.params


class TestFinalize:
    def test_finalize_matches_one_shot_fit_bit_identically(self, recession_1990):
        cache = FitCache()
        options = EngineOptions(cache=cache, trace=False)
        forecaster = OnlineForecaster(
            "quadratic", options=options, key="1990-93"
        )
        for t, p in zip(recession_1990.times, recession_1990.performance):
            forecaster.observe(float(t), float(p))
            if forecaster.ready:
                forecaster.refit()
        final = forecaster.finalize()
        oneshot = fit_least_squares(
            make_model("quadratic"), recession_1990,
            options=EngineOptions(cache=False, trace=False),
        )
        assert final.model.params == oneshot.model.params
        assert final.sse == oneshot.sse

    def test_stats_track_replay(self):
        forecaster = make_forecaster()
        for t, p in V_POINTS:
            forecaster.observe(t, p)
            if forecaster.ready:
                forecaster.refit()
        stats = forecaster.stats
        assert stats["observations"] == len(V_POINTS)
        assert stats["refits_cold"] == 1
        assert stats["refits_warm"] == len(V_POINTS) - forecaster.min_points


class TestReadsNeverSolve:
    def test_forecast_and_report_serve_the_incumbent_when_a_refit_is_due(
        self, monkeypatch
    ):
        import repro.fitting.least_squares as least_squares
        import repro.serving.online as online

        forecaster = make_forecaster()
        forecaster.observe_many(V_POINTS[:6])
        fit = forecaster.refit()
        forecaster.observe(*V_POINTS[6])
        assert forecaster.refit_due()

        def no_solve(*args, **kwargs):
            raise AssertionError("a read solved a fit")

        for module in (least_squares, online):
            for name in ("_fit_pairs", "_solve_pairs", "fit_least_squares"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, no_solve)
        forecast = forecaster.forecast(4.0, n_points=4)
        report = forecaster.report(horizon=4.0, n_points=4)
        assert forecaster.fit is fit
        assert forecast.params == report.forecast.params == fit.model.params
        assert (forecast.n_fit, forecast.age) == (6, 1)
        assert forecaster.refit_due()
