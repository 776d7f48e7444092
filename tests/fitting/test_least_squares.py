"""Tests for the least-squares fitting engine (Eq. 8)."""

import numpy as np
import pytest

from repro.core.curve import ResilienceCurve
from repro.datasets.synthetic import curve_from_model
from repro.exceptions import ConvergenceError, FitError
from repro.fitting.least_squares import fit_least_squares, fit_many
from repro.fitting.options import EngineOptions
from repro.models.base import ResilienceModel
from repro.models.competing_risks import CompetingRisksResilienceModel
from repro.models.mixture import MixtureResilienceModel
from repro.models.quadratic import QuadraticResilienceModel

#: Engine plumbing for fits that must really solve.
NO_CACHE = EngineOptions(cache=False)


class TestBasicFitting:
    def test_quadratic_exact_recovery(self):
        truth = QuadraticResilienceModel().bind((1.0, -0.03, 0.0008))
        curve = curve_from_model(truth, np.arange(40.0))
        result = fit_least_squares(QuadraticResilienceModel(), curve)
        assert result.sse < 1e-15
        assert result.params == pytest.approx(truth.params, rel=1e-4)

    def test_competing_risks_noiseless_recovery(self):
        truth = CompetingRisksResilienceModel().bind((1.0, 0.2, 0.0006))
        curve = curve_from_model(truth, np.arange(48.0))
        result = fit_least_squares(CompetingRisksResilienceModel(), curve)
        assert result.sse < 1e-10
        assert result.params == pytest.approx(truth.params, rel=1e-2)

    def test_result_fields(self, recession_1990):
        result = fit_least_squares(QuadraticResilienceModel(), recession_1990)
        assert result.converged
        assert result.n_starts >= 1
        assert result.n_failures == 0
        assert result.n_observations == len(recession_1990)
        assert "per_start_sse" in result.details
        assert result.model.is_bound

    def test_residuals_match_predictions(self, recession_1990):
        result = fit_least_squares(QuadraticResilienceModel(), recession_1990)
        expected = recession_1990.performance - result.predict(recession_1990.times)
        np.testing.assert_allclose(result.residuals(), expected)

    def test_deterministic(self, recession_1990):
        a = fit_least_squares(CompetingRisksResilienceModel(), recession_1990)
        b = fit_least_squares(CompetingRisksResilienceModel(), recession_1990)
        assert a.params == b.params


class TestValidationErrors:
    def test_too_few_observations(self):
        curve = ResilienceCurve([0, 1, 2], [1.0, 0.9, 1.0])
        with pytest.raises(FitError, match="cannot fit"):
            fit_least_squares(QuadraticResilienceModel(), curve)

    def test_empty_explicit_starts(self, recession_1990):
        with pytest.raises(FitError, match="empty"):
            fit_least_squares(QuadraticResilienceModel(), recession_1990, starts=[])

    def test_explicit_start_used(self, recession_1990):
        result = fit_least_squares(
            QuadraticResilienceModel(),
            recession_1990,
            starts=[(1.0, -0.001, 0.0001)],
        )
        assert result.n_starts == 1


class TestMultiStartBehaviour:
    def test_more_starts_never_worse(self, recession_2020):
        family = MixtureResilienceModel("wei", "wei")
        few = fit_least_squares(family, recession_2020, n_random_starts=0)
        many = fit_least_squares(family, recession_2020, n_random_starts=12)
        assert many.sse <= few.sse + 1e-12

    def test_out_of_bounds_start_clipped(self, recession_1990):
        result = fit_least_squares(
            QuadraticResilienceModel(),
            recession_1990,
            starts=[(100.0, 5.0, -3.0)],  # all outside the box
        )
        assert np.isfinite(result.sse)


class TestFitMany:
    def test_returns_all_families(self, recession_1990):
        families = [QuadraticResilienceModel(), CompetingRisksResilienceModel()]
        results = fit_many(families, recession_1990)
        assert set(results) == {"quadratic", "competing_risks"}
        for result in results.values():
            assert result.sse < 0.01


class _PocketModel(ResilienceModel):
    """Linear model whose evaluation is NaN for a > 5 — a non-finite
    pocket the optimizer must escape from."""

    name = "pocket"

    @property
    def param_names(self):
        return ("a",)

    @property
    def lower_bounds(self):
        return (0.0,)

    @property
    def upper_bounds(self):
        return (10.0,)

    def evaluate(self, times, params):
        t = self._as_times(times)
        (a,) = params
        if a > 5.0:
            return np.full_like(t, np.nan)
        return a * t

    def initial_guesses(self, curve):
        return [(8.0,)]


class TestNonFinitePenalty:
    def test_optimizer_escapes_nan_pocket(self):
        """The smooth ‖θ‖-dependent penalty restores a slope inside the
        pocket; a flat 1e6 clamp would leave the solver stranded at the
        start with zero gradient."""
        curve = ResilienceCurve(np.arange(1.0, 11.0), 2.0 * np.arange(1.0, 11.0))
        result = fit_least_squares(
            _PocketModel(), curve, starts=[(8.0,)], options=NO_CACHE
        )
        assert result.params == pytest.approx((2.0,), rel=1e-6)
        assert result.sse < 1e-12


class TestJacobianModes:
    def test_modes_reach_the_same_optimum(self, recession_1990):
        family = MixtureResilienceModel("wei", "exp")
        analytic = fit_least_squares(
            family, recession_1990, jac="analytic", options=NO_CACHE
        )
        numeric = fit_least_squares(
            family, recession_1990, jac="2-point", options=NO_CACHE
        )
        assert analytic.sse == pytest.approx(numeric.sse, rel=1e-6)
        assert analytic.details["jac_mode"] == "analytic"
        assert numeric.details["jac_mode"] == "2-point"

    def test_auto_resolves_by_family(self, recession_1990):
        mixture = fit_least_squares(
            MixtureResilienceModel("wei", "exp"), recession_1990, options=NO_CACHE
        )
        assert mixture.details["jac_mode"] == "analytic"

    def test_analytic_counts_jacobian_evals(self, recession_1990):
        result = fit_least_squares(
            QuadraticResilienceModel(), recession_1990, jac="analytic",
            options=NO_CACHE,
        )
        assert result.details["njev"] > 0
        assert result.details["nfev"] == sum(result.details["per_start_nfev"])

    def test_analytic_spends_fewer_residual_evals(self, recession_1990):
        family = MixtureResilienceModel("wei", "exp")
        analytic = fit_least_squares(
            family, recession_1990, jac="analytic", options=NO_CACHE
        )
        numeric = fit_least_squares(
            family, recession_1990, jac="2-point", options=NO_CACHE
        )
        assert analytic.details["nfev"] < numeric.details["nfev"]

    def test_analytic_on_fallback_family_raises(self, recession_1990):
        from repro.models.segmented import SegmentedBathtubModel

        family = SegmentedBathtubModel()
        if family.has_analytic_jacobian:  # pragma: no cover - future-proof
            pytest.skip("segmented model grew a closed form")
        with pytest.raises(FitError, match="no analytic Jacobian"):
            fit_least_squares(family, recession_1990, jac="analytic")

    def test_unknown_mode_raises(self, recession_1990):
        with pytest.raises(FitError, match="jac must be one of"):
            fit_least_squares(
                QuadraticResilienceModel(), recession_1990, jac="3-point"
            )


class TestExtraStarts:
    def test_extra_start_prepended_and_deduped(self, recession_1990):
        family = QuadraticResilienceModel()
        base = fit_least_squares(family, recession_1990, options=NO_CACHE)
        # Perturb the warm start so it cannot collide with a heuristic
        # seed (the quadratic's polyfit seed IS the optimum, and the
        # winner-selection band returns it verbatim).
        extra = tuple(p + 1e-3 for p in base.model.params)
        warm = fit_least_squares(
            family,
            recession_1990,
            extra_starts=[extra, extra],
            n_random_starts=0,
            options=NO_CACHE,
        )
        cold = fit_least_squares(
            family, recession_1990, n_random_starts=0, options=NO_CACHE
        )
        assert warm.n_starts == cold.n_starts + 1  # one extra after dedup
        assert warm.sse <= cold.sse + 1e-12

    def test_extra_start_clipped_to_bounds(self, recession_1990):
        result = fit_least_squares(
            QuadraticResilienceModel(),
            recession_1990,
            extra_starts=[(100.0, 5.0, -3.0)],
            options=NO_CACHE,
        )
        assert np.isfinite(result.sse)

    def test_wrong_length_raises(self, recession_1990):
        with pytest.raises(FitError, match="extra start"):
            fit_least_squares(
                QuadraticResilienceModel(),
                recession_1990,
                extra_starts=[(1.0,)],
            )
