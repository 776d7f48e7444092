"""Tests for confidence intervals and empirical coverage (Eqs. 12-13)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.exceptions import MetricError
from repro.validation.intervals import (
    confidence_band,
    delta_confidence_band,
    empirical_coverage,
    residual_variance,
)


class TestResidualVariance:
    def test_eq12(self):
        assert residual_variance(1.0, 12) == pytest.approx(0.1)

    def test_too_few_observations(self):
        with pytest.raises(MetricError, match="n > 2"):
            residual_variance(1.0, 2)

    def test_negative_sse(self):
        with pytest.raises(MetricError, match="non-negative"):
            residual_variance(-1.0, 10)


class TestConfidenceBand:
    def test_symmetric_around_predictions(self):
        predictions = np.array([1.0, 2.0, 3.0])
        band = confidence_band(predictions, sse_value=0.5, n_observations=12)
        np.testing.assert_allclose(band.upper - band.center, band.center - band.lower)
        np.testing.assert_allclose(band.center, predictions)

    def test_95_percent_critical_value(self):
        band = confidence_band([0.0], sse_value=10.0, n_observations=12)
        sigma = np.sqrt(1.0)
        assert band.half_width == pytest.approx(1.959963985, rel=1e-6)

    def test_width_grows_with_confidence(self):
        wide = confidence_band([0.0], 1.0, 10, confidence=0.99)
        narrow = confidence_band([0.0], 1.0, 10, confidence=0.90)
        assert wide.half_width > narrow.half_width

    def test_invalid_confidence(self):
        with pytest.raises(MetricError):
            confidence_band([0.0], 1.0, 10, confidence=1.0)

    def test_coverage_of(self):
        band = confidence_band([1.0, 1.0, 1.0, 1.0], sse_value=0.08, n_observations=10)
        observations = [1.0, 1.05, 5.0, 1.01]
        assert band.coverage_of(observations) == pytest.approx(0.75)


class TestCriticalValue:
    def test_bit_equal_to_norm_ppf_without_its_dispatch(self, monkeypatch):
        # Every served forecast computes a band, so z must not pay for
        # scipy.stats' generic argument handling (~100 µs a call).
        levels = [*np.linspace(0.001, 0.999, 999), 0.95, 0.975, 1.0 - 1e-9]
        expected = [float(stats.norm.ppf(1.0 - (1.0 - c) / 2.0)) for c in levels]

        def generic_ppf(*args, **kwargs):
            raise AssertionError("critical value went through stats.norm.ppf")

        monkeypatch.setattr(stats.norm, "ppf", generic_ppf)
        # σ = √(SSE/(n − 2)) = 1, so the half width is z itself.
        got = [
            confidence_band([0.0], 10.0, 12, confidence=c).half_width
            for c in levels
        ]
        assert got == expected


class TestDeltaBand:
    def test_differences(self):
        band = delta_confidence_band([1.0, 1.5, 1.2], 0.5, 10)
        np.testing.assert_allclose(band.center, [0.5, -0.3])

    def test_single_prediction_rejected(self):
        with pytest.raises(MetricError, match="two predictions"):
            delta_confidence_band([1.0], 0.5, 10)


class TestEmpiricalCoverage:
    def test_all_inside(self):
        assert empirical_coverage([1, 2], [0, 0], [3, 3]) == 1.0

    def test_none_inside(self):
        assert empirical_coverage([5, 6], [0, 0], [1, 1]) == 0.0

    def test_boundary_counts_as_inside(self):
        assert empirical_coverage([1.0], [1.0], [1.0]) == 1.0

    def test_paper_fraction(self):
        """47 of 48 inside = 97.91% (Table I, 1990-93 competing risks)."""
        observations = np.zeros(48)
        lower = np.full(48, -1.0)
        upper = np.full(48, 1.0)
        observations[0] = 5.0
        assert empirical_coverage(observations, lower, upper) == pytest.approx(
            47 / 48
        )

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            empirical_coverage([1.0], [0.0, 0.0], [2.0, 2.0])

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=30),
        st.floats(0.1, 5.0),
    )
    @settings(max_examples=30)
    def test_coverage_monotone_in_width(self, observations, extra):
        center = np.zeros(len(observations))
        narrow = empirical_coverage(observations, center - 1.0, center + 1.0)
        wide = empirical_coverage(
            observations, center - 1.0 - extra, center + 1.0 + extra
        )
        assert wide >= narrow


class TestCalibration:
    def test_gaussian_noise_calibrated(self):
        """For i.i.d. Gaussian residuals the Eq. (13) band should cover
        ≈ 95% of observations."""
        rng = np.random.default_rng(0)
        n = 4000
        sigma = 0.3
        predictions = np.zeros(n)
        observations = rng.normal(0.0, sigma, size=n)
        sse_value = float(np.sum(observations**2))
        band = confidence_band(predictions, sse_value, n, confidence=0.95)
        assert band.coverage_of(observations) == pytest.approx(0.95, abs=0.015)
