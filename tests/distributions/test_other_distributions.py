"""Tests for the Gamma, Lognormal, Gompertz, and LogLogistic extensions."""

import math

import numpy as np
import pytest

from repro.distributions import Gamma, Gompertz, LogLogistic, Lognormal
from repro.exceptions import ParameterError


class TestGamma:
    def test_mean_variance(self):
        dist = Gamma(k=3.0, theta=2.0)
        assert dist.mean() == 6.0
        assert dist.variance() == 12.0

    def test_shape_one_is_exponential(self):
        from repro.distributions import Exponential

        gamma = Gamma(1.0, 2.5)
        expo = Exponential(2.5)
        t = np.linspace(0.0, 10.0, 20)
        np.testing.assert_allclose(gamma.cdf(t), expo.cdf(t), atol=1e-10)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            Gamma(0.0, 1.0)

    def test_pdf_bit_equal_to_scipy_stats(self):
        """The pdf repeats scipy.stats.gamma.pdf's formula through
        scipy.special, bit for bit, across shapes and scales from 1e-3
        to 1e3 (t = 0 included)."""
        from scipy import stats

        rng = np.random.default_rng(0)
        log_range = (math.log(1e-3), math.log(1e3))
        for _ in range(1000):
            k, theta = np.exp(rng.uniform(*log_range, size=2))
            t = np.concatenate([[0.0], rng.uniform(0.0, 5.0 * k * theta, 101)])
            ours = Gamma(k, theta).pdf(t)
            reference = stats.gamma.pdf(t, a=k, scale=theta)
            np.testing.assert_array_equal(ours.view(np.int64), reference.view(np.int64))


class TestLognormal:
    def test_median_is_exp_mu(self):
        assert Lognormal(1.2, 0.5).median() == pytest.approx(math.exp(1.2))

    def test_mean_closed_form(self):
        dist = Lognormal(0.0, 1.0)
        assert dist.mean() == pytest.approx(math.exp(0.5))

    def test_mu_may_be_negative(self):
        dist = Lognormal(-2.0, 0.5)
        assert dist.median() == pytest.approx(math.exp(-2.0))

    def test_sigma_must_be_positive(self):
        with pytest.raises(ParameterError):
            Lognormal(0.0, 0.0)


class TestGompertz:
    def test_hazard_exponential_growth(self):
        dist = Gompertz(a=0.1, b=0.5)
        t = np.array([0.0, 1.0, 2.0])
        expected = 0.1 * np.exp(0.5 * t)
        np.testing.assert_allclose(dist.hazard(t), expected)

    def test_quantile_closed_form_roundtrip(self):
        dist = Gompertz(0.05, 0.3)
        p = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(dist.cdf(dist.quantile(p)), p, atol=1e-10)


class TestLogLogistic:
    def test_median_is_alpha(self):
        assert LogLogistic(4.0, 2.0).median() == pytest.approx(4.0)

    def test_mean_defined_above_one(self):
        dist = LogLogistic(2.0, 3.0)
        expected = 2.0 * (math.pi / 3.0) / math.sin(math.pi / 3.0)
        assert dist.mean() == pytest.approx(expected)

    def test_mean_undefined_at_or_below_one(self):
        with pytest.raises(ValueError, match="undefined"):
            LogLogistic(2.0, 1.0).mean()

    def test_unimodal_hazard_for_large_shape(self):
        dist = LogLogistic(2.0, 3.0)
        t = np.linspace(0.1, 20.0, 200)
        hazard = dist.hazard(t)
        peak = int(np.argmax(hazard))
        assert 0 < peak < t.size - 1
