"""Tests specific to the Weibull distribution."""

import math

import numpy as np
import pytest

from repro.distributions import Weibull
from repro.exceptions import ParameterError


class TestConstruction:
    @pytest.mark.parametrize("theta,k", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0)])
    def test_invalid_params_rejected(self, theta, k):
        with pytest.raises(ParameterError):
            Weibull(theta, k)

    def test_from_vector_order(self):
        dist = Weibull.from_vector([2.0, 3.0])
        assert dist.theta == 2.0 and dist.k == 3.0

    def test_from_vector_wrong_length(self):
        with pytest.raises(ParameterError, match="expects 2"):
            Weibull.from_vector([1.0])


class TestShapeRegimes:
    def test_decreasing_hazard_below_one(self):
        dist = Weibull(2.0, 0.5)
        t = np.array([0.5, 1.0, 2.0, 4.0])
        assert (np.diff(dist.hazard(t)) < 0).all()

    def test_increasing_hazard_above_one(self):
        dist = Weibull(2.0, 2.5)
        t = np.array([0.5, 1.0, 2.0, 4.0])
        assert (np.diff(dist.hazard(t)) > 0).all()

    def test_pdf_at_zero_infinite_for_small_shape(self):
        assert float(Weibull(1.0, 0.5).pdf([0.0])[0]) == np.inf

    def test_pdf_at_zero_for_shape_one(self):
        assert float(Weibull(2.0, 1.0).pdf([0.0])[0]) == pytest.approx(0.5)

    def test_pdf_at_zero_for_large_shape(self):
        assert float(Weibull(1.0, 2.0).pdf([0.0])[0]) == 0.0


class TestMoments:
    def test_mean_closed_form(self):
        dist = Weibull(2.0, 2.0)
        assert dist.mean() == pytest.approx(2.0 * math.gamma(1.5))

    def test_variance_positive(self):
        assert Weibull(3.0, 1.7).variance() > 0.0

    def test_median(self):
        dist = Weibull(2.0, 3.0)
        assert float(dist.cdf([dist.median()])[0]) == pytest.approx(0.5)


class TestScaling:
    def test_theta_is_scale(self):
        """F(t; θ, k) = F(t/θ; 1, k): θ rescales time."""
        base = Weibull(1.0, 2.0)
        scaled = Weibull(5.0, 2.0)
        t = np.linspace(0.1, 10.0, 20)
        np.testing.assert_allclose(scaled.cdf(t), base.cdf(t / 5.0), atol=1e-12)


class TestBatchStacking:
    @pytest.mark.parametrize("k", [2.0, 0.5, -1.0, 1.7])
    def test_row_does_not_depend_on_its_stack(self, k):
        """A row of ``cdf_batch``/``cdf_gradient_batch`` is the same
        alone and stacked under another row, also for the shapes numpy
        would square, root or invert by a shortcut."""
        times = np.arange(18.0)
        row = np.array([[6.0, k]])
        stack = np.array([[6.0, k], [3.0, 1.3]])
        pair = np.vstack([times, times])
        with np.errstate(all="ignore"):
            assert np.array_equal(
                Weibull.cdf_batch(times[None, :], row)[0],
                Weibull.cdf_batch(pair, stack)[0],
                equal_nan=True,
            )
            assert np.array_equal(
                Weibull.cdf_gradient_batch(times[None, :], row)[0],
                Weibull.cdf_gradient_batch(pair, stack)[0],
                equal_nan=True,
            )
