"""Tests for parameter uncertainty (Gauss-Newton covariance)."""

import numpy as np
import pytest
from scipy import stats

from repro.datasets.synthetic import curve_from_model
from repro.exceptions import FitError
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.uncertainty import (
    ParameterUncertainty,
    parameter_uncertainty,
)
from repro.models.quadratic import QuadraticResilienceModel

_TIMES = np.arange(48.0)
_TRUTH = (1.0, -0.03, 0.0008)


@pytest.fixture(scope="module")
def noisy_fit():
    truth = QuadraticResilienceModel().bind(_TRUTH)
    curve = curve_from_model(truth, _TIMES, noise_std=0.002, seed=7)
    return fit_least_squares(QuadraticResilienceModel(), curve)


class TestParameterUncertainty:
    def test_std_errors_positive_and_keyed(self, noisy_fit):
        uncertainty = parameter_uncertainty(noisy_fit)
        assert set(uncertainty.std_errors) == {"alpha", "beta", "gamma"}
        assert all(v > 0.0 for v in uncertainty.std_errors.values())

    def test_sigma2_matches_definition(self, noisy_fit):
        uncertainty = parameter_uncertainty(noisy_fit)
        n, m = len(noisy_fit.curve), noisy_fit.model.n_params
        assert uncertainty.sigma2 == pytest.approx(noisy_fit.sse / (n - m))

    def test_covariance_symmetric_psd(self, noisy_fit):
        cov = parameter_uncertainty(noisy_fit).covariance
        np.testing.assert_allclose(cov, cov.T, atol=1e-15)
        eigenvalues = np.linalg.eigvalsh(cov)
        assert (eigenvalues > -1e-12).all()

    def test_correlation_diagonal_ones(self, noisy_fit):
        corr = parameter_uncertainty(noisy_fit).correlation()
        np.testing.assert_allclose(np.diag(corr), 1.0)
        assert (np.abs(corr) <= 1.0 + 1e-9).all()

    def test_truth_within_3_sigma(self, noisy_fit):
        """Sanity calibration: the generating parameters should lie
        within a few standard errors of the estimates."""
        uncertainty = parameter_uncertainty(noisy_fit)
        for name, true_value in zip(("alpha", "beta", "gamma"), _TRUTH):
            estimate = noisy_fit.model.param_dict[name]
            std = uncertainty.std_errors[name]
            assert abs(estimate - true_value) < 4.0 * std, name

    def test_parameter_confidence_intervals(self, noisy_fit):
        uncertainty = parameter_uncertainty(noisy_fit)
        intervals = uncertainty.confidence_intervals(
            noisy_fit.model.param_names, noisy_fit.model.params
        )
        for name, (lo, hi) in intervals.items():
            assert lo < noisy_fit.model.param_dict[name] < hi

    def test_z_bit_equal_to_norm_ppf_without_its_dispatch(self, monkeypatch):
        levels = [*np.linspace(0.001, 0.999, 999), 0.95, 0.975, 1.0 - 1e-9]
        expected = [float(stats.norm.ppf(0.5 + c / 2.0)) for c in levels]

        def generic_ppf(*args, **kwargs):
            raise AssertionError("z went through stats.norm.ppf")

        monkeypatch.setattr(stats.norm, "ppf", generic_ppf)
        unit = ParameterUncertainty(
            covariance=np.eye(1), std_errors={"a": 1.0}, sigma2=1.0
        )
        got = [
            unit.confidence_intervals(("a",), (0.0,), confidence=c)["a"][1]
            for c in levels
        ]
        assert got == expected

    def test_no_degrees_of_freedom(self):
        from dataclasses import replace

        truth = QuadraticResilienceModel().bind(_TRUTH)
        curve = curve_from_model(truth, np.arange(4.0), noise_std=0.001, seed=1)
        fit = fit_least_squares(QuadraticResilienceModel(), curve, n_random_starts=0)
        shrunk = replace(fit, curve=curve.head(3))  # n == m
        with pytest.raises(FitError, match="degrees of freedom"):
            parameter_uncertainty(shrunk)
