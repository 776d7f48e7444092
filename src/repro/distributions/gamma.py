"""Gamma lifetime distribution (extension beyond the paper's pairings)."""

from __future__ import annotations

from typing import ClassVar

import numpy as np
from scipy import special

from repro._typing import ArrayLike, FloatArray
from repro.distributions.base import LifetimeDistribution
from repro.utils.numerics import as_float_array

__all__ = ["Gamma"]


class Gamma(LifetimeDistribution):
    """Gamma distribution with shape ``k`` and scale ``theta``.

    ``F(t) = γ(k, t/θ) / Γ(k)`` (regularized lower incomplete gamma).
    """

    name: ClassVar[str] = "gamma"
    param_names: ClassVar[tuple[str, ...]] = ("k", "theta")
    param_lower_bounds: ClassVar[tuple[float, ...]] = (1e-3, 1e-8)
    param_upper_bounds: ClassVar[tuple[float, ...]] = (1e3, 1e8)

    def __init__(self, k: float, theta: float) -> None:
        super().__init__()
        self.k = self._require_positive("k", k)
        self.theta = self._require_positive("theta", theta)

    def pdf(self, times: ArrayLike) -> FloatArray:
        # scipy.stats.gamma.pdf's own formula, without importing
        # scipy.stats: exp((k−1)·log x − x − ln Γ(k)) / θ at x = t/θ.
        t = as_float_array(times, "times")
        x = np.maximum(t, 0.0) / self.theta
        log_density = special.xlogy(self.k - 1.0, x) - x - special.gammaln(self.k)
        return np.where(t < 0.0, 0.0, np.exp(log_density) / self.theta)

    def cdf(self, times: ArrayLike) -> FloatArray:
        t = as_float_array(times, "times")
        return np.where(
            t < 0.0, 0.0, special.gammainc(self.k, np.maximum(t, 0.0) / self.theta)
        )

    def quantile(self, probabilities: ArrayLike) -> FloatArray:
        probs = as_float_array(probabilities, "probabilities")
        if np.any((probs < 0.0) | (probs >= 1.0)):
            raise ValueError("probabilities must lie in [0, 1)")
        return self.theta * special.gammaincinv(self.k, probs)

    def mean(self) -> float:
        return self.k * self.theta

    def variance(self) -> float:
        return self.k * self.theta * self.theta
