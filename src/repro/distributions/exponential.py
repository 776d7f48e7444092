"""Exponential lifetime distribution.

The paper obtains the exponential as the Weibull with shape k = 1
(Eq. 23). It is the memoryless baseline of the mixture experiments and
the component of the uniformly-poor "Exp-Exp" pairing in Table III.
"""

from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from repro._typing import ArrayLike, FloatArray
from repro.distributions.base import LifetimeDistribution
from repro.utils.numerics import as_float_array, safe_exp

__all__ = ["Exponential"]


class Exponential(LifetimeDistribution):
    """Exponential distribution with scale ``theta`` (mean ``theta``).

    ``F(t) = 1 − exp(−t/θ)`` for ``t ≥ 0``.
    """

    name: ClassVar[str] = "exponential"
    param_names: ClassVar[tuple[str, ...]] = ("theta",)
    param_lower_bounds: ClassVar[tuple[float, ...]] = (1e-8,)
    param_upper_bounds: ClassVar[tuple[float, ...]] = (1e8,)

    def __init__(self, theta: float) -> None:
        super().__init__()
        self.theta = self._require_positive("theta", theta)

    def pdf(self, times: ArrayLike) -> FloatArray:
        t = as_float_array(times, "times")
        density = safe_exp(-t / self.theta) / self.theta
        return np.where(t < 0.0, 0.0, density)

    def cdf(self, times: ArrayLike) -> FloatArray:
        t = as_float_array(times, "times")
        return np.where(t < 0.0, 0.0, -np.expm1(-np.maximum(t, 0.0) / self.theta))

    def sf(self, times: ArrayLike) -> FloatArray:
        t = as_float_array(times, "times")
        return np.where(t < 0.0, 1.0, safe_exp(-np.maximum(t, 0.0) / self.theta))

    @classmethod
    def cdf_batch(cls, times: FloatArray, params: FloatArray) -> FloatArray:
        """Stacked CDF: row ``b`` is ``Exponential(params[b]).cdf(times[b])``.

        *times* has shape ``(B, n)``, *params* shape ``(B, 1)``.
        """
        t = np.asarray(times, dtype=np.float64)
        theta = np.asarray(params, dtype=np.float64)[:, :1]
        with np.errstate(divide="ignore", invalid="ignore"):
            column = -np.expm1(-np.maximum(t, 0.0) / theta)
        return np.where(t < 0.0, 0.0, column)

    @classmethod
    def cdf_gradient_batch(cls, times: FloatArray, params: FloatArray) -> FloatArray:
        """``∂F/∂θ = −(t/θ²)·e^{−t/θ}`` of each row, shape ``(B, n, 1)``."""
        t = np.asarray(times, dtype=np.float64)
        theta = np.asarray(params, dtype=np.float64)[:, :1]
        clipped = np.maximum(t, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            column = -(clipped / (theta * theta)) * safe_exp(-clipped / theta)
        return np.where(t < 0.0, 0.0, column)[:, :, np.newaxis]

    def hazard(self, times: ArrayLike) -> FloatArray:
        t = as_float_array(times, "times")
        return np.where(t < 0.0, 0.0, np.full_like(t, 1.0 / self.theta))

    def cumulative_hazard(self, times: ArrayLike) -> FloatArray:
        t = as_float_array(times, "times")
        return np.maximum(t, 0.0) / self.theta

    def quantile(self, probabilities: ArrayLike) -> FloatArray:
        probs = as_float_array(probabilities, "probabilities")
        if np.any((probs < 0.0) | (probs >= 1.0)):
            raise ValueError("probabilities must lie in [0, 1)")
        return -self.theta * np.log1p(-probs)

    def mean(self) -> float:
        return self.theta

    def variance(self) -> float:
        return self.theta * self.theta

    def median(self) -> float:
        return self.theta * math.log(2.0)
