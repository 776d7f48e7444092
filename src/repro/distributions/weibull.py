"""Weibull lifetime distribution (Eq. 23 of the paper).

``F(t) = 1 − exp(−(t/θ)^k)``. Shape ``k`` controls whether the hazard
is decreasing (k < 1), constant (k = 1, exponential), or increasing
(k > 1) — the flexibility that makes the Wei-Exp, Exp-Wei, and Wei-Wei
mixtures outperform Exp-Exp in Table III.
"""

from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from repro._typing import ArrayLike, FloatArray
from repro.distributions.base import LifetimeDistribution
from repro.utils.numerics import as_float_array, safe_exp

__all__ = ["Weibull"]

#: Shapes numpy raises by a shortcut when the exponent is one scalar.
_SHORTCUT_SHAPES = frozenset({2.0, 0.5, -1.0})


class Weibull(LifetimeDistribution):
    """Weibull distribution with scale ``theta`` and shape ``k``."""

    name: ClassVar[str] = "weibull"
    param_names: ClassVar[tuple[str, ...]] = ("theta", "k")
    param_lower_bounds: ClassVar[tuple[float, ...]] = (1e-8, 1e-3)
    param_upper_bounds: ClassVar[tuple[float, ...]] = (1e8, 50.0)

    def __init__(self, theta: float, k: float) -> None:
        super().__init__()
        self.theta = self._require_positive("theta", theta)
        self.k = self._require_positive("k", k)

    def _z(self, t: FloatArray) -> FloatArray:
        """Standardized variable ``(t/θ)^k`` with t clipped to ≥ 0.

        Overflow to ``inf`` is deliberate: it propagates to cdf = 1 /
        sf = 0 through ``expm1``/``safe_exp`` exactly as the limit
        demands, so the warning is suppressed rather than guarded.
        """
        scaled = np.maximum(t, 0.0) / self.theta
        with np.errstate(divide="ignore", over="ignore"):
            return np.power(scaled, self.k)

    def pdf(self, times: ArrayLike) -> FloatArray:
        t = as_float_array(times, "times")
        z = self._z(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.maximum(t, 0.0) / self.theta
            # (k/θ) z^{(k−1)/k} e^{−z}; write via scaled^(k−1) for stability.
            density = (self.k / self.theta) * np.power(scaled, self.k - 1.0) * safe_exp(-z)
        density = np.where(t < 0.0, 0.0, density)
        if self.k < 1.0:
            density = np.where(t == 0.0, np.inf, density)
        elif self.k == 1.0:
            density = np.where(t == 0.0, 1.0 / self.theta, density)
        else:
            density = np.where(t == 0.0, 0.0, density)
        return density

    def cdf(self, times: ArrayLike) -> FloatArray:
        t = as_float_array(times, "times")
        return np.where(t < 0.0, 0.0, -np.expm1(-self._z(t)))

    def sf(self, times: ArrayLike) -> FloatArray:
        t = as_float_array(times, "times")
        return np.where(t < 0.0, 1.0, safe_exp(-self._z(t)))

    def cumulative_hazard(self, times: ArrayLike) -> FloatArray:
        t = as_float_array(times, "times")
        return self._z(t)

    @classmethod
    def cdf_batch(cls, times: FloatArray, params: FloatArray) -> FloatArray:
        """Stacked CDF: row ``b`` is ``Weibull(*params[b]).cdf(times[b])``.

        *times* has shape ``(B, n)``, *params* shape ``(B, 2)`` in the
        canonical ``(theta, k)`` order.
        """
        t = np.asarray(times, dtype=np.float64)
        _, z = cls._z_batch(t, np.asarray(params, dtype=np.float64))
        return np.where(t < 0.0, 0.0, -np.expm1(-z))

    @classmethod
    def cdf_gradient_batch(cls, times: FloatArray, params: FloatArray) -> FloatArray:
        """``(∂F/∂θ, ∂F/∂k) = (−(k/θ)·z·e^{−z}, ln(t/θ)·z·e^{−z})`` of
        each row, shape ``(B, n, 2)``.

        Both derivatives share the factor ``z·e^{−z}`` which vanishes in
        either tail (z → 0 and z → ∞), so the gradient is zeroed where
        ``z`` overflows and at ``t ≤ 0``.
        """
        t = np.asarray(times, dtype=np.float64)
        p = np.asarray(params, dtype=np.float64)
        scaled, z = cls._z_batch(t, p)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            decay = np.where(np.isfinite(z), z * safe_exp(-z), 0.0)
            log_scaled = np.log(np.where(scaled > 0.0, scaled, 1.0))
            gradient = np.stack(
                [-(p[:, 1:2] / p[:, :1]) * decay, log_scaled * decay], axis=2
            )
        return np.where((t > 0.0)[:, :, np.newaxis], gradient, 0.0)

    @staticmethod
    def _z_batch(t: FloatArray, params: FloatArray) -> tuple[FloatArray, FloatArray]:
        """Each row's ``t/θ`` (t clipped to ≥ 0) and ``(t/θ)^k``, rounded
        as :meth:`_z` rounds them.

        Every row gets a full-shape exponent, which goes through ``pow``
        whatever the stack's height, so a row's value does not depend on
        its neighbours. A scalar exponent of exactly 2, 0.5 or -1 — what
        :meth:`_z` passes for such a shape — takes numpy's square, sqrt
        or reciprocal shortcut instead, which rounds differently now and
        then; rows with those shapes are raised with their own scalar
        exponent, so every row equals the scalar CDF.
        """
        with np.errstate(divide="ignore", over="ignore"):
            scaled = np.maximum(t, 0.0) / params[:, :1]
            z = np.power(scaled, np.repeat(params[:, 1:2], t.shape[1], axis=1))
            shapes = params[:, 1].tolist()
            if not _SHORTCUT_SHAPES.isdisjoint(shapes):
                for row, shape in enumerate(shapes):
                    if shape in _SHORTCUT_SHAPES:
                        z[row] = np.power(scaled[row], shape)
        return scaled, z

    def quantile(self, probabilities: ArrayLike) -> FloatArray:
        probs = as_float_array(probabilities, "probabilities")
        if np.any((probs < 0.0) | (probs >= 1.0)):
            raise ValueError("probabilities must lie in [0, 1)")
        # -log1p(-p) >= 0 for the validated p in [0, 1) and 1/k > 0, so
        # the power is total here.
        return self.theta * np.power(-np.log1p(-probs), 1.0 / self.k)  # repro-lint: disable=R9

    def mean(self) -> float:
        return self.theta * math.gamma(1.0 + 1.0 / self.k)

    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.k)
        g2 = math.gamma(1.0 + 2.0 / self.k)
        return self.theta * self.theta * (g2 - g1 * g1)

    def median(self) -> float:
        return self.theta * math.log(2.0) ** (1.0 / self.k)
