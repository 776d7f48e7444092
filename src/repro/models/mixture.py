"""Mixture-distribution resilience model — Section II-B, Eq. (7).

``P(t) = a₁(t)·(1 − F₁(t)) + a₂(t)·F₂(t)``

``F₁`` is the degradation CDF (its survival function carries the
initial performance down), ``F₂`` the recovery CDF, and ``a₂(t)`` a
one-parameter transition trend (:mod:`repro.models.trends`). Following
the paper's experiments, ``a₁(t) = 1`` is held constant.

The family is configured by distribution names, so the paper's four
pairings are::

    MixtureResilienceModel("exp", "exp")   # Exp-Exp
    MixtureResilienceModel("wei", "exp")   # Wei-Exp
    MixtureResilienceModel("exp", "wei")   # Exp-Wei
    MixtureResilienceModel("wei", "wei")   # Wei-Wei

with the default ``trend="log"`` (the β·ln t form used for Table III).
Any registered lifetime distribution may be substituted.
"""

from __future__ import annotations

from typing import Type

import numpy as np

from repro._typing import ArrayLike, FloatArray
from repro.core.curve import ResilienceCurve
from repro.distributions.base import LifetimeDistribution
from repro.distributions.exponential import Exponential
from repro.distributions.registry import get_distribution_class
from repro.distributions.weibull import Weibull
from repro.models.base import ResilienceModel
from repro.models.trends import TransitionTrend, get_trend_class

__all__ = ["MixtureResilienceModel"]

#: Abbreviations used in the paper's model labels.
_ABBREVIATIONS = {"exponential": "exp", "weibull": "wei"}


def _abbreviate(name: str) -> str:
    return _ABBREVIATIONS.get(name, name)


class MixtureResilienceModel(ResilienceModel):
    """Mixture of a degradation and a recovery distribution.

    Parameters
    ----------
    degradation:
        Registry name of ``F₁`` (e.g. ``"weibull"`` or its alias
        ``"wei"``).
    recovery:
        Registry name of ``F₂``.
    trend:
        Registry name of the recovery trend ``a₂``; default ``"log"``
        (``β·ln t``) as in the paper's Table III.

    Notes
    -----
    The flat parameter vector is the concatenation of the degradation
    distribution's parameters (prefixed ``d_``), the recovery
    distribution's (prefixed ``r_``), and the trend coefficient
    ``beta``.
    """

    def __init__(
        self,
        degradation: str = "weibull",
        recovery: str = "exponential",
        trend: str = "log",
    ) -> None:
        super().__init__()
        self._f1_class: Type[LifetimeDistribution] = get_distribution_class(degradation)
        self._f2_class: Type[LifetimeDistribution] = get_distribution_class(recovery)
        self._trend_class: Type[TransitionTrend] = get_trend_class(trend)
        self.name = (
            f"{_abbreviate(self._f1_class.name)}-{_abbreviate(self._f2_class.name)}"
        )
        if self._trend_class.name != "log":
            self.name += f"({self._trend_class.name})"

    # ------------------------------------------------------------------
    # Family metadata
    # ------------------------------------------------------------------
    @property
    def degradation_class(self) -> Type[LifetimeDistribution]:
        """The degradation CDF family ``F₁``."""
        return self._f1_class

    @property
    def recovery_class(self) -> Type[LifetimeDistribution]:
        """The recovery CDF family ``F₂``."""
        return self._f2_class

    @property
    def trend_class(self) -> Type[TransitionTrend]:
        """The recovery transition trend family ``a₂``."""
        return self._trend_class

    @property
    def param_names(self) -> tuple[str, ...]:
        return (
            tuple(f"d_{n}" for n in self._f1_class.param_names)
            + tuple(f"r_{n}" for n in self._f2_class.param_names)
            + ("beta",)
        )

    @property
    def lower_bounds(self) -> tuple[float, ...]:
        return (
            self._f1_class.param_lower_bounds
            + self._f2_class.param_lower_bounds
            + (self._trend_class.beta_lower_bound,)
        )

    @property
    def upper_bounds(self) -> tuple[float, ...]:
        return (
            self._f1_class.param_upper_bounds
            + self._f2_class.param_upper_bounds
            + (self._trend_class.beta_upper_bound,)
        )

    def _split_batch(
        self, params: FloatArray
    ) -> tuple[FloatArray, FloatArray, FloatArray]:
        p = np.asarray(params, dtype=np.float64)
        n1 = self._f1_class.n_params()
        n2 = self._f2_class.n_params()
        return p[:, :n1], p[:, n1 : n1 + n2], p[:, n1 + n2]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _terms_batch(
        self, times: FloatArray, params: FloatArray
    ) -> tuple[FloatArray, FloatArray]:
        """Stacked degradation ``a₁(1 − F₁)`` and recovery ``a₂F₂`` terms."""
        t = np.asarray(times, dtype=np.float64)
        p1, p2, beta = self._split_batch(params)
        degradation = 1.0 - self._f1_class.cdf_batch(t, p1)
        trend = self._trend_class.value_batch(t, beta)
        return degradation, trend * self._f2_class.cdf_batch(t, p2)

    def evaluate_batch(self, times: FloatArray, params: FloatArray) -> FloatArray:
        """Eq. (7) over a stack of problems in one vectorized pass."""
        degradation, recovery = self._terms_batch(times, params)
        return degradation + recovery

    @property
    def has_analytic_jacobian(self) -> bool:
        """Closed form whenever both component CDFs expose analytic
        parameter gradients (Exp and Weibull do — the paper's four
        pairings all qualify, under every trend)."""
        return (
            self._f1_class.has_cdf_gradient() and self._f2_class.has_cdf_gradient()
        )

    def prediction_jacobian_batch(
        self, times: FloatArray, params: FloatArray
    ) -> FloatArray:
        """Eq. (7) parameter derivatives, column-blocked by component:

        ``∂P/∂p₁ = −∂F₁/∂p₁``, ``∂P/∂p₂ = a₂(t)·∂F₂/∂p₂``, and
        ``∂P/∂β = (∂a₂/∂β)·F₂(t)``.
        """
        if not self.has_analytic_jacobian:
            return super().prediction_jacobian_batch(times, params)
        t = np.asarray(times, dtype=np.float64)
        p1, p2, beta = self._split_batch(params)
        trend = self._trend_class.value_batch(t, beta)
        return np.concatenate(
            [
                -self._f1_class.cdf_gradient_batch(t, p1),
                trend[:, :, np.newaxis] * self._f2_class.cdf_gradient_batch(t, p2),
                (
                    self._trend_class.beta_gradient_batch(t, beta)
                    * self._f2_class.cdf_batch(t, p2)
                )[:, :, np.newaxis],
            ],
            axis=2,
        )

    def components(
        self, times: ArrayLike
    ) -> tuple[FloatArray, FloatArray]:
        """Degradation and recovery components of the bound model.

        Returns ``(a₁(t)(1 − F₁(t)), a₂(t)F₂(t))`` separately, useful
        for plotting and for diagnosing which component dominates.
        """
        t = self._as_times(times)
        x = np.asarray(self.params, dtype=np.float64)
        degradation, recovery = self._terms_batch(t[np.newaxis], x[np.newaxis])
        return degradation[0], recovery[0]

    # ------------------------------------------------------------------
    # Initial guesses
    # ------------------------------------------------------------------
    def initial_guesses(self, curve: ResilienceCurve) -> list[tuple[float, ...]]:
        """Seeds built from the curve's trough timing and end level.

        The degradation scale is seeded at the trough time (so the
        survival term has largely decayed by the trough) and the
        recovery scale at both the trough time and the remaining window
        (fast/slow recovery hypotheses). Shape parameters, where the
        distribution has them, start at 1 and 2.
        """
        t = curve.times
        trough_t = max(curve.trough_time - float(t[0]), 1.0)
        window = max(curve.duration, 2.0)
        beta0 = self._trend_class.default_beta(curve.final_performance, window)

        degradation_scales = (trough_t, 0.5 * trough_t)
        recovery_scales = (trough_t, max(window - trough_t, 1.0))
        shape_seeds = (1.0, 2.0)

        guesses: list[tuple[float, ...]] = []
        for d_scale in degradation_scales:
            for r_scale in recovery_scales:
                for shape in shape_seeds:
                    p1 = self._seed_distribution(self._f1_class, d_scale, shape)
                    p2 = self._seed_distribution(self._f2_class, r_scale, shape)
                    guess = p1 + p2 + (beta0,)
                    clipped = tuple(
                        float(np.clip(v, lo, hi))
                        for v, lo, hi in zip(guess, self.lower_bounds, self.upper_bounds)
                    )
                    if clipped not in guesses:
                        guesses.append(clipped)
        return guesses

    @staticmethod
    def _seed_distribution(
        cls: Type[LifetimeDistribution], scale: float, shape: float
    ) -> tuple[float, ...]:
        """Map a (scale, shape) pair onto a distribution's parameters."""
        if cls is Exponential:
            return (scale,)
        if cls is Weibull:
            return (scale, shape)
        seeds: list[float] = []
        for name in cls.param_names:
            if name in ("theta", "alpha"):
                seeds.append(scale)
            elif name == "mu":
                seeds.append(float(np.log(max(scale, 1e-6))))
            elif name in ("k", "beta", "sigma", "b"):
                seeds.append(shape)
            else:
                seeds.append(1.0)
        return tuple(seeds)
