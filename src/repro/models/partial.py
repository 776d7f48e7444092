"""Partial-degradation mixture — an L/K-shape extension of Eq. (7).

The paper's mixture holds the degradation transition at ``a₁(t) = 1``
"for simplicity", which forces the survival term to carry performance
all the way to zero as ``F₁ → 1``. Real L-shaped events (the 2020-21
recession, a partial outage) knock performance down by a *fraction* and
then plateau. Generalizing ``a₁`` to a partial-amplitude form gives

    P(t) = 1 − w·F₁(t) + a₂(t)·F₂(t)

where ``w ∈ (0, 1]`` is the fraction of nominal performance destroyed
by the disruption (``w = 1`` recovers the paper's model up to the
constant). A fast Weibull ``F₁`` makes the drop nearly instantaneous —
exactly the "sudden drop in performance" the paper identifies as
unfittable by its two families.
"""

from __future__ import annotations

import numpy as np

from repro._typing import FloatArray
from repro.core.curve import ResilienceCurve
from repro.models.base import ResilienceModel
from repro.models.mixture import MixtureResilienceModel

__all__ = ["PartialDegradationMixtureModel"]


class PartialDegradationMixtureModel(MixtureResilienceModel):
    """Mixture with a fitted degradation amplitude ``w``.

    Parameters are the same as :class:`MixtureResilienceModel` plus a
    trailing ``w`` (degradation amplitude).
    """

    def __init__(
        self,
        degradation: str = "weibull",
        recovery: str = "exponential",
        trend: str = "log",
    ) -> None:
        super().__init__(degradation, recovery, trend)
        self.name = f"partial-{self.name}"

    @property
    def param_names(self) -> tuple[str, ...]:
        return super().param_names + ("w",)

    @property
    def lower_bounds(self) -> tuple[float, ...]:
        return super().lower_bounds + (1e-3,)

    @property
    def upper_bounds(self) -> tuple[float, ...]:
        return super().upper_bounds + (1.0,)

    def _terms_batch(
        self, times: FloatArray, params: FloatArray
    ) -> tuple[FloatArray, FloatArray]:
        """Stacked degradation ``1 − w·F₁`` and recovery ``a₂F₂`` terms."""
        t = np.asarray(times, dtype=np.float64)
        p = np.asarray(params, dtype=np.float64)
        p1, p2, beta = self._split_batch(p)
        degradation = 1.0 - p[:, -1:] * self.degradation_class.cdf_batch(t, p1)
        trend = self.trend_class.value_batch(t, beta)
        return degradation, trend * self.recovery_class.cdf_batch(t, p2)

    def prediction_jacobian_batch(
        self, times: FloatArray, params: FloatArray
    ) -> FloatArray:
        """The mixture's closed form with the ``F₁`` block scaled by
        ``w`` and a trailing ``∂P/∂w = −F₁(t)`` column."""
        if not self.has_analytic_jacobian:
            return ResilienceModel.prediction_jacobian_batch(self, times, params)
        t = np.asarray(times, dtype=np.float64)
        p = np.asarray(params, dtype=np.float64)
        p1, p2, beta = self._split_batch(p)
        w = p[:, -1:, np.newaxis]
        trend = self.trend_class.value_batch(t, beta)
        return np.concatenate(
            [
                -w * self.degradation_class.cdf_gradient_batch(t, p1),
                trend[:, :, np.newaxis] * self.recovery_class.cdf_gradient_batch(t, p2),
                (
                    self.trend_class.beta_gradient_batch(t, beta)
                    * self.recovery_class.cdf_batch(t, p2)
                )[:, :, np.newaxis],
                -self.degradation_class.cdf_batch(t, p1)[:, :, np.newaxis],
            ],
            axis=2,
        )

    def initial_guesses(self, curve: ResilienceCurve) -> list[tuple[float, ...]]:
        """The mixture's seeds, extended with amplitude candidates.

        ``w`` is seeded at the observed degradation depth (the natural
        estimate for a plateauing L) and at 1.0 (the paper's original
        model as a fallback). The degradation scale is additionally
        seeded at the trough time so a sharp drop starts sharp.
        """
        depth = min(max(curve.degradation_depth / max(curve.nominal, 1e-12), 1e-3), 1.0)
        base = super().initial_guesses(curve)
        guesses: list[tuple[float, ...]] = []
        for mixture_guess in base:
            for w0 in (depth, 1.0):
                guess = mixture_guess + (w0,)
                if guess not in guesses:
                    guesses.append(guess)
        return guesses
