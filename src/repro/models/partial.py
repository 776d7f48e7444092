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

from typing import Sequence

import numpy as np

from repro._typing import ArrayLike, FloatArray
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

    def _split_partial(
        self, params: Sequence[float]
    ) -> tuple[tuple[float, ...], float]:
        vector = tuple(float(v) for v in params)
        return vector[:-1], vector[-1]

    def evaluate(self, times: ArrayLike, params: Sequence[float]) -> FloatArray:
        t = self._as_times(times)
        mixture_params, w = self._split_partial(params)
        p1, p2, beta = self._split(mixture_params)
        f1 = self.degradation_class.from_vector(p1)
        f2 = self.recovery_class.from_vector(p2)
        degradation = 1.0 - w * f1.cdf(t)
        recovery = self.trend_class.value(t, beta) * f2.cdf(t)
        return degradation + recovery

    def prediction_jacobian(
        self, times: ArrayLike, params: Sequence[float] | None = None
    ) -> FloatArray:
        """The mixture's closed form with the ``F₁`` block scaled by
        ``w`` and a trailing ``∂P/∂w = −F₁(t)`` column."""
        if not self.has_analytic_jacobian:
            return ResilienceModel.prediction_jacobian(self, times, params)
        t = self._as_times(times)
        vector = self.params if params is None else tuple(float(v) for v in params)
        mixture_params, w = self._split_partial(vector)
        p1, p2, beta = self._split(mixture_params)
        f1 = self.degradation_class.from_vector(p1)
        f2 = self.recovery_class.from_vector(p2)
        trend = self.trend_class.value(t, beta)
        return np.concatenate(
            [
                -w * f1.cdf_gradient(t),
                trend[:, np.newaxis] * f2.cdf_gradient(t),
                (self.trend_class.beta_gradient(t, beta) * f2.cdf(t))[
                    :, np.newaxis
                ],
                -f1.cdf(t)[:, np.newaxis],
            ],
            axis=1,
        )

    def evaluate_batch(self, times: FloatArray, params: FloatArray) -> FloatArray:
        """Row by row through :meth:`evaluate`: the mixture's stacked
        form knows no ``w``."""
        return ResilienceModel.evaluate_batch(self, times, params)

    def prediction_jacobian_batch(
        self, times: FloatArray, params: FloatArray
    ) -> FloatArray:
        """Row by row through :meth:`prediction_jacobian`: the mixture's
        stacked form has no ``∂P/∂w`` column."""
        return ResilienceModel.prediction_jacobian_batch(self, times, params)

    def components(self, times: ArrayLike) -> tuple[FloatArray, FloatArray]:
        """Degradation (``1 − w·F₁``) and recovery (``a₂·F₂``) terms."""
        t = self._as_times(times)
        mixture_params, w = self._split_partial(self.params)
        p1, p2, beta = self._split(mixture_params)
        f1 = self.degradation_class.from_vector(p1)
        f2 = self.recovery_class.from_vector(p2)
        return 1.0 - w * f1.cdf(t), self.trend_class.value(t, beta) * f2.cdf(t)

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
