"""Competing-risks (Hjorth) bathtub resilience model — Section II-A.2.

Performance over the disruption window is
``P(t) = α/(1 + β·t) + 2·γ·t`` (the scaled competing-risks hazard of
Eq. 4, continuity constant absorbed). Closed forms come from
:class:`~repro.hazards.hjorth.HjorthHazard`: the Eq. (5) recovery time
and the Eq. (6) area ``γt² + (α/β)ln(1 + βt)``.
"""

from __future__ import annotations

import numpy as np

from repro._typing import FloatArray
from repro.core.curve import ResilienceCurve
from repro.hazards.hjorth import HjorthHazard
from repro.models.base import ResilienceModel

__all__ = ["CompetingRisksResilienceModel"]


class CompetingRisksResilienceModel(ResilienceModel):
    """``P(t) = α/(1 + βt) + 2γt``.

    The hyperbolic term models deterioration (dominant early), the
    linear term recovery (dominant late). The family also expresses
    monotone and near-constant curves, the flexibility behind its
    stronger held-out PMSE in the paper's Table I.
    """

    name = "competing_risks"

    @property
    def param_names(self) -> tuple[str, ...]:
        return ("alpha", "beta", "gamma")

    @property
    def lower_bounds(self) -> tuple[float, ...]:
        return (1e-9, 1e-6, 0.0)

    @property
    def upper_bounds(self) -> tuple[float, ...]:
        return (10.0, 100.0, 1.0)

    def evaluate_batch(self, times: FloatArray, params: FloatArray) -> FloatArray:
        t = np.asarray(times, dtype=np.float64)
        p = np.asarray(params, dtype=np.float64)
        alpha = p[:, :1]
        beta = p[:, 1:2]
        gamma = p[:, 2:3]
        return alpha / (1.0 + beta * t) + 2.0 * gamma * t

    @property
    def has_analytic_jacobian(self) -> bool:
        return True

    def prediction_jacobian_batch(
        self, times: FloatArray, params: FloatArray
    ) -> FloatArray:
        """``∂P/∂(α, β, γ) = (1/(1+βt), −αt/(1+βt)², 2t)``."""
        t = np.asarray(times, dtype=np.float64)
        p = np.asarray(params, dtype=np.float64)
        alpha = p[:, :1]
        beta = p[:, 1:2]
        denom = 1.0 + beta * t
        return np.stack(
            [1.0 / denom, -alpha * t / (denom * denom), 2.0 * t], axis=2
        )

    def initial_guesses(self, curve: ResilienceCurve) -> list[tuple[float, ...]]:
        """Seeds spanning slow and fast deterioration time-scales.

        α starts at the observed nominal level. β is seeded from the
        trough time (the hyperbola's decay has fallen substantially by
        ``t ≈ 2/β``), and γ from the late-window recovery slope.
        """
        t = curve.times
        p = curve.performance
        alpha0 = max(float(p[0]), 1e-6)
        trough_t = max(curve.trough_time - float(t[0]), 1.0)
        tail = max(len(curve) // 4, 2)
        late_slope = float(
            np.polyfit(t[-tail:], p[-tail:], 1)[0]
        )
        gamma0 = max(late_slope / 2.0, 1e-6)
        guesses: list[tuple[float, ...]] = []
        for beta_scale in (0.5, 2.0, 8.0):
            beta0 = beta_scale / trough_t
            beta0 = float(np.clip(beta0, self.lower_bounds[1], self.upper_bounds[1]))
            guesses.append(
                (
                    alpha0,
                    beta0,
                    float(np.clip(gamma0, self.lower_bounds[2], self.upper_bounds[2])),
                )
            )
        return guesses

    # ------------------------------------------------------------------
    # Closed forms via the underlying hazard function
    # ------------------------------------------------------------------
    def _hazard(self) -> HjorthHazard:
        alpha, beta, gamma = self.params
        return HjorthHazard(alpha, beta, gamma)

    def area_under_curve(self, lower: float, upper: float) -> float:
        """Eq. (6): ``γt² + (α/β)·ln(1 + βt)`` between the bounds."""
        hazard = self._hazard()
        lo, hi = hazard.cumulative(np.array([lower, upper]))
        return float(hi - lo)

    def minimum(self, horizon: float) -> tuple[float, float]:
        """Closed-form stationary point ``(√(αβ/2γ) − 1)/β``."""
        return self._hazard().minimum(horizon)

    def recovery_time(self, level: float, horizon: float = 1e4) -> float:
        """Eq. (5): later root of the level-crossing quadratic.

        Raises
        ------
        ValueError
            If the root lies beyond *horizon* (a near-zero γ pushes the
            closed-form root to astronomically late times, which
            callers should treat as "not recovering").
        """
        root = self._hazard().recovery_time(level)
        if root > horizon:
            raise ValueError(
                f"model {self.name!r} does not recover to {level} before "
                f"t={horizon} (closed-form root at t={root:.6g})"
            )
        return root

    def is_bathtub(self, horizon: float = 100.0) -> bool:
        """Interior-minimum condition ``αβ > 2γ`` on the bound fit."""
        return self._hazard().is_bathtub(horizon)
