"""Quadratic bathtub resilience model — Section II-A.1 of the paper.

Performance over the disruption window is ``P(t) = α + β·t + γ·t²``
(the scaled quadratic hazard of Eq. 1; the continuity constant *c*
is absorbed into the parameters). Closed forms are inherited from
:class:`~repro.hazards.quadratic.QuadraticHazard`: the recovery time of
Eq. (2) and the area under the curve of Eq. (3).
"""

from __future__ import annotations

import numpy as np

from repro._typing import FloatArray
from repro.core.curve import ResilienceCurve
from repro.hazards.quadratic import QuadraticHazard
from repro.models.base import ResilienceModel

__all__ = ["QuadraticResilienceModel"]


class QuadraticResilienceModel(ResilienceModel):
    """``P(t) = α + βt + γt²`` with bathtub orientation enforced by bounds.

    Bounds keep ``α > 0`` (positive performance at the hazard onset),
    ``β ≤ 0`` (initial deterioration), and ``γ ≥ 0`` (eventual
    recovery), which is the orientation required for a bathtub shape.
    """

    name = "quadratic"

    @property
    def param_names(self) -> tuple[str, ...]:
        return ("alpha", "beta", "gamma")

    @property
    def lower_bounds(self) -> tuple[float, ...]:
        return (1e-9, -10.0, 0.0)

    @property
    def upper_bounds(self) -> tuple[float, ...]:
        return (10.0, 0.0, 10.0)

    def evaluate_batch(self, times: FloatArray, params: FloatArray) -> FloatArray:
        t = np.asarray(times, dtype=np.float64)
        p = np.asarray(params, dtype=np.float64)
        alpha = p[:, :1]
        beta = p[:, 1:2]
        gamma = p[:, 2:3]
        return alpha + beta * t + gamma * t * t

    @property
    def has_analytic_jacobian(self) -> bool:
        return True

    def prediction_jacobian_batch(
        self, times: FloatArray, params: FloatArray
    ) -> FloatArray:
        """``∂P/∂(α, β, γ) = (1, t, t²)`` — the model is linear in θ."""
        t = np.asarray(times, dtype=np.float64)
        return np.stack([np.ones_like(t), t, t * t], axis=2)

    def initial_guesses(self, curve: ResilienceCurve) -> list[tuple[float, ...]]:
        """Two deterministic seeds: a clipped polynomial fit and a
        vertex-matching heuristic.

        The quadratic is linear in its parameters, so the unconstrained
        polyfit is the global optimum when it already satisfies the
        bathtub bounds; clipping only matters for curves (like the
        W-shaped 1980 recession) the family cannot represent.
        """
        t = curve.times
        p = curve.performance
        gamma_fit, beta_fit, alpha_fit = np.polyfit(t, p, 2)
        polyfit_guess = (
            float(np.clip(alpha_fit, self.lower_bounds[0], self.upper_bounds[0])),
            float(np.clip(beta_fit, self.lower_bounds[1], self.upper_bounds[1])),
            float(np.clip(gamma_fit, self.lower_bounds[2], self.upper_bounds[2])),
        )
        # Vertex-matching: place the parabola minimum at the observed trough.
        trough_t = max(curve.trough_time - float(t[0]), 1.0)
        depth = max(curve.nominal - curve.min_performance, 1e-6)
        gamma_vertex = depth / (trough_t * trough_t)
        vertex_guess = (
            max(curve.nominal, 1e-6),
            -2.0 * gamma_vertex * trough_t,
            gamma_vertex,
        )
        return [polyfit_guess, vertex_guess]

    # ------------------------------------------------------------------
    # Closed forms via the underlying hazard function
    # ------------------------------------------------------------------
    def _hazard(self) -> QuadraticHazard:
        alpha, beta, gamma = self.params
        return QuadraticHazard(alpha, beta, gamma)

    def area_under_curve(self, lower: float, upper: float) -> float:
        """Eq. (3): ``αt + βt²/2 + γt³/3`` evaluated between the bounds."""
        hazard = self._hazard()
        lo, hi = hazard.cumulative(np.array([lower, upper]))
        return float(hi - lo)

    def minimum(self, horizon: float) -> tuple[float, float]:
        """Parabola vertex, clipped to ``[0, horizon]``."""
        return self._hazard().minimum(horizon)

    def recovery_time(self, level: float, horizon: float = 1e4) -> float:
        """Eq. (2): later root of ``γt² + βt + (α − level) = 0``.

        Raises
        ------
        ValueError
            If the root lies beyond *horizon* (a near-flat recovery arm
            can push the closed-form root to astronomically late times,
            which callers should treat as "not recovering").
        """
        root = self._hazard().recovery_time(level)
        if root > horizon:
            raise ValueError(
                f"model {self.name!r} does not recover to {level} before "
                f"t={horizon} (closed-form root at t={root:.6g})"
            )
        return root

    def is_bathtub(self, horizon: float = 100.0) -> bool:
        """Paper's shape condition ``−2√(αγ) < β < 0`` on the bound fit."""
        return self._hazard().is_bathtub(horizon)
