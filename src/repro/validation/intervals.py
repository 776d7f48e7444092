"""Confidence intervals and empirical coverage — Section III-B.2.

The paper builds a normal-approximation band around model predictions:
the residual variance is ``σ² = SSE/(n − 2)`` (Eq. 12) and the band is
``± z_{1−α/2}·σ`` (Eq. 13, stated for the change in performance between
successive intervals and drawn in Figs. 3–6 around the fitted curve).
Empirical coverage (EC) is the fraction of observations falling inside
the band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from repro._typing import ArrayLike, FloatArray
from repro.exceptions import MetricError
from repro.utils.numerics import as_float_array

__all__ = [
    "residual_variance",
    "confidence_band",
    "delta_confidence_band",
    "empirical_coverage",
    "ConfidenceBand",
]


def residual_variance(sse_value: float, n_observations: int) -> float:
    """Eq. (12): ``σ² = SSE/(n − 2)``.

    Raises
    ------
    MetricError
        If there are fewer than three observations or SSE is negative.
    """
    if n_observations <= 2:
        raise MetricError(
            f"residual variance needs n > 2 observations, got {n_observations}"
        )
    if sse_value < 0.0:
        raise MetricError(f"SSE must be non-negative, got {sse_value}")
    return sse_value / (n_observations - 2)


def _critical_value(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise MetricError(f"confidence must lie in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    # ndtri is norm.ppf's own kernel: the same value without the ~100 µs
    # of generic argument handling, paid on every served forecast band.
    return float(special.ndtri(1.0 - alpha / 2.0))


@dataclass(frozen=True)
class ConfidenceBand:
    """A symmetric band around predictions.

    Attributes
    ----------
    center:
        Predicted values (the band's midline).
    lower, upper:
        Band edges.
    confidence:
        Nominal confidence level, e.g. 0.95.
    sigma:
        Residual standard deviation used for the half-width.
    """

    center: FloatArray
    lower: FloatArray
    upper: FloatArray
    confidence: float
    sigma: float

    @property
    def half_width(self) -> float:
        """Half-width of the band (constant across times)."""
        return _critical_value(self.confidence) * self.sigma

    def coverage_of(self, observations: ArrayLike) -> float:
        """Empirical coverage of *observations* by this band."""
        return empirical_coverage(observations, self.lower, self.upper)


def confidence_band(
    predictions: ArrayLike,
    sse_value: float,
    n_observations: int,
    *,
    confidence: float = 0.95,
) -> ConfidenceBand:
    """Eq. (13) band around *predictions*.

    *sse_value* and *n_observations* come from the fitting window (the
    band's width reflects training dispersion even where the band is
    drawn over the prediction horizon, as in Figs. 3–6).
    """
    center = as_float_array(predictions, "predictions")
    sigma = float(np.sqrt(residual_variance(sse_value, n_observations)))
    half = _critical_value(confidence) * sigma
    return ConfidenceBand(
        center=center,
        lower=center - half,
        upper=center + half,
        confidence=confidence,
        sigma=sigma,
    )


def delta_confidence_band(
    predictions: ArrayLike,
    sse_value: float,
    n_observations: int,
    *,
    confidence: float = 0.95,
) -> ConfidenceBand:
    """Eq. (13) band for the *change* in performance ΔP(tᵢ).

    The paper states the interval for the increment between successive
    time steps; this helper differences the predictions first. The
    returned arrays have one fewer element than *predictions*.
    """
    center = np.diff(as_float_array(predictions, "predictions"))
    if center.size == 0:
        raise MetricError("need at least two predictions to difference")
    sigma = float(np.sqrt(residual_variance(sse_value, n_observations)))
    half = _critical_value(confidence) * sigma
    return ConfidenceBand(
        center=center,
        lower=center - half,
        upper=center + half,
        confidence=confidence,
        sigma=sigma,
    )


def empirical_coverage(
    observations: ArrayLike, lower: ArrayLike, upper: ArrayLike
) -> float:
    """Fraction of observations inside ``[lower, upper]`` element-wise."""
    obs = as_float_array(observations, "observations")
    lo = as_float_array(lower, "lower")
    hi = as_float_array(upper, "upper")
    if obs.size != lo.size or obs.size != hi.size:
        raise MetricError(
            f"length mismatch: observations={obs.size}, lower={lo.size}, upper={hi.size}"
        )
    if obs.size == 0:
        raise MetricError("cannot compute coverage of zero observations")
    inside = (obs >= lo) & (obs <= hi)
    return float(np.count_nonzero(inside)) / obs.size
