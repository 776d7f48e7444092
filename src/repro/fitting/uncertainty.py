"""Parameter uncertainty for fitted models.

The paper quantifies uncertainty only through the Eq. (12–13) residual
band. This module adds the standard nonlinear-regression machinery on
top of a :class:`~repro.fitting.result.FitResult`:

* **parameter covariance** via the Gauss-Newton approximation
  ``σ²·(JᵀJ)⁻¹``, using the model family's
  :meth:`~repro.models.base.ResilienceModel.prediction_jacobian` at the
  optimum (closed form where available, validated finite differences
  otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from repro._typing import FloatArray
from repro.exceptions import FitError
from repro.fitting.result import FitResult

__all__ = ["ParameterUncertainty", "parameter_uncertainty"]


def _jacobian(fit: FitResult) -> FloatArray:
    """Jacobian of the model prediction w.r.t. parameters at the
    optimum over the training times — the same analytic-or-FD dispatch
    the fit engine used, so intervals are consistent with the solve."""
    return fit.model.prediction_jacobian(fit.curve.times)


@dataclass(frozen=True)
class ParameterUncertainty:
    """Asymptotic parameter uncertainty of a least-squares fit.

    Attributes
    ----------
    covariance:
        ``σ²·(JᵀJ)⁻¹`` Gauss-Newton covariance matrix.
    std_errors:
        Per-parameter standard errors, keyed by name.
    sigma2:
        Residual variance ``SSE/(n − m)``.
    """

    covariance: FloatArray
    std_errors: dict[str, float]
    sigma2: float

    def correlation(self) -> FloatArray:
        """Parameter correlation matrix."""
        stds = np.sqrt(np.diag(self.covariance))
        outer = np.outer(stds, stds)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.where(outer > 0.0, self.covariance / outer, 0.0)
        np.fill_diagonal(corr, 1.0)
        return corr

    def confidence_intervals(self, names: tuple[str, ...], params: tuple[float, ...],
                             confidence: float = 0.95) -> dict[str, tuple[float, float]]:
        """Normal-approximation CIs for each parameter."""
        z = float(special.ndtri(0.5 + confidence / 2.0))
        return {
            name: (value - z * self.std_errors[name], value + z * self.std_errors[name])
            for name, value in zip(names, params)
        }


def parameter_uncertainty(fit: FitResult) -> ParameterUncertainty:
    """Gauss-Newton parameter covariance of *fit*.

    Raises
    ------
    FitError
        If there are no residual degrees of freedom, or the normal
        matrix is singular beyond repair (parameters unidentified).
    """
    n = len(fit.curve)
    m = fit.model.n_params
    if n <= m:
        raise FitError(f"no residual degrees of freedom: n={n}, m={m}")
    sigma2 = fit.sse / (n - m)
    jacobian = _jacobian(fit)
    normal_matrix = jacobian.T @ jacobian
    try:
        inverse = np.linalg.inv(normal_matrix)
    except np.linalg.LinAlgError:
        # Weakly identified directions (common for mixtures): fall back
        # to the pseudo-inverse, which reports huge-but-finite variance
        # along the flat directions.
        inverse = np.linalg.pinv(normal_matrix)
    covariance = sigma2 * inverse
    # Numerical asymmetry from the inverse would trip downstream
    # multivariate-normal samplers; symmetrize explicitly.
    covariance = 0.5 * (covariance + covariance.T)
    stds = np.sqrt(np.maximum(np.diag(covariance), 0.0))
    return ParameterUncertainty(
        covariance=covariance,
        std_errors=dict(zip(fit.model.param_names, (float(s) for s in stds))),
        sigma2=float(sigma2),
    )
