"""Parameter and prediction uncertainty for fitted models.

The paper quantifies uncertainty only through the Eq. (12–13) residual
band. This module adds the standard nonlinear-regression machinery on
top of a :class:`~repro.fitting.result.FitResult`:

* **parameter covariance** via the Gauss-Newton approximation
  ``σ²·(JᵀJ)⁻¹``, using the model family's
  :meth:`~repro.models.base.ResilienceModel.prediction_jacobian` at the
  optimum (closed form where available, validated finite differences
  otherwise),
* **delta-method prediction bands** that widen with parameter
  uncertainty instead of staying constant-width like Eq. (13), and
* **Monte-Carlo intervals for derived quantities** (recovery time,
  trough depth) by sampling parameters from their asymptotic normal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy import special

from repro._typing import ArrayLike, FloatArray
from repro.exceptions import FitError
from repro.fitting.options import DEFAULT_ENGINE_OPTIONS, EngineOptions
from repro.fitting.result import FitResult
from repro.parallel import get_executor
from repro.validation.intervals import ConfidenceBand

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.models.base import ResilienceModel

__all__ = [
    "ParameterUncertainty",
    "parameter_uncertainty",
    "delta_method_band",
    "derived_quantity_interval",
]

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


def delta_method_band(
    fit: FitResult,
    times: ArrayLike,
    *,
    confidence: float = 0.95,
    include_noise: bool = True,
) -> ConfidenceBand:
    """Pointwise prediction band that accounts for parameter uncertainty.

    Variance at each time is ``g(t)ᵀ·Cov·g(t)`` (delta method, with
    ``g`` the parameter gradient of the prediction) plus, when
    *include_noise* is true, the residual variance — so the band is a
    *prediction* interval comparable to Eq. (13), but wider where the
    fit is less constrained (typically the extrapolation region).
    """
    uncertainty = parameter_uncertainty(fit)
    model = fit.model
    params = np.asarray(model.params, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    base = model.evaluate(t, params)
    gradients = model.prediction_jacobian(t)
    variance = np.einsum("ij,jk,ik->i", gradients, uncertainty.covariance, gradients)
    if include_noise:
        variance = variance + uncertainty.sigma2
    z = float(special.ndtri(0.5 + confidence / 2.0))
    half = z * np.sqrt(np.maximum(variance, 0.0))
    return ConfidenceBand(
        center=base,
        lower=base - half,
        upper=base + half,
        confidence=confidence,
        sigma=float(np.sqrt(uncertainty.sigma2)),
    )


class _DrawWork:
    """One Monte-Carlo draw evaluation; a class (not a closure) so the
    thread backend shares it cheaply and the process backend can pickle
    it whenever *func* itself is picklable."""

    __slots__ = ("model", "func", "draw")

    def __init__(
        self,
        model: "ResilienceModel",
        func: "Callable[[ResilienceModel], float]",
        draw: tuple[float, ...],
    ) -> None:
        self.model = model
        self.func = func
        self.draw = draw

    def __call__(self) -> float | None:
        try:
            return float(self.func(self.model.bind(self.draw)))
        except ValueError:
            return None


def _evaluate_draw(work: _DrawWork) -> float | None:
    return work()


def derived_quantity_interval(
    fit: FitResult,
    func: "Callable[[ResilienceModel], float]",
    *,
    confidence: float = 0.95,
    n_samples: int = 400,
    seed: int = 0,
    options: "EngineOptions | None" = None,
) -> tuple[float, float, float]:
    """Monte-Carlo interval for any derived quantity of a fitted model.

    Samples parameter vectors from the asymptotic normal (clipped to
    the family's bounds), applies ``func(bound_model) -> float`` to
    each, and returns ``(point_estimate, lower, upper)`` where the
    bounds are the central *confidence* quantiles of the samples that
    evaluated successfully. Samples where *func* raises ``ValueError``
    (e.g. "never recovers") are skipped; if more than half fail, a
    FitError is raised since the interval would be misleading.

    The draws run on the ``executor``/``n_workers`` of the ``options=``
    :class:`~repro.fitting.options.EngineOptions` bundle (its other
    fields do not apply to the draw sweep). They are generated up front
    from a single seeded stream, so the sample set is identical on
    every backend. *func* must be picklable (a module-level function)
    for the process backend; lambdas degrade gracefully to in-process
    execution.

    Examples
    --------
    >>> estimate, lo, hi = derived_quantity_interval(           # doctest: +SKIP
    ...     fit, lambda m: m.recovery_time(1.0), confidence=0.9)
    """
    if n_samples < 10:
        raise FitError(f"n_samples must be >= 10, got {n_samples}")
    opts = options or DEFAULT_ENGINE_OPTIONS
    uncertainty = parameter_uncertainty(fit)
    model = fit.model
    params = np.asarray(model.params, dtype=np.float64)
    point = float(func(model))

    rng = np.random.default_rng(seed)
    lower_bounds = np.asarray(model.lower_bounds)
    upper_bounds = np.asarray(model.upper_bounds)
    draws = rng.multivariate_normal(
        params, uncertainty.covariance, size=n_samples, method="svd",
        check_valid="ignore",
    )
    draws = np.clip(draws, lower_bounds, upper_bounds)

    work_units = [
        _DrawWork(model, func, tuple(float(v) for v in draw)) for draw in draws
    ]
    outcomes = get_executor(opts.executor, max_workers=opts.n_workers).map(
        _evaluate_draw, work_units
    )
    values = [value for value in outcomes if value is not None]
    if len(values) < n_samples / 2:
        raise FitError(
            f"derived quantity undefined for {n_samples - len(values)} of "
            f"{n_samples} parameter draws; interval would be misleading"
        )
    alpha = 1.0 - confidence
    lower = float(np.quantile(values, alpha / 2.0))
    upper = float(np.quantile(values, 1.0 - alpha / 2.0))
    return point, lower, upper
