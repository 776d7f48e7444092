"""Probabilistic resilience metrics.

The third category in the taxonomy the paper cites (Cheng et al.):
metrics that are probabilities or distributions rather than areas or
points. Here they are computed from a *fitted* model plus its parameter
uncertainty (:mod:`repro.fitting.uncertainty`), answering the questions
an emergency manager actually asks:

* "What is the probability we are back to 95% capacity by Friday?"
* "Give me the 90th-percentile recovery date."
* "What is the distribution of performance at time t?"
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MetricError
from repro.fitting.result import FitResult
from repro.fitting.uncertainty import parameter_uncertainty

__all__ = [
    "recovery_probability_by",
    "recovery_time_quantile",
    "performance_distribution_at",
]


def _recovery_samples(
    fit: FitResult,
    level: float,
    *,
    horizon: float,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Recovery-time draws under the asymptotic parameter distribution.

    Draws that never recover before *horizon* are recorded as ``inf``.
    """
    if n_samples < 10:
        raise MetricError(f"n_samples must be >= 10, got {n_samples}")
    uncertainty = parameter_uncertainty(fit)
    model = fit.model
    params = np.asarray(model.params, dtype=np.float64)
    rng = np.random.default_rng(seed)
    draws = rng.multivariate_normal(
        params, uncertainty.covariance, size=n_samples, method="svd",
        check_valid="ignore",
    )
    draws = np.clip(draws, model.lower_bounds, model.upper_bounds)
    samples = np.empty(n_samples)
    for index, draw in enumerate(draws):
        try:
            samples[index] = model.bind(tuple(draw)).recovery_time(level, horizon)
        except ValueError:
            samples[index] = np.inf
    return samples


def recovery_probability_by(
    fit: FitResult,
    level: float,
    deadline: float,
    *,
    horizon: float = 1e4,
    n_samples: int = 400,
    seed: int = 0,
) -> float:
    """Probability that performance recovers to *level* by *deadline*.

    Monte-Carlo over the fit's asymptotic parameter distribution:
    the fraction of parameter draws whose recovery time is at most
    *deadline*.
    """
    if deadline <= 0.0:
        raise MetricError(f"deadline must be positive, got {deadline}")
    samples = _recovery_samples(
        fit, level, horizon=horizon, n_samples=n_samples, seed=seed
    )
    return float(np.mean(samples <= deadline))


def recovery_time_quantile(
    fit: FitResult,
    level: float,
    quantile: float,
    *,
    horizon: float = 1e4,
    n_samples: int = 400,
    seed: int = 0,
) -> float:
    """The *quantile* of the recovery-time distribution.

    Returns ``inf`` when that quantile of draws never recovers before
    *horizon* — a conservative planning answer, not an error.

    Raises
    ------
    MetricError
        If *quantile* is outside (0, 1).
    """
    if not 0.0 < quantile < 1.0:
        raise MetricError(f"quantile must lie in (0, 1), got {quantile}")
    samples = _recovery_samples(
        fit, level, horizon=horizon, n_samples=n_samples, seed=seed
    )
    # The conservative (higher) order statistic: linear interpolation
    # between a finite draw and an unrecovered (inf) draw would be NaN,
    # and rounding the planning answer *later* is the safe direction.
    return float(np.quantile(samples, quantile, method="higher"))


def performance_distribution_at(
    fit: FitResult,
    time: float,
    *,
    n_samples: int = 400,
    seed: int = 0,
    include_noise: bool = True,
) -> np.ndarray:
    """Monte-Carlo samples of performance at *time*.

    Combines parameter uncertainty with (optionally) the residual
    observation noise; summarize with ``np.quantile`` for fan charts.
    """
    if n_samples < 10:
        raise MetricError(f"n_samples must be >= 10, got {n_samples}")
    uncertainty = parameter_uncertainty(fit)
    model = fit.model
    params = np.asarray(model.params, dtype=np.float64)
    rng = np.random.default_rng(seed)
    draws = rng.multivariate_normal(
        params, uncertainty.covariance, size=n_samples, method="svd",
        check_valid="ignore",
    )
    draws = np.clip(draws, model.lower_bounds, model.upper_bounds)
    values = model.evaluate_batch(np.full((n_samples, 1), float(time)), draws)[:, 0]
    if include_noise:
        sigma = float(np.sqrt(max(uncertainty.sigma2, 0.0)))
        values = values + rng.normal(0.0, sigma, size=n_samples)
    return values
