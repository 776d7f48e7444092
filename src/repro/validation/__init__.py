"""Model validation and statistical inference (Section III of the paper).

Goodness-of-fit measures (SSE, PMSE, adjusted R² plus AIC/BIC/RMSE
extensions), normal-approximation confidence intervals with empirical
coverage, train/test splitting utilities, and side-by-side model
comparison.
"""

from repro.validation.gof import (
    GoodnessOfFit,
    adjusted_r_squared,
    aic,
    bic,
    mean_absolute_error,
    mean_absolute_percentage_error,
    pmse,
    r_squared,
    rmse,
    sse,
)
from repro.validation.intervals import (
    ConfidenceBand,
    confidence_band,
    delta_confidence_band,
    empirical_coverage,
    residual_variance,
)
from repro.validation.crossval import PredictiveEvaluation, evaluate_predictive
from repro.validation.comparison import ModelComparison, compare_models
from repro.validation.selection import (
    DEFAULT_CANDIDATES,
    ModelRecommendation,
    recommend_model,
)

__all__ = [
    "GoodnessOfFit",
    "sse",
    "pmse",
    "r_squared",
    "adjusted_r_squared",
    "rmse",
    "aic",
    "bic",
    "mean_absolute_error",
    "mean_absolute_percentage_error",
    "ConfidenceBand",
    "residual_variance",
    "confidence_band",
    "delta_confidence_band",
    "empirical_coverage",
    "PredictiveEvaluation",
    "evaluate_predictive",
    "ModelComparison",
    "compare_models",
    "ModelRecommendation",
    "recommend_model",
    "DEFAULT_CANDIDATES",
]
