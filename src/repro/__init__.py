"""repro — predictive resilience modeling.

A full reimplementation of *"Predictive Resilience Modeling"* (Silva,
Hermosillo Hidalgo, Linkov, Fiondella; Resilience Week 2022):
bathtub-shaped hazard models and mixture-distribution models that
forecast a disrupted system's performance trajectory, recovery time,
and interval-based resilience metrics, validated on seven U.S.
recession curves.

Quickstart
----------
>>> from repro import load_recession, make_model, evaluate_predictive
>>> curve = load_recession("1990-93")
>>> evaluation = evaluate_predictive(make_model("competing_risks"), curve)
>>> round(evaluation.measures.r2_adjusted, 2) >= 0.9
True
"""

from repro.core.curve import ResilienceCurve
from repro.core.phases import ResiliencePhases, detect_phases
from repro.core.shapes import CurveShape, classify_shape
from repro.datasets.recessions import (
    RECESSION_NAMES,
    load_all_recessions,
    load_recession,
)
from repro.datasets.stream import StreamEvent, iter_curve, replay_recessions
from repro.datasets.synthetic import curve_from_model, make_shape_curve
from repro.fitting.least_squares import FitManyResult, fit_least_squares, fit_many
from repro.fitting.options import EngineOptions
from repro.fitting.result import FitResult
from repro.observability import Tracer, enable_tracing
from repro.parallel import FitExecutor, get_executor
from repro.metrics.predictive import predictive_metric_report, relative_error
from repro.models.competing_risks import CompetingRisksResilienceModel
from repro.models.mixture import MixtureResilienceModel
from repro.models.quadratic import QuadraticResilienceModel
from repro.models.registry import available_models, make_model
from repro.serving import ForecastSession, OnlineForecaster, RefitPolicy
from repro.validation.comparison import compare_models
from repro.validation.crossval import evaluate_predictive

__version__ = "6.0.0"

#: The public batch + serving surface, alphabetized;
#: tests/test_public_api.py asserts it matches what is importable.
__all__ = [
    "CompetingRisksResilienceModel",
    "CurveShape",
    "EngineOptions",
    "FitExecutor",
    "FitManyResult",
    "FitResult",
    "ForecastSession",
    "MixtureResilienceModel",
    "OnlineForecaster",
    "QuadraticResilienceModel",
    "RECESSION_NAMES",
    "RefitPolicy",
    "ResilienceCurve",
    "ResiliencePhases",
    "StreamEvent",
    "Tracer",
    "__version__",
    "available_models",
    "classify_shape",
    "compare_models",
    "curve_from_model",
    "detect_phases",
    "enable_tracing",
    "evaluate_predictive",
    "fit_least_squares",
    "fit_many",
    "get_executor",
    "iter_curve",
    "load_all_recessions",
    "load_recession",
    "make_model",
    "make_shape_curve",
    "predictive_metric_report",
    "relative_error",
    "replay_recessions",
]
