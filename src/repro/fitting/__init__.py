"""Least-squares model fitting (Eq. 8 of the paper).

The entry point is :func:`fit_least_squares`, which minimizes the sum
of squared disagreements between an empirical resilience curve and a
parametric model using bounded trust-region least squares with a
deterministic multi-start strategy.
"""

from repro.fitting.batched import (
    ENGINE_NAMES,
    BatchedOutcome,
    BatchedProblem,
    resolve_engine,
    solve_batched,
)
from repro.fitting.cache import FitCache, default_fit_cache, fit_cache_key
from repro.fitting.fleet import EpisodeFamilyFit, FleetFitResult, fit_fleet
from repro.fitting.least_squares import FitManyResult, fit_least_squares, fit_many
from repro.fitting.multistart import generate_starts
from repro.fitting.options import (
    DEFAULT_ENGINE_OPTIONS,
    EngineOptions,
    ResolvedEngine,
)
from repro.fitting.result import FitResult
from repro.fitting.uncertainty import (
    ParameterUncertainty,
    delta_method_band,
    parameter_uncertainty,
)

__all__ = [
    "fit_least_squares",
    "fit_many",
    "fit_fleet",
    "FitManyResult",
    "FleetFitResult",
    "EpisodeFamilyFit",
    "EngineOptions",
    "ResolvedEngine",
    "DEFAULT_ENGINE_OPTIONS",
    "ENGINE_NAMES",
    "resolve_engine",
    "solve_batched",
    "BatchedProblem",
    "BatchedOutcome",
    "FitCache",
    "default_fit_cache",
    "fit_cache_key",
    "generate_starts",
    "FitResult",
    "ParameterUncertainty",
    "parameter_uncertainty",
    "delta_method_band",
]
