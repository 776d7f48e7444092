"""Train/test evaluation protocols.

:func:`evaluate_predictive` implements the paper's protocol: fit on the
first ``n − ℓ`` observations, predict the remaining ℓ, and report SSE,
PMSE, adjusted R², and the empirical coverage of the Eq. (13) band over
the full curve. :func:`rolling_origin` generalizes it to a sweep of
training-set sizes (an extension used by the ablation benches).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.core.curve import ResilienceCurve
from repro.exceptions import MetricError, ReproError
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.options import DEFAULT_ENGINE_OPTIONS, EngineOptions
from repro.fitting.result import FitResult
from repro.models.base import ResilienceModel
from repro.validation.gof import GoodnessOfFit, adjusted_r_squared, pmse
from repro.validation.intervals import ConfidenceBand, confidence_band

__all__ = ["PredictiveEvaluation", "evaluate_predictive", "rolling_origin"]

logger = logging.getLogger("repro.validation")


@dataclass(frozen=True)
class PredictiveEvaluation:
    """Everything produced by one train/predict/validate pass.

    Attributes
    ----------
    fit:
        The training-window fit.
    train, test:
        The two halves of the split (test keeps original time stamps).
    measures:
        The paper's four measures (SSE on train, PMSE on test, r²adj on
        train, EC over the whole curve).
    band:
        The Eq. (13) confidence band evaluated over the *full* curve.
    """

    fit: FitResult
    train: ResilienceCurve
    test: ResilienceCurve
    measures: GoodnessOfFit
    band: ConfidenceBand

    @property
    def model(self) -> ResilienceModel:
        """The bound, fitted model."""
        return self.fit.model

    @property
    def split_time(self) -> float:
        """First held-out time stamp (t_{n−ℓ+1} in the paper)."""
        return float(self.test.times[0])


def evaluate_predictive(
    family: ResilienceModel,
    curve: ResilienceCurve,
    *,
    train_fraction: float = 0.9,
    confidence: float = 0.95,
    options: EngineOptions | None = None,
    **fit_kwargs: object,
) -> PredictiveEvaluation:
    """Run the paper's fit/predict/validate protocol on one curve.

    Parameters
    ----------
    family:
        Unbound model family.
    curve:
        Full empirical curve.
    train_fraction:
        Fraction used for fitting (the paper uses 90%).
    confidence:
        Level of the Eq. (13) band (the paper uses 95%).
    options:
        :class:`~repro.fitting.options.EngineOptions` bundle for the
        training fit.
    fit_kwargs:
        Science kwargs passed through to
        :func:`~repro.fitting.fit_least_squares`.
    """
    train, test = curve.train_test_split(train_fraction)
    fit = fit_least_squares(family, train, options=options, **fit_kwargs)  # type: ignore[arg-type]
    return _evaluate_fit(fit, curve, test, confidence=confidence)


def _evaluate_fit(
    fit: FitResult,
    curve: ResilienceCurve,
    test: ResilienceCurve,
    *,
    confidence: float,
) -> PredictiveEvaluation:
    """The post-fit half of :func:`evaluate_predictive`: score a fit on
    the training prefix ``fit.curve`` of *curve* against the held-out
    *test* suffix. The table grids fit all their cells in one stacked
    solve and score each cell through here."""
    train = fit.curve
    train_pred = fit.predict(train.times)
    test_pred = fit.predict(test.times)
    full_pred = fit.predict(curve.times)

    band = confidence_band(full_pred, fit.sse, len(train), confidence=confidence)
    measures = GoodnessOfFit(
        sse=fit.sse,
        pmse=pmse(test.performance, test_pred),
        r2_adjusted=adjusted_r_squared(
            train.performance, train_pred, fit.model.n_params
        ),
        empirical_coverage=band.coverage_of(curve.performance),
    )
    return PredictiveEvaluation(fit=fit, train=train, test=test, measures=measures, band=band)


def rolling_origin(
    family: ResilienceModel,
    curve: ResilienceCurve,
    *,
    min_train: int = 12,
    step: int = 6,
    warm_start: bool = True,
    warm_n_random_starts: int = 2,
    options: EngineOptions | None = None,
    **fit_kwargs: object,
) -> list[tuple[int, float]]:
    """PMSE as the training origin rolls forward.

    Fits on the first ``k`` observations for ``k = min_train,
    min_train + step, …`` and reports ``(k, PMSE on the remainder)``
    pairs. Origins whose fit fails (a :class:`~repro.exceptions.ReproError`,
    e.g. no convergence) are skipped.

    With *warm_start* (the default), each origin after the first injects
    the previous origin's optimum as an extra start and shrinks the
    random-start budget to *warm_n_random_starts*: consecutive origins
    differ by a few observations, so the previous optimum is already in
    the right basin and the full multi-start sweep is wasted effort.
    Pass ``warm_start=False`` to make every origin independent.

    The ``options=`` :class:`~repro.fitting.options.EngineOptions`
    bundle goes to every fit unchanged: the origin loop is sequential
    (each fit warm-starts the next), so ``options.executor`` runs the
    multi-starts *within* each fit. Science *fit_kwargs* win over its
    fields. Like an explicit ``n_random_starts=`` kwarg, a non-default
    ``options.n_random_starts`` disables the warm budget shrink (the
    caller asked for that budget).
    """
    opts = options or DEFAULT_ENGINE_OPTIONS
    if opts.n_random_starts != DEFAULT_ENGINE_OPTIONS.n_random_starts:
        fit_kwargs.setdefault("n_random_starts", opts.n_random_starts)
    if min_train <= family.n_params:
        raise MetricError(
            f"min_train={min_train} must exceed the parameter count "
            f"{family.n_params}"
        )
    if step < 1:
        raise MetricError(f"step must be >= 1, got {step}")
    results: list[tuple[int, float]] = []
    previous_optimum: tuple[float, ...] | None = None
    for k in range(min_train, len(curve) - 1, step):
        train = curve.head(k)
        kwargs = dict(fit_kwargs)
        if warm_start and previous_optimum is not None:
            kwargs.setdefault("extra_starts", (previous_optimum,))
            kwargs.setdefault("n_random_starts", warm_n_random_starts)
        try:
            fit = fit_least_squares(family, train, options=opts, **kwargs)  # type: ignore[arg-type]
        except ReproError as exc:
            logger.debug("rolling origin k=%d skipped: %s", k, exc)
            continue
        previous_optimum = fit.model.params
        heldout_times = curve.times[k:]
        heldout_perf = curve.performance[k:]
        results.append((k, pmse(heldout_perf, fit.predict(heldout_times))))
    return results
