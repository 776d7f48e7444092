"""Train/test evaluation protocols.

:func:`evaluate_predictive` implements the paper's protocol: fit on the
first ``n − ℓ`` observations, predict the remaining ℓ, and report SSE,
PMSE, adjusted R², and the empirical coverage of the Eq. (13) band over
the full curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.curve import ResilienceCurve
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.options import EngineOptions
from repro.fitting.result import FitResult
from repro.models.base import ResilienceModel
from repro.validation.gof import GoodnessOfFit, adjusted_r_squared, pmse
from repro.validation.intervals import ConfidenceBand, confidence_band

__all__ = ["PredictiveEvaluation", "evaluate_predictive"]


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

