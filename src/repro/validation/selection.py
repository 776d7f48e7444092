"""Automatic model selection with shape gating.

The paper's decision-maker guidance is qualitative ("model selection is
ultimately a subjective choice"). This module operationalizes it: fit a
candidate set, rank by an information criterion or held-out error, and
— optionally — use the curve-shape classifier to *extend* the candidate
set with the models each shape actually needs (segmented bathtubs for
W, partial-degradation mixtures for L), implementing the paper's
observation that shape should inform model choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.curve import ResilienceCurve
from repro.core.shapes import CurveShape, classify_shape
from repro.exceptions import MetricError, ReproError
from repro.models.registry import make_model
from repro.validation.crossval import PredictiveEvaluation, evaluate_predictive
from repro.validation.gof import aic, bic

__all__ = ["ModelRecommendation", "recommend_model", "DEFAULT_CANDIDATES"]

#: The paper's six families.
DEFAULT_CANDIDATES: tuple[str, ...] = (
    "quadratic",
    "competing_risks",
    "exp-exp",
    "wei-exp",
    "exp-wei",
    "wei-wei",
)

#: Extra candidates unlocked per shape class (the extensions of
#: DESIGN.md §5 targeting the paper's failure cases).
_SHAPE_EXTENSIONS: dict[CurveShape, tuple[str, ...]] = {
    CurveShape.W: ("segmented", "segmented(quadratic)"),
    CurveShape.L: ("partial-wei-exp", "partial-wei-wei"),
    CurveShape.K: ("partial-wei-exp", "partial-wei-wei"),
}

#: Criteria: name -> (higher_is_better, scorer).
_CRITERIA = {
    "aic": False,
    "bic": False,
    "pmse": False,
    "sse": False,
    "r2_adjusted": True,
}


@dataclass
class ModelRecommendation:
    """Outcome of a selection run.

    Attributes
    ----------
    best_name:
        Winning model name under the criterion.
    shape:
        Classified shape of the curve (None when gating disabled).
    criterion:
        The criterion used.
    scores:
        Model name → criterion value (sorted best-first).
    evaluations:
        Model name → full :class:`PredictiveEvaluation`.
    failed:
        Candidates whose fit did not converge.
    """

    best_name: str
    shape: CurveShape | None
    criterion: str
    scores: dict[str, float]
    evaluations: dict[str, PredictiveEvaluation] = field(repr=False, default_factory=dict)
    failed: list[str] = field(default_factory=list)

    @property
    def best(self) -> PredictiveEvaluation:
        """The winning evaluation."""
        return self.evaluations[self.best_name]


def _score(evaluation: PredictiveEvaluation, criterion: str) -> float:
    if criterion in ("pmse", "sse", "r2_adjusted"):
        return float(getattr(evaluation.measures, criterion))
    train = evaluation.train
    predictions = evaluation.model.predict(train.times)
    scorer = aic if criterion == "aic" else bic
    return scorer(train.performance, predictions, evaluation.model.n_params)


def recommend_model(
    curve: ResilienceCurve,
    *,
    candidates: tuple[str, ...] | None = None,
    criterion: str = "aic",
    shape_gate: bool = True,
    train_fraction: float = 0.9,
    **fit_kwargs: object,
) -> ModelRecommendation:
    """Fit candidates to *curve* and recommend the best.

    Parameters
    ----------
    curve:
        The curve to model.
    candidates:
        Model names to try; defaults to the paper's six families.
    criterion:
        ``"aic"`` (default), ``"bic"``, ``"pmse"``, ``"sse"``, or
        ``"r2_adjusted"``. AIC/BIC are computed on the training window;
        PMSE on the held-out suffix.
    shape_gate:
        When true, classify the curve and append the shape-specific
        extension models (segmented for W, partial mixtures for L/K).
    train_fraction:
        Paper-protocol fitting fraction.

    A candidate whose fit raises a :class:`~repro.exceptions.ReproError`
    (e.g. no convergence) is listed in ``failed``; any other exception,
    such as the ``TypeError`` of a misspelled keyword, propagates.

    Raises
    ------
    MetricError
        On an unknown criterion, or when every candidate fails.
    """
    if criterion not in _CRITERIA:
        known = ", ".join(sorted(_CRITERIA))
        raise MetricError(f"unknown criterion {criterion!r}; known: {known}")

    names = list(candidates if candidates is not None else DEFAULT_CANDIDATES)
    shape: CurveShape | None = None
    if shape_gate:
        shape = classify_shape(curve)
        for extra in _SHAPE_EXTENSIONS.get(shape, ()):
            if extra not in names:
                names.append(extra)

    evaluations: dict[str, PredictiveEvaluation] = {}
    scores: dict[str, float] = {}
    failed: list[str] = []
    for name in names:
        try:
            evaluation = evaluate_predictive(
                make_model(name), curve, train_fraction=train_fraction, **fit_kwargs
            )
        except ReproError:
            failed.append(name)
            continue
        evaluations[name] = evaluation
        scores[name] = _score(evaluation, criterion)

    if not scores:
        raise MetricError(f"every candidate failed on curve {curve.name or '<unnamed>'}")

    higher_better = _CRITERIA[criterion]
    ordered = dict(
        sorted(scores.items(), key=lambda item: item[1], reverse=higher_better)
    )
    best_name = next(iter(ordered))
    return ModelRecommendation(
        best_name=best_name,
        shape=shape,
        criterion=criterion,
        scores=ordered,
        evaluations=evaluations,
        failed=failed,
    )
