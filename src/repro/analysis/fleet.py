"""Episode scorecards for long operational histories.

Formalizes the multi-event pipeline: segment a history into
disruption episodes, compute each episode's point metrics, fit a model
per episode, and aggregate — turning the paper's single-event
machinery into an operational report. Every episode's fit is one pair
of a single stacked solve, so the executor maps the starts of all
episodes at once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.curve import ResilienceCurve
from repro.core.episodes import Episode, split_episodes
from repro.core.phases import detect_phases
from repro.exceptions import ReproError
from repro.fitting.least_squares import (
    _FailedPair,
    _FitPair,
    _fit_pairs,
    _pop_start_settings,
)
from repro.fitting.options import DEFAULT_ENGINE_OPTIONS, EngineOptions
from repro.fitting.result import FitResult
from repro.metrics.point import rapidity, time_to_recovery
from repro.models.registry import make_model
from repro.observability.tracer import resolve_tracer
from repro.utils.tables import format_table

__all__ = ["EpisodeScore", "EpisodeScorecard", "episode_scorecard"]

logger = logging.getLogger("repro.analysis")


@dataclass(frozen=True)
class EpisodeScore:
    """Metrics and fit for one disruption episode.

    ``observed_recovery`` / ``predicted_recovery`` are durations from
    the episode start; ``None`` means not recovered / not predicted.
    """

    episode: Episode
    depth: float
    rapidity: float | None
    observed_recovery: float | None
    fit: FitResult | None
    predicted_recovery: float | None

    @property
    def name(self) -> str:
        return self.episode.curve.name

    @property
    def start_time(self) -> float:
        return float(self.episode.curve.times[0])


@dataclass
class EpisodeScorecard:
    """All episode scores for one history."""

    history: ResilienceCurve
    scores: list[EpisodeScore] = field(default_factory=list)
    band_tolerance: float = 0.01

    @property
    def n_episodes(self) -> int:
        return len(self.scores)

    @property
    def recovered_fraction(self) -> float | None:
        """Fraction of episodes that recovered within their window, or
        ``None`` for an empty scorecard (matching :meth:`worst_depth`
        and :meth:`median_recovery`)."""
        if not self.scores:
            return None
        recovered = sum(1 for s in self.scores if s.observed_recovery is not None)
        return recovered / len(self.scores)

    def median_recovery(self) -> float | None:
        """Median observed recovery duration, or None if none recovered."""
        durations = [
            s.observed_recovery for s in self.scores if s.observed_recovery is not None
        ]
        if not durations:
            return None
        return float(np.median(durations))

    def worst_depth(self) -> float | None:
        """Deepest episode's fractional depth."""
        if not self.scores:
            return None
        return max(s.depth for s in self.scores)

    def to_table(self) -> str:
        """Aligned text scorecard."""
        rows = []
        for score in self.scores:
            rows.append(
                [
                    score.name,
                    score.start_time,
                    score.depth,
                    score.rapidity if score.rapidity is not None else float("nan"),
                    (
                        f"{score.observed_recovery:.1f}"
                        if score.observed_recovery is not None
                        else "unrecovered"
                    ),
                    (
                        f"{score.predicted_recovery:.1f}"
                        if score.predicted_recovery is not None
                        else "n/a"
                    ),
                ]
            )
        recovered = self.recovered_fraction
        recovered_label = "n/a" if recovered is None else f"{recovered:.0%}"
        return format_table(
            ["Episode", "Start", "Depth", "Rapidity", "Observed rec.", "Model rec."],
            rows,
            title=(
                f"Episode scorecard — {self.history.name or '<history>'} "
                f"({self.n_episodes} episodes, "
                f"{recovered_label} recovered)"
            ),
            float_digits=4,
        )


def _phase_metrics(
    curve: ResilienceCurve, tolerance: float
) -> tuple[float | None, float | None]:
    """One episode's ``(rapidity, observed recovery)``, each ``None``
    when it cannot be computed. An unrecovered episode keeps its
    rapidity: only its recovery time is unavailable."""
    episode_rapidity: float | None = None
    try:
        phases = detect_phases(curve, tolerance=tolerance)
        episode_rapidity = rapidity(curve, phases)
        return episode_rapidity, time_to_recovery(curve, phases)
    except ReproError as exc:
        logger.debug("episode phase metrics unavailable: %s", exc)
        return episode_rapidity, None


def episode_scorecard(
    history: ResilienceCurve,
    *,
    model: str = "competing_risks",
    tolerance: float = 0.01,
    min_depth: float = 0.0,
    min_samples: int = 4,
    recovery_level: float | None = None,
    options: EngineOptions | None = None,
    **fit_kwargs: Any,
) -> EpisodeScorecard:
    """Build an :class:`EpisodeScorecard` for *history*.

    Parameters
    ----------
    history:
        The full performance record.
    model:
        Model family name fit to each episode.
    tolerance, min_depth, min_samples:
        Passed to :func:`~repro.core.episodes.split_episodes`; the same
        *tolerance* defines the recovery band for the observed
        recovery durations.
    recovery_level:
        Level for the model's predicted recovery; defaults to
        ``nominal·(1 − tolerance)``.
    options:
        :class:`~repro.fitting.options.EngineOptions` bundle for the
        one stacked solve of every episode's fit (``options.executor``
        maps their starts); scores are assembled in episode order on
        every backend. Enabling ``options.trace`` traces each episode's
        fit and wraps the whole scorecard in one
        ``"episodes.scorecard"`` span.
    fit_kwargs:
        Science kwargs passed through to
        :func:`~repro.fitting.fit_least_squares`; they win over the
        bundle's fields.
    """
    opts = options or DEFAULT_ENGINE_OPTIONS
    tracer = resolve_tracer(opts.trace)
    episodes = split_episodes(
        history, tolerance=tolerance, min_depth=min_depth, min_samples=min_samples
    )
    level = (
        history.nominal * (1.0 - tolerance)
        if recovery_level is None
        else float(recovery_level)
    )
    curves = [
        episode.curve.shifted(-float(episode.curve.times[0])) for episode in episodes
    ]
    start_settings = _pop_start_settings(fit_kwargs)
    pairs = [_FitPair(make_model(model), curve, **start_settings) for curve in curves]
    scorecard = EpisodeScorecard(history=history, band_tolerance=tolerance)
    with tracer.span(
        "episodes.scorecard",
        history=history.name or "<history>",
        n_episodes=len(episodes),
        model=model,
    ):
        fits = _fit_pairs(pairs, options=opts, **fit_kwargs)
        for episode, curve, entry in zip(episodes, curves, fits):
            fit = None if isinstance(entry, _FailedPair) else entry
            predicted: float | None = None
            if fit is not None:
                horizon = 100.0 * max(curve.duration, 1.0)
                try:
                    predicted = fit.model.recovery_time(level, horizon=horizon)
                except (ReproError, ValueError) as exc:
                    logger.debug("episode recovery unavailable: %s", exc)
            scorecard.scores.append(
                EpisodeScore(
                    episode, episode.depth, *_phase_metrics(curve, tolerance),
                    fit, predicted,
                )
            )
    return scorecard
