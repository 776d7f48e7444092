"""Segmented (two-episode) bathtub models — the paper's future work.

The paper's conclusion: W-shaped curves "deviate from the assumption of
a single decrease and subsequent increase [and] cannot be characterized
well by either class of model proposed, necessitating additional
modeling efforts that can capture these more general scenarios."

A W is two bathtub episodes in sequence. This model concatenates two
single-episode bathtub curves at a fitted changepoint ``c``::

    P(t) = λ₁(t)        for t < c
    P(t) = λ₂(t − c)    for t ≥ c

where each λᵢ is a quadratic (Eq. 1) or competing-risks (Eq. 4) rate
with its own parameters. Continuity at the changepoint is not imposed
as a hard constraint — the least-squares objective drives the two
branches together — which keeps the parameter space a simple box.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._typing import FloatArray
from repro.core.curve import ResilienceCurve
from repro.exceptions import ParameterError
from repro.models.base import ResilienceModel
from repro.models.competing_risks import CompetingRisksResilienceModel
from repro.models.quadratic import QuadraticResilienceModel

__all__ = ["SegmentedBathtubModel"]

#: Episode families that can be concatenated.
_EPISODES = {
    "competing_risks": CompetingRisksResilienceModel,
    "quadratic": QuadraticResilienceModel,
}


class SegmentedBathtubModel(ResilienceModel):
    """Two bathtub episodes joined at a fitted changepoint.

    Parameters
    ----------
    episode:
        Family of each episode: ``"competing_risks"`` (default) or
        ``"quadratic"``.

    Notes
    -----
    The flat parameter vector is ``(first episode params, second
    episode params, changepoint)`` — 7 parameters for either episode
    family. With more than twice the parameters of a single-episode
    model, adjusted R² (Eq. 11) penalizes it accordingly; it should win
    only where the data genuinely contain two episodes.
    """

    def __init__(self, episode: str = "competing_risks") -> None:
        super().__init__()
        key = episode.strip().lower()
        if key not in _EPISODES:
            known = ", ".join(sorted(_EPISODES))
            raise ParameterError(f"unknown episode family {episode!r}; known: {known}")
        self._episode_family = _EPISODES[key]()
        self.name = "segmented" if key == "competing_risks" else f"segmented({key})"

    # ------------------------------------------------------------------
    # Family metadata
    # ------------------------------------------------------------------
    @property
    def episode_family(self) -> ResilienceModel:
        """The unbound single-episode family."""
        return self._episode_family

    @property
    def param_names(self) -> tuple[str, ...]:
        inner = self._episode_family.param_names
        return (
            tuple(f"e1_{n}" for n in inner)
            + tuple(f"e2_{n}" for n in inner)
            + ("changepoint",)
        )

    @property
    def lower_bounds(self) -> tuple[float, ...]:
        inner = self._episode_family.lower_bounds
        return inner + inner + (0.0,)

    @property
    def upper_bounds(self) -> tuple[float, ...]:
        inner = self._episode_family.upper_bounds
        return inner + inner + (1e4,)

    def _split(
        self, params: Sequence[float]
    ) -> tuple[tuple[float, ...], tuple[float, ...], float]:
        k = self._episode_family.n_params
        vector = tuple(float(v) for v in params)
        return vector[:k], vector[k : 2 * k], vector[2 * k]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_batch(self, times: FloatArray, params: FloatArray) -> FloatArray:
        t = np.asarray(times, dtype=np.float64)
        p = np.asarray(params, dtype=np.float64)
        k = self._episode_family.n_params
        changepoint = p[:, 2 * k : 2 * k + 1]
        first = self._episode_family.evaluate_batch(t, p[:, :k])
        second = self._episode_family.evaluate_batch(
            np.maximum(t - changepoint, 0.0), p[:, k : 2 * k]
        )
        return np.where(t < changepoint, first, second)

    def episodes(self) -> tuple[ResilienceModel, ResilienceModel, float]:
        """The two bound episode models and the changepoint."""
        p1, p2, changepoint = self._split(self.params)
        return (
            self._episode_family.bind(p1),
            self._episode_family.bind(p2),
            changepoint,
        )

    # ------------------------------------------------------------------
    # Initial guesses
    # ------------------------------------------------------------------
    def initial_guesses(self, curve: ResilienceCurve) -> list[tuple[float, ...]]:
        """Candidate changepoints at the rebound between dips.

        For each candidate ``c`` (the interior local maximum of the
        smoothed curve, plus window fractions around the middle), the
        two sub-curves are given to the episode family's own heuristics.
        """
        times = curve.times
        window = curve.duration
        t0 = float(times[0])

        candidates = {t0 + f * window for f in (0.35, 0.5, 0.65)}
        rebound = self._interior_maximum(curve)
        if rebound is not None:
            candidates.add(rebound)

        guesses: list[tuple[float, ...]] = []
        for changepoint in sorted(candidates):
            mask = times < changepoint
            if int(mask.sum()) < 3 or int((~mask).sum()) < 3:
                continue
            first_curve = ResilienceCurve(
                times[mask], curve.performance[mask], nominal=curve.nominal
            )
            second_curve = ResilienceCurve(
                times[~mask] - changepoint,
                curve.performance[~mask],
                nominal=curve.nominal,
            )
            firsts = self._episode_family.initial_guesses(first_curve)
            seconds = self._episode_family.initial_guesses(second_curve)
            guess = firsts[0] + seconds[0] + (changepoint,)
            clipped = tuple(
                float(np.clip(v, lo, hi))
                for v, lo, hi in zip(guess, self.lower_bounds, self.upper_bounds)
            )
            if clipped not in guesses:
                guesses.append(clipped)
        if not guesses:
            # Degenerate curve: fall back to a midpoint split with the
            # episode family's guesses on the whole curve.
            base = self._episode_family.initial_guesses(curve)[0]
            guesses.append(base + base + (t0 + 0.5 * window,))
        return guesses

    @staticmethod
    def _interior_maximum(curve: ResilienceCurve) -> float | None:
        """Time of the highest smoothed point strictly between the two
        deepest *separate* dips, or ``None`` for a single-dip curve."""
        from scipy.signal import argrelmin

        perf = curve.performance
        if len(curve) < 7:
            return None
        kernel = np.ones(3) / 3.0
        smoothed = np.convolve(np.pad(perf, 1, mode="edge"), kernel, mode="valid")
        minima = argrelmin(smoothed, order=3)[0]
        if minima.size < 2:
            return None
        # Two deepest local minima, in time order.
        deepest = minima[np.argsort(smoothed[minima])[:2]]
        lo, hi = int(deepest.min()), int(deepest.max())
        if hi - lo < 3:
            return None
        rebound = lo + int(np.argmax(smoothed[lo : hi + 1]))
        return float(curve.times[rebound])
