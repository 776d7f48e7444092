"""Tests for the episode scorecard."""

import numpy as np
import pytest

from repro.analysis.fleet import episode_scorecard
from repro.core.curve import ResilienceCurve
from repro.exceptions import ParameterError


@pytest.fixture(scope="module")
def history():
    """Two clean disruption episodes in a 60-sample history."""
    p = np.ones(60)
    p[10:20] = [0.95, 0.88, 0.82, 0.80, 0.82, 0.86, 0.90, 0.94, 0.97, 0.995]
    p[35:47] = [0.96, 0.90, 0.86, 0.84, 0.845, 0.86, 0.89, 0.92, 0.95, 0.97, 0.99, 0.995]
    return ResilienceCurve(np.arange(60.0), p, nominal=1.0, name="plant")


@pytest.fixture(scope="module")
def scorecard(history):
    return episode_scorecard(history, tolerance=0.01, n_random_starts=2)


class TestEpisodeScorecard:
    def test_two_episodes(self, scorecard):
        assert scorecard.n_episodes == 2

    def test_all_recovered(self, scorecard):
        assert scorecard.recovered_fraction == 1.0
        assert scorecard.median_recovery() is not None

    def test_depths(self, scorecard):
        depths = sorted(s.depth for s in scorecard.scores)
        assert depths[0] == pytest.approx(0.16, abs=0.02)
        assert depths[1] == pytest.approx(0.20, abs=0.02)
        assert scorecard.worst_depth() == pytest.approx(max(depths))

    def test_fits_attached(self, scorecard):
        for score in scorecard.scores:
            assert score.fit is not None
            assert score.fit.model.is_bound

    def test_predicted_recovery_near_observed(self, scorecard):
        """On clean bathtub-ish episodes the model's recovery estimate
        should land within a few samples of the observed one."""
        for score in scorecard.scores:
            assert score.predicted_recovery is not None
            assert score.observed_recovery is not None
            assert score.predicted_recovery == pytest.approx(
                score.observed_recovery, abs=4.0
            )

    def test_to_table_renders(self, scorecard):
        table = scorecard.to_table()
        assert "plant#0" in table
        assert "plant#1" in table
        assert "100% recovered" in table

    def test_no_episodes(self):
        """Empty scorecards answer None uniformly across the three
        aggregates (recovered_fraction historically returned NaN)."""
        flat = ResilienceCurve(np.arange(20.0), np.ones(20), name="calm")
        scorecard = episode_scorecard(flat)
        assert scorecard.n_episodes == 0
        assert scorecard.recovered_fraction is None
        assert scorecard.median_recovery() is None
        assert scorecard.worst_depth() is None
        assert "n/a recovered" in scorecard.to_table()

    def test_unrecovered_episode_handled(self):
        p = np.concatenate([np.ones(6), [0.9, 0.8, 0.75, 0.73, 0.72, 0.71]])
        history = ResilienceCurve(np.arange(12.0), p, name="sinking")
        scorecard = episode_scorecard(history, min_samples=4, n_random_starts=0)
        assert scorecard.n_episodes == 1
        assert scorecard.scores[0].observed_recovery is None
        assert "unrecovered" in scorecard.to_table()

    def test_unrecovered_episode_keeps_its_rapidity(self):
        # Dips, partly recovers, and ends still below the band: the
        # recovery time is unavailable but the recovering slope is not.
        p = np.concatenate([np.ones(6), [0.9, 0.8, 0.75, 0.78, 0.82, 0.86, 0.9]])
        history = ResilienceCurve(np.arange(13.0), p, name="half-back")
        scorecard = episode_scorecard(history, min_samples=4, n_random_starts=0)
        assert scorecard.n_episodes == 1
        score = scorecard.scores[0]
        assert score.observed_recovery is None
        assert score.rapidity is not None and score.rapidity > 0.0

    def test_unknown_model_raises(self, history):
        with pytest.raises(ParameterError, match="unknown model"):
            episode_scorecard(history, model="nosuch")
