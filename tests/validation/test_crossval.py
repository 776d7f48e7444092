"""Tests for the predictive evaluation protocol."""

import numpy as np
import pytest

from repro.models.competing_risks import CompetingRisksResilienceModel
from repro.models.quadratic import QuadraticResilienceModel
from repro.validation.crossval import evaluate_predictive
from repro.validation.gof import pmse


class TestEvaluatePredictive:
    def test_paper_protocol_split(self, recession_1990):
        evaluation = evaluate_predictive(
            QuadraticResilienceModel(), recession_1990, train_fraction=0.9
        )
        assert len(evaluation.train) == 43
        assert len(evaluation.test) == 5
        assert evaluation.split_time == 43.0

    def test_measures_consistent_with_fit(self, recession_1990):
        evaluation = evaluate_predictive(QuadraticResilienceModel(), recession_1990)
        assert evaluation.measures.sse == pytest.approx(evaluation.fit.sse)
        expected_pmse = pmse(
            evaluation.test.performance,
            evaluation.model.predict(evaluation.test.times),
        )
        assert evaluation.measures.pmse == pytest.approx(expected_pmse)

    def test_band_spans_full_curve(self, recession_1990):
        evaluation = evaluate_predictive(QuadraticResilienceModel(), recession_1990)
        assert evaluation.band.center.size == len(recession_1990)

    def test_coverage_in_unit_interval(self, recession_1990):
        evaluation = evaluate_predictive(
            CompetingRisksResilienceModel(), recession_1990
        )
        assert 0.0 <= evaluation.measures.empirical_coverage <= 1.0

    def test_good_fit_on_u_shape(self, recession_1990):
        evaluation = evaluate_predictive(
            CompetingRisksResilienceModel(), recession_1990
        )
        assert evaluation.measures.r2_adjusted > 0.9

    def test_poor_fit_on_l_shape(self, recession_2020):
        """The paper's central negative result: bathtub models cannot
        track the 2020-21 sharp-drop curve."""
        evaluation = evaluate_predictive(QuadraticResilienceModel(), recession_2020)
        assert evaluation.measures.r2_adjusted < 0.5

