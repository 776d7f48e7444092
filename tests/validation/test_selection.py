"""Tests for automatic model selection with shape gating."""

import pytest

from repro.core.shapes import CurveShape
from repro.datasets.recessions import load_recession
from repro.exceptions import MetricError
from repro.validation.selection import DEFAULT_CANDIDATES, recommend_model

_FAST = {"n_random_starts": 2}


class TestRecommendModel:
    def test_unknown_criterion(self, recession_1990):
        with pytest.raises(MetricError, match="criterion"):
            recommend_model(recession_1990, criterion="vibes")

    def test_default_candidates_are_papers(self):
        assert DEFAULT_CANDIDATES == (
            "quadratic",
            "competing_risks",
            "exp-exp",
            "wei-exp",
            "exp-wei",
            "wei-wei",
        )

    def test_misspelled_keyword_is_a_type_error(self, recession_1990):
        """A typo in a fit keyword must not read as every candidate
        failing to converge."""
        with pytest.raises(TypeError, match="n_random_start"):
            recommend_model(recession_1990, n_random_start=2)

    def test_scores_sorted_best_first(self, recession_1990):
        rec = recommend_model(recession_1990, criterion="aic", **_FAST)
        values = list(rec.scores.values())
        assert values == sorted(values)  # AIC: lower is better
        assert rec.best_name == next(iter(rec.scores))

    def test_r2_criterion_sorted_descending(self, recession_1990):
        rec = recommend_model(recession_1990, criterion="r2_adjusted", **_FAST)
        values = list(rec.scores.values())
        assert values == sorted(values, reverse=True)

    def test_best_property(self, recession_1990):
        rec = recommend_model(recession_1990, **_FAST)
        assert rec.best is rec.evaluations[rec.best_name]

    def test_explicit_candidates(self, recession_1990):
        rec = recommend_model(
            recession_1990,
            candidates=("quadratic", "competing_risks"),
            shape_gate=False,
            **_FAST,
        )
        assert set(rec.scores) <= {"quadratic", "competing_risks"}
        assert rec.shape is None


class TestShapeGating:
    def test_w_curve_unlocks_segmented(self):
        curve = load_recession("1980")
        rec = recommend_model(curve, criterion="aic", **_FAST)
        assert rec.shape is CurveShape.W
        assert any(name.startswith("segmented") for name in rec.scores)

    def test_l_curve_unlocks_partial(self):
        curve = load_recession("2020-21")
        rec = recommend_model(curve, criterion="aic", **_FAST)
        assert rec.shape is CurveShape.L
        assert any(name.startswith("partial") for name in rec.scores)

    def test_l_curve_best_is_an_extension(self):
        """On 2020-21 the shape-gated extensions must beat all six of
        the paper's families (the point of the extension)."""
        curve = load_recession("2020-21")
        rec = recommend_model(curve, criterion="aic", n_random_starts=4)
        assert rec.best_name.startswith("partial")

    def test_u_curve_adds_nothing(self, recession_1990):
        rec = recommend_model(recession_1990, criterion="aic", **_FAST)
        assert rec.shape is CurveShape.U
        assert set(rec.scores) | set(rec.failed) == set(DEFAULT_CANDIDATES)
