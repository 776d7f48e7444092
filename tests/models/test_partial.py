"""Tests for the partial-degradation mixture model."""

import numpy as np
import pytest

from repro.datasets.recessions import load_recession
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.options import EngineOptions
from repro.models.mixture import MixtureResilienceModel
from repro.models.partial import PartialDegradationMixtureModel
from repro.validation.crossval import evaluate_predictive


class TestConfiguration:
    def test_name_prefixed(self):
        assert PartialDegradationMixtureModel("wei", "exp").name == "partial-wei-exp"

    def test_extra_parameter(self):
        base = MixtureResilienceModel("wei", "exp")
        partial = PartialDegradationMixtureModel("wei", "exp")
        assert partial.n_params == base.n_params + 1
        assert partial.param_names[-1] == "w"

    def test_amplitude_bounds(self):
        partial = PartialDegradationMixtureModel("wei", "exp")
        assert partial.lower_bounds[-1] > 0.0
        assert partial.upper_bounds[-1] == 1.0


class TestEvaluate:
    def test_w_one_recovers_paper_model(self):
        """With w = 1 the partial model is exactly Eq. (7) with a₁=1."""
        base = MixtureResilienceModel("wei", "exp")
        partial = PartialDegradationMixtureModel("wei", "exp")
        mixture_params = (10.0, 2.0, 8.0, 0.05)
        t = np.linspace(0.0, 47.0, 48)
        np.testing.assert_allclose(
            partial.evaluate(t, mixture_params + (1.0,)),
            base.evaluate(t, mixture_params),
        )

    def test_plateau_at_one_minus_w(self):
        """With no recovery (β = 0), performance settles at 1 − w."""
        partial = PartialDegradationMixtureModel("wei", "exp")
        params = (2.0, 3.0, 8.0, 0.0, 0.3)
        late = float(partial.evaluate([100.0], params)[0])
        assert late == pytest.approx(0.7, abs=1e-4)

    def test_starts_at_one(self):
        partial = PartialDegradationMixtureModel("wei", "exp")
        params = (2.0, 3.0, 8.0, 0.5, 0.3)
        assert float(partial.evaluate([0.0], params)[0]) == pytest.approx(1.0)

    def test_components(self):
        model = PartialDegradationMixtureModel("wei", "exp").bind(
            (2.0, 3.0, 8.0, 0.05, 0.3)
        )
        t = np.linspace(0.0, 20.0, 21)
        degradation, recovery = model.components(t)
        np.testing.assert_allclose(degradation + recovery, model.predict(t))
        assert float(degradation[-1]) == pytest.approx(0.7, abs=1e-3)


class TestInitialGuesses:
    def test_amplitude_seeded_from_depth(self):
        curve = load_recession("2020-21")
        model = PartialDegradationMixtureModel("wei", "exp")
        guesses = model.initial_guesses(curve)
        amplitudes = {g[-1] for g in guesses}
        # Both the observed-depth seed (~0.145) and the w=1 fallback.
        assert any(abs(w - curve.degradation_depth) < 0.01 for w in amplitudes)
        assert 1.0 in amplitudes


class TestBatch:
    def test_batch_rows_equal_the_scalar_methods(self, recession_2020):
        """The stacked methods carry ``w``: row for row they are the
        scalar evaluation and Jacobian, one column per parameter."""
        model = PartialDegradationMixtureModel("wei", "exp")
        starts = np.asarray(model.initial_guesses(recession_2020)[:3])
        times = np.tile(recession_2020.times, (len(starts), 1))
        values = model.evaluate_batch(times, starts)
        jacobians = model.prediction_jacobian_batch(times, starts)
        assert jacobians.shape == (len(starts), times.shape[1], model.n_params)
        for row, start in enumerate(starts):
            assert np.array_equal(values[row], model.evaluate(times[row], start))
            assert np.array_equal(
                jacobians[row], model.prediction_jacobian(times[row], start)
            )

    def test_batched_engine_fits_like_scipy(self, recession_2020):
        """The batched engine screens a partial mixture and confirms it,
        like any closed-form family; it used to raise on the stacked
        Jacobian's missing ``w`` column."""
        fits = {
            engine: fit_least_squares(
                PartialDegradationMixtureModel("wei", "exp"),
                recession_2020,
                n_random_starts=2,
                options=EngineOptions(cache=False, engine=engine),
            )
            for engine in ("scipy", "batched")
        }
        assert fits["batched"].params == fits["scipy"].params
        assert fits["batched"].sse == fits["scipy"].sse


class TestFitsLShape:
    """The headline extension result: partial mixtures fix 2020-21."""

    def test_beats_paper_mixture_on_2020(self, recession_2020):
        partial = evaluate_predictive(
            PartialDegradationMixtureModel("wei", "exp"),
            recession_2020,
            n_random_starts=8,
        )
        paper = evaluate_predictive(
            MixtureResilienceModel("wei", "exp"), recession_2020, n_random_starts=8
        )
        assert partial.measures.r2_adjusted > 0.9
        assert partial.measures.r2_adjusted > paper.measures.r2_adjusted + 0.2

    def test_fitted_amplitude_matches_crash_depth(self, recession_2020):
        evaluation = evaluate_predictive(
            PartialDegradationMixtureModel("wei", "exp"),
            recession_2020,
            n_random_starts=8,
        )
        w = evaluation.model.param_dict["w"]
        assert w == pytest.approx(recession_2020.degradation_depth, abs=0.05)
