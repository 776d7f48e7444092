"""Analytic prediction Jacobians vs finite differences.

Property tests: for every registered family that claims a closed-form
Jacobian, the analytic ``prediction_jacobian`` must agree with scipy's
``approx_derivative`` at random feasible points and at boundary-adjacent
points — under every transition trend for the mixtures. Families without
a closed form must fall back to validated finite differences.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize._numdiff import approx_derivative

from repro.models.base import ResilienceModel
from repro.models.competing_risks import CompetingRisksResilienceModel
from repro.models.mixture import MixtureResilienceModel
from repro.models.partial import PartialDegradationMixtureModel
from repro.models.quadratic import QuadraticResilienceModel
from repro.models.registry import available_models, make_model
from repro.models.trends import available_trends

#: Evaluation grid: includes t = 0 (Weibull/log-trend edge) and a long
#: tail where the Weibull survival factor underflows.
TIMES = np.array([0.0, 0.25, 1.0, 3.0, 7.0, 14.0, 30.0, 59.0, 120.0])

#: Agreement bound at interior feasible points. The reference is
#: 3-point finite differences, whose own truncation error is ~1e-8
#: relative on these scales; 1e-6 leaves margin for that.
RTOL = 1e-6

#: Bound for boundary-adjacent probes. Near scale bounds like θ ≈ 1e8
#: the CDF barely moves over the test grid (F ~ 1e-6 against a survival
#: term ~ 1), so the FD *reference* loses ~10 digits to subtractive
#: cancellation and carries ~1e-5 relative noise. A wrong analytic term
#: would err at O(1), so the looser bound loses no detection power.
BOUNDARY_RTOL = 2e-5

#: Mixture pairings of the paper (Table III) plus the trend sweep.
MIXTURE_PAIRS = [("exp", "exp"), ("wei", "exp"), ("exp", "wei"), ("wei", "wei")]


def _reference_jacobian(
    model: ResilienceModel, vector: np.ndarray, rel_step: float
) -> np.ndarray:
    lower = np.minimum(np.asarray(model.lower_bounds, dtype=np.float64), vector)
    upper = np.maximum(np.asarray(model.upper_bounds, dtype=np.float64), vector)
    flat = approx_derivative(
        lambda x: model.evaluate(TIMES, x).ravel(),
        vector,
        method="3-point",
        rel_step=rel_step,
        bounds=(lower, upper),
    )
    return np.asarray(flat, dtype=np.float64).reshape(TIMES.size, vector.size)


def _error_matrix(
    model: ResilienceModel, vector: np.ndarray,
    analytic: np.ndarray, reference: np.ndarray,
) -> np.ndarray:
    # Normalize per column by that column's overall magnitude:
    # elementwise |J|-denominators punish entries that are tiny relative
    # to their column (pure FD noise), while a column-scale denominator
    # still catches any genuinely wrong term. Columns smaller than 1e-6
    # of the prediction scale are floored at that — such columns are
    # invisible to both the optimizer and the FD reference (central
    # differences of P ~ 1 carry ~1e-12 absolute noise), so demanding
    # relative agreement inside them only measures roundoff.
    prediction_scale = max(1.0, float(np.abs(model.evaluate(TIMES, vector)).max()))
    scale = np.maximum(np.abs(reference).max(axis=0), 1e-6 * prediction_scale)
    return np.abs(analytic - reference) / scale


def _relative_error(
    model: ResilienceModel, vector: np.ndarray, analytic: np.ndarray
) -> float:
    """Max entrywise disagreement against the *better* of two FD
    references. Central differences face a step-size dilemma here: a
    coarse step (1e-4) washes out subtractive-cancellation roundoff
    near huge scale bounds (θ ~ 1e8, where F(t) ≈ t/θ ~ 1e-6 rides on a
    survival term ~ 1), while a fine step (1e-6) keeps truncation small
    where the model is violently curved (the e^{βt} trend at β ≈ 1 has
    relative truncation (h·t)²/6 ≈ 2e-5 at the coarse step). Each entry
    only needs to agree with one reference — a wrong analytic term errs
    at O(1) and fails against both."""
    errors = [
        _error_matrix(
            model, vector, analytic, _reference_jacobian(model, vector, rel_step)
        )
        for rel_step in (1e-4, 1e-5, 1e-6)
    ]
    return float(np.max(np.minimum.reduce(errors)))


def _random_feasible(model: ResilienceModel, rng: np.random.Generator) -> np.ndarray:
    lower = np.asarray(model.lower_bounds, dtype=np.float64)
    upper = np.asarray(model.upper_bounds, dtype=np.float64)
    # Sample log-uniformly over each span (clipped so huge bounds like
    # theta ≤ 1e4 still yield plausible magnitudes), keeping clear of
    # both boundaries.
    span_lo = np.maximum(lower, 1e-3)
    span_hi = np.minimum(np.abs(upper), 1e3)
    draw = np.exp(
        rng.uniform(np.log(span_lo), np.log(np.maximum(span_hi, span_lo * 2)))
    )
    draw = np.where(upper <= 0.0, -draw, draw)  # beta ≤ 0 ranges (quadratic)
    return np.clip(draw, lower + 1e-6 * (upper - lower), upper - 1e-6 * (upper - lower))


def _random_verifiable(
    model: ResilienceModel, rng: np.random.Generator
) -> np.ndarray:
    """A random feasible vector where FD verification is possible.

    Draws where the prediction blows up (e^{βt} at large β pushes P to
    ~1e5) are rejected: central differences there resolve at best
    ``eps·|P|/h`` ≈ 1e-5 absolute, so small Jacobian entries are
    unverifiable by *any* FD reference even when the analytic value is
    exact. Moderate-β draws still exercise every trend's gradient path.
    """
    for _ in range(100):
        vector = _random_feasible(model, rng)
        if float(np.abs(model.evaluate(TIMES, vector)).max()) <= 1e3:
            return vector
    raise AssertionError(f"no verifiable draw found for {model.name}")


def _boundary_adjacent(model: ResilienceModel) -> list[np.ndarray]:
    lower = np.asarray(model.lower_bounds, dtype=np.float64)
    upper = np.asarray(model.upper_bounds, dtype=np.float64)
    span = upper - lower
    mid = np.clip(lower + 0.5 * span, lower, upper)
    near_lower = lower + 1e-4 * span
    near_upper = upper - 1e-4 * span
    vectors = []
    for j in range(lower.size):
        for probe in (near_lower, near_upper):
            vector = mid.copy()
            vector[j] = probe[j]
            vectors.append(vector)
    return vectors


def _analytic_models() -> list[ResilienceModel]:
    models: list[ResilienceModel] = [
        QuadraticResilienceModel(),
        CompetingRisksResilienceModel(),
    ]
    for trend in available_trends():
        for f1, f2 in MIXTURE_PAIRS:
            models.append(MixtureResilienceModel(f1, f2, trend=trend))
    models.append(PartialDegradationMixtureModel())
    return models


@pytest.mark.parametrize(
    "model", _analytic_models(), ids=lambda m: m.name
)
class TestAnalyticJacobian:
    def test_flag_is_set(self, model):
        assert model.has_analytic_jacobian

    def test_matches_fd_at_random_points(self, model):
        # zlib.crc32, not hash(): str hashing is salted per process, and
        # a salted seed would make the sampled vectors non-reproducible.
        import zlib

        rng = np.random.default_rng(zlib.crc32(model.name.encode()))
        for _ in range(8):
            vector = _random_verifiable(model, rng)
            analytic = model.prediction_jacobian(TIMES, vector)
            err = _relative_error(model, vector, analytic)
            assert err < RTOL, (
                f"{model.name} at {vector}: max relative error {err:.3g}"
            )

    def test_matches_fd_near_boundaries(self, model):
        for vector in _boundary_adjacent(model):
            analytic = model.prediction_jacobian(TIMES, vector)
            err = _relative_error(model, vector, analytic)
            assert err < BOUNDARY_RTOL, (
                f"{model.name} near boundary {vector}: "
                f"max relative error {err:.3g}"
            )

    def test_residual_jacobian_is_negated(self, model):
        from repro.core.curve import ResilienceCurve

        rng = np.random.default_rng(7)
        vector = _random_feasible(model, rng)
        curve = ResilienceCurve(
            TIMES, np.linspace(1.0, 0.9, TIMES.size), nominal=1.0
        )
        np.testing.assert_allclose(
            model.jacobian(curve, vector),
            -model.prediction_jacobian(curve.times, vector),
        )


class TestNumericFallback:
    def test_every_registered_family_has_a_jacobian(self):
        """The FD fallback makes prediction_jacobian universal: every
        registered family returns a finite (n, m) matrix."""
        for name in available_models():
            model = make_model(name)
            lower = np.asarray(model.lower_bounds, dtype=np.float64)
            upper = np.asarray(model.upper_bounds, dtype=np.float64)
            vector = np.clip(
                lower + 0.3 * (np.minimum(upper, lower + 10.0) - lower),
                lower,
                upper,
            )
            times = TIMES[TIMES <= 59.0]
            jacobian = model.prediction_jacobian(times, vector)
            assert jacobian.shape == (times.size, model.n_params)
            assert np.all(np.isfinite(jacobian))

    def test_fallback_matches_scipy_reference(self):
        """A family without a closed form (segmented, if registered;
        else the base-class path exercised via a mixture with the FD
        route forced) agrees with approx_derivative."""
        model = MixtureResilienceModel("wei", "exp")
        rng = np.random.default_rng(3)
        vector = _random_feasible(model, rng)
        numeric = model._numeric_prediction_jacobian(TIMES, vector)
        assert _relative_error(model, vector, numeric) < 1e-4
