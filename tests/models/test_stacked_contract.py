"""Every family's scalar methods are the one-row case of its stacked ones.

scipy's reference solve calls ``evaluate`` and ``prediction_jacobian``;
the LM screen and the trf kernel call ``evaluate_batch`` and
``prediction_jacobian_batch`` on stacks of starts. Fits agree across
engines only if row ``b`` of a stack is, bit for bit, what the scalar
method returns for problem ``b`` — alone or stacked under others. The
Weibull shape seed 2 is the hard case: numpy squares a scalar exponent
of 2 by a shortcut that rounds differently from ``pow``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions.weibull import Weibull
from repro.fitting.multistart import generate_starts
from repro.models.registry import available_models, make_model
from repro.models.trends import available_trends, get_trend_class

#: Every registered family, each trend on ``wei-wei``, and the variants
#: the registry list leaves out: a partial mixture with a Weibull shape
#: on both sides, the quadratic segmented model, and a mixture over a
#: distribution without a vectorized CDF.
FAMILIES = tuple(
    dict.fromkeys(
        available_models()
        + tuple(f"wei-wei({trend})" for trend in available_trends())
        + ("partial-wei-wei", "segmented(quadratic)", "gamma-exp")
    )
)

ANALYTIC = tuple(name for name in FAMILIES if make_model(name).has_analytic_jacobian)


def _stack(name, curve):
    """The family and its starts on *curve* (heuristic seeds plus four
    random ones, as a golden-table fit draws them), with one time grid
    per start."""
    family = make_model(name)
    starts = np.asarray(generate_starts(family, curve, n_random=4), dtype=np.float64)
    times = np.tile(curve.times, (len(starts), 1))
    return family, times, starts


def test_wei_wei_starts_hold_the_shortcut_shape(recession_1990):
    """The stacks below include Weibull shapes of exactly 2."""
    _, _, starts = _stack("wei-wei", recession_1990)
    assert len(starts) == 12
    assert np.any(starts[:, [1, 3]] == 2.0)


@pytest.mark.parametrize("name", FAMILIES)
def test_evaluate_is_the_one_row_batch(name, recession_1990):
    family, times, starts = _stack(name, recession_1990)
    stacked = family.evaluate_batch(times, starts)
    assert stacked.shape == times.shape
    for row, start in enumerate(starts):
        scalar = family.evaluate(recession_1990.times, tuple(start))
        alone = family.evaluate_batch(times[row : row + 1], starts[row : row + 1])
        assert np.array_equal(scalar, stacked[row], equal_nan=True), row
        assert np.array_equal(scalar, alone[0], equal_nan=True), row


@pytest.mark.parametrize("name", ANALYTIC)
def test_prediction_jacobian_is_the_one_row_batch(name, recession_1990):
    family, times, starts = _stack(name, recession_1990)
    stacked = family.prediction_jacobian_batch(times, starts)
    assert stacked.shape == times.shape + (family.n_params,)
    for row, start in enumerate(starts):
        scalar = family.prediction_jacobian(recession_1990.times, start)
        alone = family.prediction_jacobian_batch(
            times[row : row + 1], starts[row : row + 1]
        )
        assert np.array_equal(scalar, stacked[row], equal_nan=True), row
        assert np.array_equal(scalar, alone[0], equal_nan=True), row


@pytest.mark.parametrize("name", ["segmented", "gamma-exp"])
def test_family_without_closed_form_differences_numerically(name, recession_1990):
    """No stacked Jacobian; the scalar one is a finite difference."""
    family, times, starts = _stack(name, recession_1990)
    assert not family.has_analytic_jacobian
    with pytest.raises(NotImplementedError, match="closed-form"):
        family.prediction_jacobian_batch(times, starts)
    jacobian = family.prediction_jacobian(recession_1990.times, starts[0])
    assert jacobian.shape == (times.shape[1], family.n_params)
    assert np.all(np.isfinite(jacobian))


@pytest.mark.parametrize("trend", available_trends())
def test_trend_value_is_the_one_row_batch(trend):
    cls = get_trend_class(trend)
    times = np.linspace(0.0, 47.0, 48)
    betas = np.array([-0.7, 0.0, 0.3, 2.0])
    stack = np.tile(times, (len(betas), 1))
    values = cls.value_batch(stack, betas)
    gradients = cls.beta_gradient_batch(stack, betas)
    for row, beta in enumerate(betas):
        assert np.array_equal(cls.value(times, float(beta)), values[row])
        assert np.array_equal(cls.beta_gradient(times, float(beta)), gradients[row])


@pytest.mark.parametrize("k", [2.0, 0.5, 1.0, 1.7])
def test_weibull_rows_equal_the_scalar_cdf(k):
    """A stacked Weibull row rounds as ``Weibull.cdf`` does, also for
    the shapes numpy raises by a shortcut."""
    times = np.linspace(0.0, 47.0, 48)
    stack = np.array([[6.0, k], [3.0, 1.3], [6.0, k]])
    values = Weibull.cdf_batch(np.tile(times, (3, 1)), stack)
    assert np.array_equal(values[0], Weibull(6.0, k).cdf(times))
    assert np.array_equal(values[2], Weibull(6.0, k).cdf(times))
