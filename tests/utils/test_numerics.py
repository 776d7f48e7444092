"""Tests for repro.utils.numerics."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from repro.utils.numerics import (
    as_float_array,
    clip_positive,
    nearly_equal,
    safe_exp,
    solve_quadratic,
)


class TestAsFloatArray:
    def test_list_to_array(self):
        out = as_float_array([1, 2, 3])
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_scalar_promoted_to_1d(self):
        assert as_float_array(5.0).shape == (1,)

    def test_2d_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_float_array([[1.0, 2.0]])

    def test_contiguous(self):
        strided = np.arange(10.0)[::2]
        assert as_float_array(strided).flags["C_CONTIGUOUS"]


class TestSafeExpLog:
    def test_safe_exp_no_overflow(self):
        out = safe_exp(np.array([1e4]))
        assert np.isfinite(out).all()

    def test_safe_exp_matches_exp_in_range(self):
        x = np.linspace(-50, 50, 11)
        np.testing.assert_allclose(safe_exp(x), np.exp(x))


class TestClipPositive:
    def test_negative_clipped(self):
        out = clip_positive(np.array([-1.0, 0.0, 2.0]))
        assert (out > 0.0).all()
        assert out[2] == 2.0


class TestNearlyEqual:
    def test_exact(self):
        assert nearly_equal(1.0, 1.0)

    def test_relative(self):
        assert nearly_equal(1.0, 1.0 + 1e-12)
        assert not nearly_equal(1.0, 1.001)


class TestSolveQuadratic:
    def test_two_roots(self):
        roots = solve_quadratic(1.0, -3.0, 2.0)  # (x-1)(x-2)
        assert roots == pytest.approx((1.0, 2.0))

    def test_double_root(self):
        roots = solve_quadratic(1.0, -2.0, 1.0)
        assert roots == pytest.approx((1.0,))

    def test_no_real_roots(self):
        assert solve_quadratic(1.0, 0.0, 1.0) == ()

    def test_linear_case(self):
        assert solve_quadratic(0.0, 2.0, -4.0) == pytest.approx((2.0,))

    def test_degenerate_constant(self):
        assert solve_quadratic(0.0, 0.0, 1.0) == ()

    def test_cancellation_stability(self):
        # b² ≫ 4ac: naive formula loses the small root entirely.
        roots = solve_quadratic(1.0, -1e8, 1.0)
        assert len(roots) == 2
        small, large = roots
        assert small == pytest.approx(1e-8, rel=1e-6)
        assert large == pytest.approx(1e8, rel=1e-6)

    @given(
        a=st.floats(-100, 100).filter(lambda v: abs(v) > 1e-6),
        r1=st.floats(-50, 50),
        r2=st.floats(-50, 50),
    )
    def test_roots_satisfy_equation(self, a, r1, r2):
        # Near-double roots make the discriminant cancel to a tiny
        # negative number; that is inherent float behaviour, not a bug.
        assume(abs(r1 - r2) > 1e-3)
        b = -a * (r1 + r2)
        c = a * r1 * r2
        roots = solve_quadratic(a, b, c)
        assert roots, "constructed quadratic must have real roots"
        for root in roots:
            residual = a * root * root + b * root + c
            scale = max(abs(a), abs(b), abs(c), 1.0)
            assert abs(residual) < 1e-6 * scale * max(abs(root), 1.0) ** 2

    @given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100))
    def test_roots_sorted_ascending(self, a, b, c):
        roots = solve_quadratic(a, b, c)
        assert list(roots) == sorted(roots)
