"""Tests for repro.utils.integrate."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.integrate import adaptive_quad, trapezoid_integral


class TestTrapezoidIntegral:
    def test_constant(self):
        assert trapezoid_integral([0, 1, 2], [3, 3, 3]) == pytest.approx(6.0)

    def test_linear_exact(self):
        t = np.linspace(0, 4, 9)
        assert trapezoid_integral(t, 2 * t) == pytest.approx(16.0)

    def test_irregular_grid(self):
        t = [0.0, 0.5, 2.0, 3.0]
        v = [1.0, 1.0, 1.0, 1.0]
        assert trapezoid_integral(t, v) == pytest.approx(3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trapezoid_integral([0, 1], [1, 2, 3])

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="two samples"):
            trapezoid_integral([0], [1])

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            trapezoid_integral([0, 2, 1], [1, 1, 1])

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=30),
    )
    def test_linearity_in_values(self, values):
        t = np.arange(len(values), dtype=float)
        v = np.asarray(values)
        total = trapezoid_integral(t, 2.0 * v + 1.0)
        expected = 2.0 * trapezoid_integral(t, v) + (len(values) - 1)
        assert total == pytest.approx(expected, abs=1e-9)


class TestAdaptiveQuad:
    def test_polynomial(self):
        assert adaptive_quad(lambda x: x * x, 0.0, 3.0) == pytest.approx(9.0)

    def test_empty_interval(self):
        assert adaptive_quad(math.sin, 2.0, 2.0) == 0.0

    def test_reversed_interval_signed(self):
        forward = adaptive_quad(lambda x: x, 0.0, 2.0)
        backward = adaptive_quad(lambda x: x, 2.0, 0.0)
        assert backward == pytest.approx(-forward)

    def test_matches_closed_form_exponential(self):
        out = adaptive_quad(lambda x: math.exp(-x), 0.0, 50.0)
        assert out == pytest.approx(1.0, rel=1e-6)
