"""Numeric, integration, table-rendering, and plotting helpers."""

from repro.utils.numerics import (
    as_float_array,
    clip_positive,
    is_finite_array,
    safe_exp,
    safe_log,
    solve_quadratic,
)
from repro.utils.integrate import trapezoid_integral, cumulative_trapezoid, adaptive_quad

__all__ = [
    "as_float_array",
    "clip_positive",
    "is_finite_array",
    "safe_exp",
    "safe_log",
    "solve_quadratic",
    "trapezoid_integral",
    "cumulative_trapezoid",
    "adaptive_quad",
]
