"""Numeric, integration, table-rendering, and plotting helpers."""

from repro.utils.numerics import (
    as_float_array,
    clip_positive,
    safe_exp,
    solve_quadratic,
)
from repro.utils.integrate import trapezoid_integral, adaptive_quad

__all__ = [
    "as_float_array",
    "clip_positive",
    "safe_exp",
    "solve_quadratic",
    "trapezoid_integral",
    "adaptive_quad",
]
