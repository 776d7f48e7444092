"""Low-level numeric helpers shared by distributions, hazards, and models.

These helpers exist to keep numeric edge-case handling (overflow in
``exp``, ``log`` of zero, degenerate quadratics) in one audited place
instead of scattered across model code.
"""

from __future__ import annotations

import math

import numpy as np

from repro._typing import ArrayLike, FloatArray

__all__ = [
    "as_float_array",
    "clip_positive",
    "safe_exp",
    "solve_quadratic",
    "nearly_equal",
]

#: Largest exponent passed to ``np.exp`` before clipping; ``exp(709)`` is the
#: last value representable in float64.
_EXP_MAX = 700.0

#: Smallest positive value substituted for non-positive inputs to ``log``.
_TINY = np.finfo(np.float64).tiny


def as_float_array(values: ArrayLike, name: str = "values") -> FloatArray:
    """Convert *values* to a contiguous 1-D float64 array.

    Parameters
    ----------
    values:
        Sequence or array of numbers.
    name:
        Name used in error messages.

    Raises
    ------
    ValueError
        If the input is not 1-D after conversion.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def clip_positive(values: FloatArray, minimum: float = _TINY) -> FloatArray:
    """Clip *values* from below so the result is strictly positive."""
    return np.maximum(values, minimum)


def safe_exp(values: ArrayLike) -> FloatArray:
    """``np.exp`` with the argument clipped to avoid overflow warnings.

    Values above ~700 would overflow float64; they are clipped so the
    result saturates at a large finite number instead of ``inf`` with a
    RuntimeWarning. Underflow to 0.0 is already silent and exact enough.
    """
    arr = np.asarray(values, dtype=np.float64)
    return np.exp(np.clip(arr, -_EXP_MAX, _EXP_MAX))


def nearly_equal(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Float comparison with both relative and absolute tolerance."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def solve_quadratic(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of ``a·x² + b·x + c = 0`` in increasing order.

    Handles the degenerate linear (``a == 0``) and constant cases, and
    uses the numerically stable citardauq formulation to avoid
    catastrophic cancellation when ``b² ≫ 4ac``.

    Returns
    -------
    tuple of float
        Zero, one, or two real roots sorted ascending. A double root is
        returned once.
    """
    if a == 0.0:
        if b == 0.0:
            return ()
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    if disc == 0.0:
        return (-b / (2.0 * a),)
    sqrt_disc = math.sqrt(disc)
    # q has the same sign as b to avoid subtracting nearly equal numbers.
    q = -0.5 * (b + math.copysign(sqrt_disc, b))
    roots = sorted((q / a, c / q)) if q != 0.0 else sorted((0.0, -b / a))
    return tuple(roots)
