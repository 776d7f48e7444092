"""Recovery transition trends ``a₂(t)`` for the mixture model.

Section V of the paper considers four increasing forms characteristic
of economic recovery::

    a₂(t) ∈ { β,  β·t,  e^{β·t},  β·ln t }

and reports results for ``β·ln t``, which "performed well for each data
set". Each trend contributes exactly one fitted parameter β, except
where noted.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Type

import numpy as np

from repro._typing import ArrayLike, FloatArray
from repro.exceptions import ParameterError
from repro.utils.numerics import as_float_array, safe_exp

__all__ = [
    "TransitionTrend",
    "ConstantTrend",
    "LinearTrend",
    "ExponentialTrend",
    "LogTrend",
    "available_trends",
    "get_trend_class",
    "register_trend",
]

#: Floor applied to times inside ``ln t`` so t = 0 stays finite; the
#: product ``a₂(t)·F₂(t)`` still vanishes at t = 0 because F₂(0) = 0.
_LOG_TIME_FLOOR = 1e-9


class TransitionTrend(abc.ABC):
    """A one-parameter time trend scaling the recovery CDF in Eq. (7)."""

    #: Registry name, e.g. ``"log"``.
    name: ClassVar[str] = "abstract"

    #: Fitting bounds for β.
    beta_lower_bound: ClassVar[float] = -1e3
    beta_upper_bound: ClassVar[float] = 1e3

    @classmethod
    @abc.abstractmethod
    def value_batch(cls, times: FloatArray, betas: FloatArray) -> FloatArray:
        """Trend values ``a₂(t)`` of a stack of problems: row ``b`` is
        the trend at ``times[b]`` for coefficient ``betas[b]``.

        *times* has shape ``(B, n)``, *betas* shape ``(B,)``; the result
        is ``(B, n)``.
        """

    @classmethod
    @abc.abstractmethod
    def beta_gradient_batch(cls, times: FloatArray, betas: FloatArray) -> FloatArray:
        """Derivatives ``∂a₂(t)/∂β``, shapes as in :meth:`value_batch`.

        Every trend is smooth in β, so this feeds the analytic mixture
        Jacobian (``∂P/∂β = (∂a₂/∂β)·F₂``) used by the fit engine.
        """

    @classmethod
    def value(cls, times: ArrayLike, beta: float) -> FloatArray:
        """Trend value ``a₂(t)`` at *times*: the one-row
        :meth:`value_batch`."""
        t = as_float_array(times, "times")
        return cls.value_batch(t[np.newaxis], np.array([beta], dtype=np.float64))[0]

    @classmethod
    def beta_gradient(cls, times: ArrayLike, beta: float) -> FloatArray:
        """Derivative ``∂a₂(t)/∂β`` at *times*: the one-row
        :meth:`beta_gradient_batch`."""
        t = as_float_array(times, "times")
        return cls.beta_gradient_batch(
            t[np.newaxis], np.array([beta], dtype=np.float64)
        )[0]

    @classmethod
    def default_beta(cls, final_performance: float, final_time: float) -> float:
        """Heuristic β so the trend roughly matches the observed end level.

        Solves ``a₂(t_end) ≈ final_performance`` for β, used to seed the
        least-squares fit.
        """
        t_end = max(final_time, 1.0)
        target = final_performance
        return cls._solve_beta(target, t_end)

    @classmethod
    @abc.abstractmethod
    def _solve_beta(cls, target: float, t_end: float) -> float:
        """Invert ``a₂(t_end; β) = target`` for β."""


class ConstantTrend(TransitionTrend):
    """``a₂(t) = β`` — recovery plateaus at a fixed level."""

    name: ClassVar[str] = "constant"

    @classmethod
    def value_batch(cls, times: FloatArray, betas: FloatArray) -> FloatArray:
        t = np.asarray(times, dtype=np.float64)
        b = np.asarray(betas, dtype=np.float64)
        return np.broadcast_to(b[:, np.newaxis], t.shape).copy()

    @classmethod
    def beta_gradient_batch(cls, times: FloatArray, betas: FloatArray) -> FloatArray:
        t = np.asarray(times, dtype=np.float64)
        return np.ones_like(t)

    @classmethod
    def _solve_beta(cls, target: float, t_end: float) -> float:
        return target


class LinearTrend(TransitionTrend):
    """``a₂(t) = β·t`` — recovery grows linearly."""

    name: ClassVar[str] = "linear"

    @classmethod
    def value_batch(cls, times: FloatArray, betas: FloatArray) -> FloatArray:
        t = np.asarray(times, dtype=np.float64)
        b = np.asarray(betas, dtype=np.float64)
        return b[:, np.newaxis] * t

    @classmethod
    def beta_gradient_batch(cls, times: FloatArray, betas: FloatArray) -> FloatArray:
        return np.asarray(times, dtype=np.float64).copy()

    @classmethod
    def _solve_beta(cls, target: float, t_end: float) -> float:
        # default_beta already floors t_end at 1.0; the max keeps the
        # inversion total for direct callers too.
        return target / max(t_end, 1.0)


class ExponentialTrend(TransitionTrend):
    """``a₂(t) = e^{β·t}`` — recovery grows exponentially."""

    name: ClassVar[str] = "exponential"
    # Tight bounds: e^{βt} explodes quickly over 48-month windows.
    beta_lower_bound: ClassVar[float] = -1.0
    beta_upper_bound: ClassVar[float] = 1.0

    @classmethod
    def value_batch(cls, times: FloatArray, betas: FloatArray) -> FloatArray:
        t = np.asarray(times, dtype=np.float64)
        b = np.asarray(betas, dtype=np.float64)
        return safe_exp(b[:, np.newaxis] * t)

    @classmethod
    def beta_gradient_batch(cls, times: FloatArray, betas: FloatArray) -> FloatArray:
        t = np.asarray(times, dtype=np.float64)
        b = np.asarray(betas, dtype=np.float64)
        return t * safe_exp(b[:, np.newaxis] * t)

    @classmethod
    def _solve_beta(cls, target: float, t_end: float) -> float:
        if target <= 0.0:
            return 0.0
        return float(np.log(target) / max(t_end, 1.0))


class LogTrend(TransitionTrend):
    """``a₂(t) = β·ln t`` — the paper's best-performing trend.

    Times are floored at a tiny positive value so t = 0 evaluates
    finitely; the mixture product still vanishes there since
    ``F₂(0) = 0``.
    """

    name: ClassVar[str] = "log"

    @classmethod
    def value_batch(cls, times: FloatArray, betas: FloatArray) -> FloatArray:
        t = np.asarray(times, dtype=np.float64)
        b = np.asarray(betas, dtype=np.float64)
        return b[:, np.newaxis] * np.log(np.maximum(t, _LOG_TIME_FLOOR))

    @classmethod
    def beta_gradient_batch(cls, times: FloatArray, betas: FloatArray) -> FloatArray:
        t = np.asarray(times, dtype=np.float64)
        return np.log(np.maximum(t, _LOG_TIME_FLOOR))

    @classmethod
    def _solve_beta(cls, target: float, t_end: float) -> float:
        # log(max(t_end, 2)) >= ln 2 ~ 0.69, so the floor below never
        # binds; it just makes the denominator's positivity explicit.
        log_end = float(np.log(max(t_end, 2.0)))
        return target / max(log_end, 0.5)


_REGISTRY: dict[str, Type[TransitionTrend]] = {}


def register_trend(cls: Type[TransitionTrend]) -> Type[TransitionTrend]:
    """Register a trend class under its :attr:`name`."""
    if not cls.name or cls.name == "abstract":
        raise ParameterError(f"{cls.__name__} has no registry name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ParameterError(f"trend name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_trend_class(name: str) -> Type[TransitionTrend]:
    """Look up a trend class by name (``"ln"``/``"logarithmic"`` map to
    ``"log"``, ``"exp"`` to ``"exponential"``)."""
    aliases = {"ln": "log", "logarithmic": "log", "exp": "exponential"}
    key = aliases.get(name.lower(), name.lower())
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ParameterError(f"unknown trend {name!r}; known: {known}") from None


def available_trends() -> tuple[str, ...]:
    """Sorted names of all registered trends."""
    return tuple(sorted(_REGISTRY))


for _cls in (ConstantTrend, LinearTrend, ExponentialTrend, LogTrend):
    register_trend(_cls)
