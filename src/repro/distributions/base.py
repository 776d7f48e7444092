"""Abstract base class for lifetime distributions.

Concrete subclasses implement :meth:`cdf` and :meth:`pdf` (plus
parameter metadata); the base class derives the survival function,
hazard rate, cumulative hazard, and a bisection-based quantile fallback
from those. Subclasses override the derived quantities whenever a
closed form exists.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Sequence

import numpy as np

from repro._rng import resolve_rng
from repro._typing import ArrayLike, FloatArray
from repro.exceptions import ParameterError
from repro.utils.numerics import as_float_array, clip_positive

__all__ = ["LifetimeDistribution"]


class LifetimeDistribution(abc.ABC):
    """A non-negative continuous random variable ("time to event").

    Subclasses define class attributes :attr:`name`, :attr:`param_names`,
    and per-parameter lower/upper fitting bounds, then implement
    :meth:`pdf` and :meth:`cdf`. All time inputs are vectorized;
    negative times are valid inputs and map to pdf 0 / cdf 0.
    """

    #: Short registry name, e.g. ``"weibull"``.
    name: ClassVar[str] = "abstract"

    #: Canonical parameter order for vectorized construction.
    param_names: ClassVar[tuple[str, ...]] = ()

    #: Per-parameter lower bounds used by fitting code (same order).
    param_lower_bounds: ClassVar[tuple[float, ...]] = ()

    #: Per-parameter upper bounds used by fitting code (same order).
    param_upper_bounds: ClassVar[tuple[float, ...]] = ()

    def __init__(self) -> None:
        if len(self.param_names) != len(self.param_lower_bounds) or len(
            self.param_names
        ) != len(self.param_upper_bounds):
            raise ParameterError(
                f"{type(self).__name__}: parameter metadata lengths disagree"
            )

    # ------------------------------------------------------------------
    # Parameter plumbing
    # ------------------------------------------------------------------
    @property
    def params(self) -> dict[str, float]:
        """Parameter values keyed by name, in canonical order."""
        return {name: float(getattr(self, name)) for name in self.param_names}

    @property
    def param_vector(self) -> tuple[float, ...]:
        """Parameter values as a flat tuple in canonical order."""
        return tuple(float(getattr(self, name)) for name in self.param_names)

    @classmethod
    def from_vector(cls, vector: Sequence[float]) -> "LifetimeDistribution":
        """Construct from a flat parameter vector in canonical order."""
        if len(vector) != len(cls.param_names):
            raise ParameterError(
                f"{cls.__name__} expects {len(cls.param_names)} parameters, "
                f"got {len(vector)}"
            )
        return cls(**dict(zip(cls.param_names, (float(v) for v in vector))))

    @classmethod
    def n_params(cls) -> int:
        """Number of free parameters."""
        return len(cls.param_names)

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v:.6g}" for k, v in self.params.items())
        return f"{type(self).__name__}({args})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LifetimeDistribution):
            return NotImplemented
        return type(self) is type(other) and self.param_vector == other.param_vector

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.param_vector))

    # ------------------------------------------------------------------
    # Core quantities (subclass responsibility)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def pdf(self, times: ArrayLike) -> FloatArray:
        """Probability density at *times* (0 for negative times)."""

    @abc.abstractmethod
    def cdf(self, times: ArrayLike) -> FloatArray:
        """Cumulative probability ``P(T <= t)`` (0 for negative times)."""

    # ------------------------------------------------------------------
    # Stacked evaluation — row ``b`` of *times* (shape ``(B, n)``) and
    # *params* (shape ``(B, n_params)``) is one independent problem. The
    # mixture resilience models evaluate Eq. (7) through these.
    # ------------------------------------------------------------------
    @classmethod
    def cdf_batch(cls, times: FloatArray, params: FloatArray) -> FloatArray:
        """Stacked CDF: row ``b`` is ``cls.from_vector(params[b]).cdf(times[b])``.

        This default loops over the rows; Exponential and Weibull
        override it with one vectorized expression per stack.
        """
        t = np.asarray(times, dtype=np.float64)
        p = np.asarray(params, dtype=np.float64)
        out = np.empty(t.shape, dtype=np.float64)
        for row in range(p.shape[0]):
            out[row] = cls.from_vector(p[row]).cdf(t[row])
        return out

    # Families whose CDF has elementary parameter derivatives also define
    #
    #     def cdf_gradient_batch(cls, times, params) -> FloatArray  # (B, n, k)
    #
    # returning ``∂F(t)/∂θⱼ`` of each row, one column per parameter in
    # canonical order. The mixture resilience models assemble their
    # closed-form fit Jacobian from it; mixtures over a family without it
    # differentiate numerically. Test for support with
    # :meth:`has_cdf_gradient`.
    @classmethod
    def has_cdf_gradient(cls) -> bool:
        """Whether this family implements the analytic ``cdf_gradient_batch``."""
        return callable(getattr(cls, "cdf_gradient_batch", None))

    # ------------------------------------------------------------------
    # Derived quantities (overridable with closed forms)
    # ------------------------------------------------------------------
    def sf(self, times: ArrayLike) -> FloatArray:
        """Survival (reliability) function ``1 - cdf``."""
        return 1.0 - self.cdf(times)

    def hazard(self, times: ArrayLike) -> FloatArray:
        """Hazard rate ``pdf / sf``; ``inf`` where the sf underflows to 0."""
        t = as_float_array(times, "times")
        density = self.pdf(t)
        survival = self.sf(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.where(survival > 0.0, density / clip_positive(survival), np.inf)
        return np.where(density == 0.0, np.where(survival > 0.0, 0.0, rate), rate)

    def cumulative_hazard(self, times: ArrayLike) -> FloatArray:
        """Cumulative hazard ``-log(sf)``."""
        survival = self.sf(times)
        with np.errstate(divide="ignore"):
            return -np.log(clip_positive(survival))

    def quantile(self, probabilities: ArrayLike) -> FloatArray:
        """Inverse cdf via bisection (subclasses override with closed forms).

        Raises
        ------
        ValueError
            If any probability lies outside ``[0, 1)``.
        """
        probs = as_float_array(probabilities, "probabilities")
        if np.any((probs < 0.0) | (probs >= 1.0)):
            raise ValueError("probabilities must lie in [0, 1)")
        out = np.empty_like(probs)
        for index, p in enumerate(probs):
            out[index] = self._quantile_scalar(float(p))
        return out

    def _quantile_scalar(self, p: float) -> float:
        if p <= 0.0:
            return 0.0
        lo, hi = 0.0, 1.0
        # Expand hi until cdf(hi) exceeds p (or we hit an absurd bound).
        for _ in range(200):
            if float(self.cdf(np.array([hi]))[0]) >= p:
                break
            hi *= 2.0
        else:
            raise ValueError(f"quantile({p}) did not bracket within [0, {hi}]")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(self.cdf(np.array([mid]))[0]) < p:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * max(hi, 1.0):
                break
        return 0.5 * (lo + hi)

    def median(self) -> float:
        """Distribution median."""
        return float(self.quantile(np.array([0.5]))[0])

    def mean(self) -> float:
        """Expected value; numeric integration of the sf by default.

        Uses the identity ``E[T] = ∫₀^∞ sf(t) dt`` for non-negative
        variables, integrated to the 1-1e-10 quantile.
        """
        from repro.utils.integrate import adaptive_quad

        upper = self._quantile_scalar(1.0 - 1e-10)
        return adaptive_quad(lambda t: float(self.sf(np.array([t]))[0]), 0.0, upper)

    def variance(self) -> float:
        """Variance; numeric by default via ``E[T²] − E[T]²``."""
        from repro.utils.integrate import adaptive_quad

        upper = self._quantile_scalar(1.0 - 1e-10)
        second_moment = adaptive_quad(
            lambda t: 2.0 * t * float(self.sf(np.array([t]))[0]), 0.0, upper
        )
        mu = self.mean()
        return max(second_moment - mu * mu, 0.0)

    def rvs(self, size: int, rng: np.random.Generator | None = None) -> FloatArray:
        """Draw *size* random variates by inverse-cdf sampling.

        Without an explicit *rng* the draws come from the library's
        seeded default generator (:data:`repro._rng.DEFAULT_SEED`), so
        repeated bare calls return identical variates — pass your own
        generator for independent streams.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        generator = resolve_rng(rng)
        uniforms = generator.random(size)
        return self.quantile(uniforms)

    # ------------------------------------------------------------------
    # Validation helpers for subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _require_positive(name: str, value: float) -> float:
        value = float(value)
        if not np.isfinite(value) or value <= 0.0:
            raise ParameterError(f"{name} must be a positive finite number, got {value}")
        return value

    @staticmethod
    def _require_finite(name: str, value: float) -> float:
        value = float(value)
        if not np.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
        return value
