"""Abstract base class for predictive resilience models.

A model object is a *family* (a parametric form plus metadata) that
becomes a concrete predictor once bound to a parameter vector via
:meth:`ResilienceModel.bind`. Fitting code treats families uniformly:
it asks for bounds and initial guesses, minimizes Eq. (8), and binds
the optimum.
"""

from __future__ import annotations

import abc
import copy
from typing import Callable, Sequence

import numpy as np
from scipy.optimize._numdiff import approx_derivative

from repro._typing import ArrayLike, FloatArray
from repro.core.curve import ResilienceCurve
from repro.exceptions import ParameterError
from repro.utils.integrate import gauss_legendre_quad
from repro.utils.numerics import as_float_array

__all__ = ["ResilienceModel"]


def _refine_minimum(
    func: Callable[[FloatArray], FloatArray],
    lo: float,
    hi: float,
    *,
    n_points: int = 257,
    rel_tol: float = 1e-9,
    max_rounds: int = 60,
) -> tuple[float, float]:
    """Vectorized bracket-shrinking minimization.

    Each round evaluates *func* once on an ``n_points`` grid over the
    bracket and keeps the two cells around the argmin, shrinking the
    bracket by ``(n_points − 1) / 2`` per batched call — the vectorized
    replacement for scalar ``minimize_scalar`` on a model ``predict``.

    The grid is deliberately wide (257 points) so the refinement batches
    several rounds' worth of shrinkage into each vectorized call: per
    round the bracket shrinks 128×, reaching ``rel_tol`` in ~4 calls
    where a 65-point grid needed ~8. On vectorized ``predict`` kernels
    the per-call dispatch overhead dominates the extra grid points.
    """
    best_t = best_v = float("nan")
    for _ in range(max_rounds):
        grid = np.linspace(lo, hi, n_points)
        values = func(grid)
        arg = int(np.argmin(values))
        best_t, best_v = float(grid[arg]), float(values[arg])
        if (hi - lo) <= rel_tol * max(1.0, abs(lo) + abs(hi)):
            break
        lo = float(grid[max(arg - 1, 0)])
        hi = float(grid[min(arg + 1, n_points - 1)])
    return best_t, best_v


def _refine_crossing(
    func: Callable[[FloatArray], FloatArray],
    lo: float,
    hi: float,
    *,
    n_points: int = 513,
    xtol: float = 1e-12,
    max_rounds: int = 60,
) -> float:
    """Vectorized root bracketing for an upward crossing of zero.

    Assumes ``func(lo) < 0 <= func(hi)`` and narrows the bracket to the
    first sign change on an ``n_points`` grid per round — one batched
    call shrinks the bracket ``(n_points − 1)``-fold, the vectorized
    replacement for scalar Brent refinement on a model ``predict``.

    As with :func:`_refine_minimum`, the 513-point grid batches what a
    65-point grid spread over ~8 sequential rounds into ~4 calls
    (512× shrinkage per round), trading cheap extra grid points for
    fewer Python→``predict`` dispatches.
    """
    for _ in range(max_rounds):
        if (hi - lo) <= max(xtol, abs(hi) * 4.0 * np.finfo(np.float64).eps):
            break
        grid = np.linspace(lo, hi, n_points)
        values = func(grid)
        above = np.nonzero(values >= 0.0)[0]
        if not above.size:  # numeric noise at the endpoint: keep bisecting
            lo = float(grid[-2])
            continue
        hit = int(above[0])
        if hit == 0:
            return float(grid[0])
        lo = float(grid[hit - 1])
        hi = float(grid[hit])
    return 0.5 * (lo + hi)


class ResilienceModel(abc.ABC):
    """A parametric resilience-curve family ``P(t; θ)``.

    Subclasses define the parameter metadata (:attr:`param_names` and
    bounds) and implement :meth:`evaluate_batch` — a pure function of a
    stack of time grids and raw parameter vectors — plus
    :meth:`initial_guesses`. Families with a closed-form Jacobian also
    implement :meth:`prediction_jacobian_batch` and set
    :attr:`has_analytic_jacobian`.
    """

    #: Display/registry name, e.g. ``"quadratic"`` or ``"wei-exp"``.
    name: str = "abstract"

    def __init__(self) -> None:
        self._params: tuple[float, ...] | None = None

    # ------------------------------------------------------------------
    # Family metadata (subclass responsibility)
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def param_names(self) -> tuple[str, ...]:
        """Canonical parameter order of the family."""

    @property
    @abc.abstractmethod
    def lower_bounds(self) -> tuple[float, ...]:
        """Per-parameter lower fitting bounds."""

    @property
    @abc.abstractmethod
    def upper_bounds(self) -> tuple[float, ...]:
        """Per-parameter upper fitting bounds."""

    @property
    def n_params(self) -> int:
        """Number of free parameters."""
        return len(self.param_names)

    @abc.abstractmethod
    def evaluate_batch(self, times: FloatArray, params: FloatArray) -> FloatArray:
        """Performance for a stack of independent problems: row ``b`` is
        the model at ``times[b]`` for raw parameter vector ``params[b]``.

        *times* has shape ``(B, n)`` and *params* ``(B, n_params)``; the
        result is ``(B, n)``. A row's values must not depend on the other
        rows, so a problem evaluates the same alone (:meth:`evaluate`)
        and in any stack the fit engine builds.

        Must be safe to call anywhere inside the fitting bounds: return
        finite values rather than raising, so optimizers can traverse
        the space.
        """

    def evaluate(self, times: ArrayLike, params: Sequence[float]) -> FloatArray:
        """Model performance at *times* for raw parameter vector
        *params*: the one-row :meth:`evaluate_batch`."""
        t = self._as_times(times)
        x = np.asarray(params, dtype=np.float64)
        return self.evaluate_batch(t[np.newaxis], x[np.newaxis])[0]

    @abc.abstractmethod
    def initial_guesses(self, curve: ResilienceCurve) -> list[tuple[float, ...]]:
        """Deterministic starting vectors for fitting on *curve*.

        Order matters: the first guess should be the best heuristic;
        multi-start fitting tries them all.
        """

    # ------------------------------------------------------------------
    # Binding parameters
    # ------------------------------------------------------------------
    @property
    def is_bound(self) -> bool:
        """Whether a parameter vector has been attached."""
        return self._params is not None

    @property
    def params(self) -> tuple[float, ...]:
        """The bound parameter vector.

        Raises
        ------
        ParameterError
            If the model family has not been bound yet.
        """
        if self._params is None:
            raise ParameterError(
                f"model {self.name!r} is unbound; call bind() or fit it first"
            )
        return self._params

    @property
    def param_dict(self) -> dict[str, float]:
        """Bound parameters keyed by name."""
        return dict(zip(self.param_names, self.params))

    def bind(self, params: Sequence[float]) -> "ResilienceModel":
        """Return a copy of this family bound to *params*.

        Raises
        ------
        ParameterError
            If the vector length is wrong or contains non-finite values.
        """
        vector = tuple(float(v) for v in params)
        if len(vector) != self.n_params:
            raise ParameterError(
                f"model {self.name!r} expects {self.n_params} parameters, "
                f"got {len(vector)}"
            )
        if not all(np.isfinite(v) for v in vector):
            raise ParameterError(f"model {self.name!r}: parameters must be finite")
        bound = copy.copy(self)
        bound._params = vector
        return bound

    def predict(self, times: ArrayLike) -> FloatArray:
        """Performance predicted at *times* with the bound parameters."""
        return self.evaluate(times, self.params)

    def __repr__(self) -> str:
        if self.is_bound:
            args = ", ".join(f"{k}={v:.6g}" for k, v in self.param_dict.items())
            return f"{type(self).__name__}[{self.name}]({args})"
        return f"{type(self).__name__}[{self.name}](unbound)"

    # ------------------------------------------------------------------
    # Derived quantities — numeric fallbacks; subclasses override with
    # the paper's closed forms where those exist. All three fallbacks
    # evaluate ``predict`` in batches (fixed-order quadrature panels,
    # bracket-shrinking grids) so a derived quantity costs a handful of
    # vectorized calls instead of hundreds of scalar ones.
    # ------------------------------------------------------------------
    def area_under_curve(self, lower: float, upper: float) -> float:
        """``∫ P(t) dt`` over ``[lower, upper]`` (numeric by default:
        composite Gauss–Legendre panels on one batched ``predict``)."""
        return gauss_legendre_quad(self.predict, lower, upper)

    def minimum(self, horizon: float) -> tuple[float, float]:
        """Time and value of the predicted performance minimum on
        ``[0, horizon]`` (coarse grid + vectorized bracket refinement
        by default)."""
        grid = np.linspace(0.0, horizon, 2001)
        values = self.predict(grid)
        arg = int(np.argmin(values))
        lo = float(grid[max(arg - 1, 0)])
        hi = float(grid[min(arg + 1, grid.size - 1)])
        if lo == hi:
            return float(grid[arg]), float(values[arg])
        return _refine_minimum(self.predict, lo, hi)

    def recovery_time(self, level: float, horizon: float = 1e4) -> float:
        """First time after the trough at which ``P(t) = level``.

        Numeric default: bracket on a grid beyond the trough and narrow
        the bracket with vectorized grid refinement. Subclasses with
        closed forms (Eqs. 2, 5) override.

        Raises
        ------
        ValueError
            If performance never recovers to *level* before *horizon*.
        """
        trough_time, trough_value = self.minimum(horizon)
        if trough_value >= level:
            return trough_time
        grid = np.linspace(trough_time, horizon, 4001)
        values = self.predict(grid) - level
        above = np.nonzero(values >= 0.0)[0]
        if not above.size:
            raise ValueError(
                f"model {self.name!r} never recovers to level {level} "
                f"before t={horizon}"
            )
        hit = int(above[0])
        if hit == 0:
            return float(grid[0])
        return _refine_crossing(
            lambda t: self.predict(t) - level,
            float(grid[hit - 1]),
            float(grid[hit]),
        )

    def predict_clamped(
        self, times: ArrayLike, recovery_level: float, horizon: float = 1e4
    ) -> FloatArray:
        """Prediction following the paper's piecewise definition: the
        model curve up to the recovery time ``t_r`` at
        ``P(t_r) = recovery_level``, then held constant at that level
        (Section II-A's ``P(t) = P(t_r)`` for ``t > t_r``).

        If the model never reaches *recovery_level* before *horizon*
        the raw prediction is returned unclamped.
        """
        t = self._as_times(times)
        values = self.predict(t)
        try:
            t_r = self.recovery_time(recovery_level, horizon)
        except ValueError:
            return values
        return np.where(t > t_r, recovery_level, values)

    # ------------------------------------------------------------------
    # Derivatives — analytic where the family implements the stacked
    # closed form, validated finite-difference fallback otherwise. These
    # feed the fit engine (scipy's trust-region least squares and the
    # stacked kernels) and the uncertainty machinery (Gauss–Newton
    # covariance, delta method).
    # ------------------------------------------------------------------
    @property
    def has_analytic_jacobian(self) -> bool:
        """Whether :meth:`prediction_jacobian` is a closed form.

        Families with elementary parameter derivatives (quadratic,
        competing-risks, the Exp/Wei mixtures) implement
        :meth:`prediction_jacobian_batch` and override this to True; the
        base class answers False and differentiates numerically.
        """
        return False

    def prediction_jacobian(
        self, times: ArrayLike, params: Sequence[float] | None = None
    ) -> FloatArray:
        """Matrix ``J[i, j] = ∂P(tᵢ; θ)/∂θⱼ`` of shape ``(n, n_params)``.

        For a family with a closed form this is the one-row
        :meth:`prediction_jacobian_batch`. Otherwise it is a
        bounds-aware 2-point finite difference (scipy's
        ``approx_derivative``), correct for every family but costing one
        model evaluation per parameter.
        """
        vector = self.params if params is None else params
        if not self.has_analytic_jacobian:
            return self._numeric_prediction_jacobian(times, vector)
        t = self._as_times(times)
        x = np.asarray(vector, dtype=np.float64)
        return self.prediction_jacobian_batch(t[np.newaxis], x[np.newaxis])[0]

    def prediction_jacobian_batch(
        self, times: FloatArray, params: FloatArray
    ) -> FloatArray:
        """Closed-form Jacobians of a stack of problems, shape
        ``(B, n, n_params)``: row ``b`` is ``∂P/∂θ`` at ``times[b]`` for
        ``params[b]``, shapes otherwise as in :meth:`evaluate_batch`.

        Families that set :attr:`has_analytic_jacobian` implement it;
        the base class has no closed form to stack.
        """
        raise NotImplementedError(f"model {self.name!r} has no closed-form Jacobian")

    def jacobian(
        self, curve: ResilienceCurve, params: Sequence[float] | None = None
    ) -> FloatArray:
        """Jacobian ``∂residual/∂θ`` of the Eq. (8) objective.

        Residuals are ``R(tᵢ) − P(tᵢ)``, so this is simply the negated
        :meth:`prediction_jacobian` on the curve's sample times — the
        matrix handed to ``scipy.optimize.least_squares`` via ``jac=``.
        """
        return -self.prediction_jacobian(curve.times, params)

    def _numeric_prediction_jacobian(
        self, times: ArrayLike, vector: Sequence[float]
    ) -> FloatArray:
        t = self._as_times(times)
        x = np.asarray(vector, dtype=np.float64)
        lower = np.minimum(np.asarray(self.lower_bounds, dtype=np.float64), x)
        upper = np.maximum(np.asarray(self.upper_bounds, dtype=np.float64), x)

        def func(v: np.ndarray) -> FloatArray:
            return np.asarray(self.evaluate(t, v), dtype=np.float64)

        jac = approx_derivative(func, x, method="2-point", bounds=(lower, upper))
        return np.asarray(jac, dtype=np.float64).reshape(t.size, x.size)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content-address of the family *configuration*.

        Captures everything that determines what a fit of this family
        means — concrete class, registry name (which encodes component
        distributions and trends for composite families), parameter
        names, and fitting bounds — without any bound parameter state.
        Used by the fit cache to key results.
        """
        return "|".join(
            (
                type(self).__name__,
                self.name,
                ",".join(self.param_names),
                ",".join(repr(float(v)) for v in self.lower_bounds),
                ",".join(repr(float(v)) for v in self.upper_bounds),
            )
        )

    # ------------------------------------------------------------------
    # Fit-objective helpers
    # ------------------------------------------------------------------
    def residuals(
        self, curve: ResilienceCurve, params: Sequence[float] | None = None
    ) -> FloatArray:
        """Residual vector ``R(t_i) − P(t_i)`` of Eq. (8)."""
        vector = self.params if params is None else tuple(params)
        predictions = self.evaluate(curve.times, vector)
        return curve.performance - predictions

    def sse(self, curve: ResilienceCurve, params: Sequence[float] | None = None) -> float:
        """Sum of squared residuals on *curve* (Eq. 9)."""
        res = self.residuals(curve, params)
        return float(np.dot(res, res))

    @staticmethod
    def _as_times(times: ArrayLike) -> FloatArray:
        return as_float_array(times, "times")
