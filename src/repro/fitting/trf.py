"""Solve many bounded least-squares starts exactly as scipy's trf would.

The scipy engine solves every start of a fit, and the batched engine
*confirms* each pair's screened winner, along the trajectory scipy's
``least_squares(method="trf")`` takes from that start, so every fit
stays bit-identical to one scipy call per start. This module owns that
"solve exactly" step (:func:`_solve_exactly`): the one place a fit's
starts reach scipy, and the stacked kernel that replaces most of those
calls.

Such a call spends most of its time in Python overhead per call and per
iteration, not in arithmetic. :func:`solve_trf` runs many such solves at
once: it repeats scipy 1.17's ``trf_bounds`` (exact trust-region solver,
linear loss, ``x_scale=1``) together with the ``least_squares`` preamble
a fit goes through (clip, ``make_strictly_feasible``, first residual and
Jacobian calls), one float operation at a time in scipy's order, on
stacked arrays with per-problem masks. Problems are grouped by (family,
observation count) and a group is solved in slices of at most
:data:`MAX_STACK`; a slice iterates until its last problem stops, and
finished problems are compacted out so stragglers pay only for
themselves.

Bit-equality rests on three facts about this stack:

* stacked ``np.linalg.svd``, ``np.matmul`` over C-contiguous slices and
  ``np.vecdot`` reach the same LAPACK/BLAS kernels, with the same
  layouts, as scipy's per-problem ``svd``, ``.dot`` and ``np.dot``;
* scipy's numpy-scalar ``** 0.5`` and ``** 2`` are C ``pow``, which
  ``np.float_power`` repeats (array ``**`` takes a sqrt or SIMD path and
  differs in the last bit now and then);
* the models' ``evaluate`` and ``prediction_jacobian``, which the
  scipy reference's objective calls, are by construction the one-row
  case of the ``evaluate_batch`` and ``prediction_jacobian_batch`` the
  kernel stacks, and no row of a stack depends on its neighbours.

They hold for the scipy versions in :data:`VERIFIED_SCIPY_VERSIONS`, so
the kernel runs only on those, and only after a probe, run once per
process, matched the scipy reference (:func:`_kernel_trusted`).
Everything the kernel does not solve goes to the reference,
:func:`_solve_start`, one scipy call per problem: a family without a
closed-form Jacobian, a problem whose scipy solve would leave the port's
path (a non-finite residual, Jacobian or step, or a solve scipy would
abort with ``ValueError``), every problem of a kernel call that raises,
and everything on an unverified scipy.
"""

from __future__ import annotations

import functools
import logging
import time
from contextlib import AbstractContextManager
from typing import NamedTuple, Sequence

import numpy as np
import numpy.typing as npt
import scipy
from scipy import optimize

from repro._typing import FloatArray
from repro.core.curve import ResilienceCurve
from repro.fitting.batched import (
    _PENALTY_SCALE,
    TOLERANCE,
    BatchedOutcome,
    BatchedProblem,
    _group_problems,
)
from repro.models.base import ResilienceModel
from repro.models.registry import make_model
from repro.parallel import FitExecutor

__all__ = ["VERIFIED_SCIPY_VERSIONS", "solve_trf"]

logger = logging.getLogger("repro.fitting")

#: scipy versions whose ``trf_bounds`` this module reproduces bit for
#: bit: the versions the equality tests (tests/fitting/test_trf.py)
#: passed on.
VERIFIED_SCIPY_VERSIONS: frozenset[str] = frozenset({"1.17.1"})

#: Most problems one kernel pass stacks. A pass's transient arrays grow
#: with its stack, about 12 KB per problem (6.3 MB for the 528 cold
#: first fits of a 48-stream forecast server in one pass, 0.86 MB in
#: slices of 64), so a group is solved in slices of at most this many;
#: 64 problems already share the per-iteration overhead.
MAX_STACK = 64

_BoolArray = npt.NDArray[np.bool_]
_IntArray = npt.NDArray[np.int64]

_EPS = np.finfo(float).eps

#: ``termination_status`` while a problem still iterates (scipy's None).
_RUNNING = -1

#: scipy's ``TERMINATION_MESSAGES`` for the statuses trf can end in.
_MESSAGES = {
    0: "The maximum number of function evaluations is exceeded.",
    1: "`gtol` termination condition is satisfied.",
    2: "`ftol` termination condition is satisfied.",
    3: "`xtol` termination condition is satisfied.",
    4: "Both `ftol` and `xtol` termination conditions are satisfied.",
}


def _solve_exactly(
    problems: Sequence[BatchedProblem],
    executor: FitExecutor,
    activation: AbstractContextManager[None],
) -> list[BatchedOutcome]:
    """Solve every problem exactly as one scipy ``least_squares`` call
    (:func:`_solve_start`) each would; outcomes in order.

    One :func:`solve_trf` call takes them all when the kernel is trusted
    (:func:`_kernel_trusted`). Whatever it does not return goes through
    one *executor* map of :func:`_solve_start`, run inside *activation*
    (the caller's tracing context): the only map of the fit engine.
    """
    outcomes: list[BatchedOutcome | None] = [None] * len(problems)
    if _kernel_trusted():
        try:
            outcomes = solve_trf(problems)
        except Exception:  # noqa: BLE001 - any kernel failure falls back to scipy
            logger.warning(
                "stacked trf kernel failed; solving with scipy", exc_info=True
            )
            outcomes = [None] * len(problems)
    rest = [index for index, outcome in enumerate(outcomes) if outcome is None]
    if rest:
        with activation:
            solved = executor.map(_solve_start, [problems[index] for index in rest])
        for index, outcome in zip(rest, solved):
            outcomes[index] = outcome
    return [outcome for outcome in outcomes if outcome is not None]


def solve_trf(problems: Sequence[BatchedProblem]) -> list[BatchedOutcome | None]:
    """Solve every closed-form-Jacobian problem as scipy's trf would.

    Returns one entry per problem, in order: the outcome scipy's
    ``least_squares`` run reaches from the problem's start (x, SSE,
    message, success, the residual/Jacobian call counts of the fit
    engine's objective and scipy's ``nfev − 1`` as ``n_iterations``),
    with ``seconds`` the problem's share of its slice's time weighted by
    the iterations it took; or ``None`` for a problem the kernel does
    not solve — a family without a closed-form Jacobian, or a solve
    that leaves the port's path — which :func:`_solve_exactly` hands to
    scipy. A group is solved in near-equal slices of at most
    :data:`MAX_STACK` problems.
    """
    results: list[BatchedOutcome | None] = [None] * len(problems)
    with np.errstate(all="ignore"):
        for indices in _group_problems(problems):
            if not problems[indices[0]].family.has_analytic_jacobian:
                continue
            size = len(indices)
            n_slices = -(-size // MAX_STACK)
            for k in range(n_slices):
                part = indices[k * size // n_slices : (k + 1) * size // n_slices]
                outcomes = _solve_group([problems[i] for i in part])
                for position, outcome in zip(part, outcomes):
                    results[position] = outcome
    return results


# ----------------------------------------------------------------------
# The scipy reference and the guard that trusts the kernel
# ----------------------------------------------------------------------
def _penalty_value(vector: np.ndarray) -> float:
    """Smoothly increasing replacement for non-finite residuals."""
    return _PENALTY_SCALE * (1.0 + float(np.linalg.norm(vector)))


def _penalty_gradient(vector: np.ndarray) -> np.ndarray:
    """Gradient of :func:`_penalty_value` with respect to θ."""
    norm = float(np.linalg.norm(vector))
    if norm < 1e-12:
        return np.zeros_like(vector)
    return (_PENALTY_SCALE / norm) * np.asarray(vector, dtype=np.float64)


def _solve_start(problem: BatchedProblem) -> BatchedOutcome:
    """One bounded scipy ``least_squares(method="trf")`` solve of
    *problem*: the reference the kernel reproduces (module-level so the
    process backend can pickle it).

    The family's closed-form Jacobian is handed to scipy when it has
    one, else scipy differences by ``"2-point"``. The residual- and
    Jacobian-call counters live here rather than trusting
    ``solution.nfev``: scipy's trf does *not* count the residual calls
    its 2-point Jacobian makes, so the reported number would flatter the
    finite-difference mode. ``n_iterations`` is scipy's ``nfev − 1``,
    trf's inner-loop passes (0 when scipy raised).
    """
    t0 = time.perf_counter()
    family = problem.family
    times = np.asarray(problem.times, dtype=np.float64)
    targets = np.asarray(problem.targets, dtype=np.float64)
    lower = np.asarray(problem.lower, dtype=np.float64)
    upper = np.asarray(problem.upper, dtype=np.float64)
    counters = {"nfev": 0, "njev": 0}

    def objective(vector: np.ndarray) -> np.ndarray:
        counters["nfev"] += 1
        residuals = targets - family.evaluate(times, tuple(vector))
        bad = ~np.isfinite(residuals)
        if bad.any():
            residuals = np.where(bad, _penalty_value(vector), residuals)
        return residuals

    def analytic_jac(vector: np.ndarray) -> np.ndarray:
        counters["njev"] += 1
        jac = -family.prediction_jacobian(times, vector)
        predictions = family.evaluate(times, vector)
        bad = ~np.isfinite(predictions)
        if bad.any():
            # Match the objective: penalized rows get the penalty's
            # gradient so the solver still sees a downhill direction.
            jac[bad, :] = _penalty_gradient(vector)
        return np.where(np.isfinite(jac), jac, 0.0)

    jac_arg: object = analytic_jac if family.has_analytic_jacobian else "2-point"
    x0 = np.clip(np.asarray(problem.x0, dtype=np.float64), lower, upper)
    try:
        solution = optimize.least_squares(
            objective,
            x0,
            jac=jac_arg,
            bounds=(lower, upper),
            method="trf",
            max_nfev=problem.max_nfev,
            ftol=TOLERANCE,
            xtol=TOLERANCE,
            gtol=TOLERANCE,
        )
    except (ValueError, FloatingPointError):
        solution = None
    sse = float("nan") if solution is None else float(2.0 * solution.cost)
    solved = solution is not None and bool(np.isfinite(sse))
    return BatchedOutcome(
        sse=sse,
        vector=tuple(float(v) for v in solution.x) if solved else None,
        message=str(solution.message) if solved else "",
        converged=bool(solution.success) if solved else False,
        nfev=counters["nfev"],
        njev=counters["njev"],
        seconds=time.perf_counter() - t0,
        n_iterations=0 if solution is None else int(solution.nfev) - 1,
    )


def _same_outcome(a: BatchedOutcome, b: BatchedOutcome) -> bool:
    """Field-for-field equality of two solve outcomes (timing aside)."""
    return (
        a.vector == b.vector
        and (a.sse == b.sse or (np.isnan(a.sse) and np.isnan(b.sse)))
        and a.message == b.message
        and a.converged == b.converged
        and a.nfev == b.nfev
        and a.njev == b.njev
        and a.n_iterations == b.n_iterations
    )


@functools.cache
def _kernel_trusted() -> bool:
    """Whether :func:`_solve_exactly` may use the stacked kernel.

    Two checks, each made once per process: scipy's version is one the
    kernel's equality tests passed on (:data:`VERIFIED_SCIPY_VERSIONS`),
    and a probe of fixed problems — quadratic, competing-risks and a
    Weibull mixture, starts inside the box and on its bounds, a budget
    that runs out — comes out of the kernel exactly as
    :func:`_solve_start` solves it.
    """
    if scipy.__version__ not in VERIFIED_SCIPY_VERSIONS:
        return False
    problems = _probe_problems()
    try:
        kernel = solve_trf(problems)
    except Exception:  # noqa: BLE001 - a probe that raises means "do not trust"
        logger.warning(
            "stacked trf kernel probe failed; solving with scipy", exc_info=True
        )
        return False
    return all(
        outcome is not None and _same_outcome(outcome, _solve_start(problem))
        for problem, outcome in zip(problems, kernel)
    )


def _probe_problems() -> list[BatchedProblem]:
    """The fixed problems :func:`_kernel_trusted` checks the kernel on."""
    times = np.arange(20.0)
    performance = (
        1.0
        - 0.3 * np.exp(-(((times - 6.0) / 3.0) ** 2))
        + 0.15 * (times / 19.0) ** 2
        + 0.004 * np.sin(1.7 * times)
    )
    curve = ResilienceCurve(times, performance, nominal=1.0, name="probe")
    columns = (
        tuple(float(v) for v in curve.times),
        tuple(float(v) for v in curve.performance),
    )
    problems: list[BatchedProblem] = []
    # The mixture's second seed has Weibull shape 2 (a row the Weibull
    # raises with a scalar exponent) and a budget that runs out.
    for name, seed, max_nfev in (
        ("quadratic", 0, 200), ("competing_risks", 0, 200), ("wei-exp", 1, 25)
    ):
        family = make_model(name)
        lower = tuple(float(v) for v in family.lower_bounds)
        upper = tuple(float(v) for v in family.upper_bounds)
        seeded = tuple(float(v) for v in family.initial_guesses(curve)[seed])
        # Capping all but the first parameter at 1 puts the quadratic's
        # β and the competing-risks γ on their upper bounds, so the
        # solver steps off the box and reflects from it.
        starts = [seeded, (seeded[0],) + tuple(min(u, 1.0) for u in upper[1:])]
        problems.extend(
            BatchedProblem(family, *columns, start, lower, upper, max_nfev)
            for start in starts
        )
    return problems


# ----------------------------------------------------------------------
# The objective, exactly as the fit engine hands it to scipy
# ----------------------------------------------------------------------
def _residuals(
    family: ResilienceModel, times: FloatArray, targets: FloatArray, x: FloatArray
) -> tuple[FloatArray, _BoolArray]:
    """Penalty-patched residuals at *x*, and the non-finite-prediction
    mask the Jacobian at the same point needs."""
    predictions = family.evaluate_batch(times, x)
    f = targets - predictions
    bad = ~np.isfinite(f)
    if not _any(bad):
        # Targets are finite, so a prediction is non-finite only where
        # its residual is: no bad residual means no bad prediction.
        return f, bad
    for row in np.flatnonzero(bad.any(axis=1)):
        f[row] = np.where(bad[row], _penalty_value(x[row]), f[row])
    return f, ~np.isfinite(predictions)


def _jacobian(
    family: ResilienceModel, times: FloatArray, x: FloatArray, bad: _BoolArray
) -> FloatArray:
    """Residual Jacobians at *x*, penalized rows and non-finite entries
    patched as the fit engine's ``jac=`` callable patches them."""
    jac = -family.prediction_jacobian_batch(times, x)
    if _any(bad):
        for row in np.flatnonzero(bad.any(axis=1)):
            jac[row, bad[row], :] = _penalty_gradient(x[row])
    return np.where(np.isfinite(jac), jac, 0.0)


# ----------------------------------------------------------------------
# Stacked copies of scipy.optimize._lsq.common (one row per problem)
# ----------------------------------------------------------------------
def _dot(a: FloatArray, b: FloatArray) -> FloatArray:
    """Row-wise ``np.dot`` of two ``(P, k)`` stacks (BLAS ``ddot``)."""
    return np.vecdot(a, b)


def _norm(a: FloatArray) -> FloatArray:
    """Row-wise ``np.linalg.norm``: ``sqrt(x.dot(x))``."""
    return np.sqrt(np.vecdot(a, a))


def _matvec(matrix: FloatArray, vector: FloatArray) -> FloatArray:
    """Row-wise ``matrix.dot(vector)`` for C-contiguous slices (BLAS
    ``dgemv`` without transpose)."""
    return np.matmul(matrix, vector[:, :, np.newaxis])[:, :, 0]


def _any(mask: _BoolArray) -> bool:
    """``mask.any()``, cheaper on the tiny masks a group iterates on."""
    return bool(np.count_nonzero(mask))


def _all(mask: _BoolArray) -> bool:
    """``mask.all()``, cheaper on the tiny masks a group iterates on."""
    return int(np.count_nonzero(mask)) == mask.size


def _py_max(a: FloatArray, b: FloatArray) -> FloatArray:
    """Python's ``max(a, b)``: *b* only where ``b > a``."""
    return np.where(b > a, b, a)


def _feasible_start(x: FloatArray, lb: FloatArray, ub: FloatArray) -> FloatArray:
    """``make_strictly_feasible(x, lb, ub)`` with its default rstep 1e-10."""
    rstep = 1e-10
    lower_dist = x - lb
    upper_dist = ub - x
    lower_threshold = rstep * np.maximum(1, np.abs(lb))
    upper_threshold = rstep * np.maximum(1, np.abs(ub))
    lower = np.isfinite(lb) & (lower_dist <= np.minimum(upper_dist, lower_threshold))
    upper = np.isfinite(ub) & (upper_dist <= np.minimum(lower_dist, upper_threshold))
    x_new = np.where(lower & ~upper, lb + rstep * np.maximum(1, np.abs(lb)), x)
    x_new = np.where(upper, ub - rstep * np.maximum(1, np.abs(ub)), x_new)
    tight = (x_new < lb) | (x_new > ub)
    return np.where(tight, 0.5 * (lb + ub), x_new)


def _feasible_step(x: FloatArray, lb: FloatArray, ub: FloatArray) -> FloatArray:
    """``make_strictly_feasible(x, lb, ub, rstep=0)``."""
    if _all((x > lb) & (x < ub)):
        return x
    lower = x <= lb
    upper = x >= ub
    x_new = np.where(lower & ~upper, np.nextafter(lb, ub), x)
    x_new = np.where(upper, np.nextafter(ub, lb), x_new)
    tight = (x_new < lb) | (x_new > ub)
    return np.where(tight, 0.5 * (lb + ub), x_new)


def _cl_scaling(
    x: FloatArray, g: FloatArray, lb: FloatArray, ub: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """``CL_scaling_vector``: Coleman–Li scaling ``v`` and its derivative."""
    upper = (g < 0) & np.isfinite(ub)
    lower = (g > 0) & np.isfinite(lb)
    v = np.where(lower, x - lb, np.where(upper, ub - x, 1.0))
    dv = np.where(lower, 1.0, np.where(upper, -1.0, 0.0))
    return v, dv


def _step_to_bound(
    x: FloatArray, s: FloatArray, lb: FloatArray, ub: FloatArray
) -> tuple[FloatArray, _BoolArray]:
    """``step_size_to_bound``: the step along *s* to the first bound, and
    which coordinates reach it."""
    moving = s != 0
    steps = np.where(moving, np.maximum((lb - x) / s, (ub - x) / s), np.inf)
    min_step = steps.min(axis=1)
    return min_step, (steps == min_step[:, np.newaxis]) & moving


def _quadratic(
    jac_h: FloatArray, g_h: FloatArray, s: FloatArray, diag_h: FloatArray
) -> FloatArray:
    """``evaluate_quadratic(J_h, g_h, s, diag=diag_h)`` for one step per row."""
    js = _matvec(jac_h, s)
    q = _dot(js, js) + _dot(s * diag_h, s)
    return 0.5 * q + _dot(s, g_h)


def _minimize_1d(
    a: FloatArray, b: FloatArray, lb: FloatArray, ub: FloatArray, c: FloatArray | float
) -> tuple[FloatArray, FloatArray]:
    """``minimize_quadratic_1d``: minimum of ``a t² + b t + c`` over
    ``[lb, ub]``, ties and NaNs resolved as ``np.argmin`` does."""
    extremum = -0.5 * b / a
    inside = (a != 0) & (lb < extremum) & (extremum < ub)
    y0 = lb * (a * lb + b) + c
    y1 = ub * (a * ub + b) + c
    y2 = extremum * (a * extremum + b) + c
    nan0 = np.isnan(y0)
    nan1 = np.isnan(y1)
    take1 = ~nan0 & (nan1 | (y1 < y0))
    best_t = np.where(take1, ub, lb)
    best_y = np.where(take1, y1, y0)
    take2 = inside & ~nan0 & ~nan1 & (np.isnan(y2) | (y2 < best_y))
    return np.where(take2, extremum, best_t), np.where(take2, y2, best_y)


def _phi(
    alpha: FloatArray,
    suf: FloatArray,
    suf2: FloatArray,
    s2: FloatArray,
    delta: FloatArray,
) -> tuple[FloatArray, FloatArray]:
    """``phi_and_derivative`` of ``solve_lsq_trust_region``; *s2* and
    *suf2* are ``s**2`` and ``suf**2``, which scipy recomputes per call."""
    denom = s2 + alpha[:, np.newaxis]
    p_norm = _norm(suf / denom)
    phi = p_norm - delta
    phi_prime = -np.add.reduce(suf2 / denom**3, axis=1) / p_norm
    return phi, phi_prime


def _alpha_guess(alpha_lower: FloatArray, alpha_upper: FloatArray) -> FloatArray:
    """``max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)``."""
    return _py_max(
        0.001 * alpha_upper, np.float_power(alpha_lower * alpha_upper, 0.5)
    )


class _Head(NamedTuple):
    """What trf computes at the head of an outer iteration (scaling,
    augmented Jacobian SVD, θ), plus the parts of
    ``solve_lsq_trust_region`` that depend on it alone; every pass of
    the inner loop that follows reuses them."""

    d: FloatArray
    diag_h: FloatArray
    g_h: FloatArray
    jac_h: FloatArray
    theta: FloatArray
    v: FloatArray
    suf: FloatArray
    s2: FloatArray
    suf2: FloatArray
    full_rank: _BoolArray
    p_gn: FloatArray
    gn_norm: FloatArray
    suf_norm: FloatArray
    p_norm0: FloatArray
    phi_prime0: FloatArray


def _make_head(
    n_residuals: int,
    d: FloatArray,
    diag_h: FloatArray,
    g_h: FloatArray,
    jac_h: FloatArray,
    theta: FloatArray,
    uf: FloatArray,
    s: FloatArray,
    v: FloatArray,
) -> _Head:
    """The :class:`_Head` of an outer iteration, from the augmented
    Jacobian's SVD: ``uf = Uᵀ f``, singular values *s* and right
    singular vectors *v* (as columns)."""
    suf = s * uf
    s2 = s**2
    suf2 = suf**2
    # phi_and_derivative(0.0, ...) less its "- Delta"; its denominator
    # s**2 + 0.0 is s**2 itself (s**2 holds no -0.0).
    p_norm0 = _norm(suf / s2)
    p_gn = -_matvec(v, uf / s)
    return _Head(
        d=d, diag_h=diag_h, g_h=g_h, jac_h=jac_h, theta=theta, v=v,
        suf=suf, s2=s2, suf2=suf2,
        full_rank=s[:, -1] > _EPS * n_residuals * s[:, 0],
        p_gn=p_gn,
        gn_norm=_norm(p_gn),
        suf_norm=_norm(suf),
        p_norm0=p_norm0,
        phi_prime0=-np.add.reduce(suf2 / s2**3, axis=1) / p_norm0,
    )


def _solve_tr(
    head: _Head, delta: FloatArray, alpha: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """``solve_lsq_trust_region`` (rtol 0.01, 10 iterations): the step in
    hat space and the new Levenberg–Marquardt parameter."""
    size = delta.size
    gauss_newton = head.full_rank & (head.gn_norm <= delta)
    n_gauss_newton = int(np.count_nonzero(gauss_newton))
    if n_gauss_newton == size:
        return head.p_gn, np.zeros_like(alpha)

    suf, s2, suf2 = head.suf, head.s2, head.suf2
    alpha_upper = head.suf_norm / delta
    alpha_lower = np.where(
        head.full_rank, -(head.p_norm0 - delta) / head.phi_prime0, 0.0
    )
    guess = ~head.full_rank & (alpha == 0)
    if _any(guess):
        alpha = np.where(guess, _alpha_guess(alpha_lower, alpha_upper), alpha)
    iterating = ~gauss_newton
    count = size - n_gauss_newton
    tolerance = 0.01 * delta
    for _ in range(10):
        every = count == size
        reset = (alpha < alpha_lower) | (alpha > alpha_upper)
        if not every:
            reset &= iterating
        if _any(reset):
            alpha = np.where(reset, _alpha_guess(alpha_lower, alpha_upper), alpha)
        phi, phi_prime = _phi(alpha, suf, suf2, s2, delta)
        ratio = phi / phi_prime
        lower = _py_max(alpha_lower, alpha - ratio)
        stepped = alpha - (phi + delta) * ratio / delta
        if every:
            alpha_upper = np.where(phi < 0, alpha, alpha_upper)
            alpha_lower, alpha = lower, stepped
        else:
            alpha_upper = np.where(iterating & (phi < 0), alpha, alpha_upper)
            alpha_lower = np.where(iterating, lower, alpha_lower)
            alpha = np.where(iterating, stepped, alpha)
        iterating = iterating & ~(np.abs(phi) < tolerance)
        count = int(np.count_nonzero(iterating))
        if not count:
            break

    p = -_matvec(head.v, suf / (s2 + alpha[:, np.newaxis]))
    p = p * (delta / _norm(p))[:, np.newaxis]
    if not n_gauss_newton:
        return p, alpha
    return (
        np.where(gauss_newton[:, np.newaxis], head.p_gn, p),
        np.where(gauss_newton, 0.0, alpha),
    )


class _Step(NamedTuple):
    """``select_step``'s choice per row; ``ok`` is False where scipy's
    ``intersect_trust_region`` would raise (``None``: nowhere)."""

    step: FloatArray
    step_h: FloatArray
    predicted: FloatArray
    ok: _BoolArray | None


def _select_step(
    x: FloatArray,
    jac_h: FloatArray,
    diag_h: FloatArray,
    g_h: FloatArray,
    p_h: FloatArray,
    d: FloatArray,
    delta: FloatArray,
    lb: FloatArray,
    ub: FloatArray,
    theta: FloatArray,
) -> _Step:
    """``select_step``: the trust-region step where it stays in the box,
    else the best of the step cut at the bound (times θ), its
    reflection and the constrained Cauchy step."""
    p = d * p_h
    landed = x + p
    inside = np.logical_and.reduce((landed >= lb) & (landed <= ub), axis=1)
    predicted = -_quadratic(jac_h, g_h, p_h, diag_h)
    if _all(inside):
        return _Step(p, p_h, predicted, None)
    ok = np.ones(x.shape[0], dtype=bool)
    rows = np.flatnonzero(~inside)
    cut = _reflective_step(
        x[rows], jac_h[rows], diag_h[rows], g_h[rows], p_h[rows], d[rows],
        delta[rows], lb[rows], ub[rows], theta[rows],
    )
    p = p.copy()
    p_h = p_h.copy()
    p[rows] = cut.step
    p_h[rows] = cut.step_h
    predicted[rows] = cut.predicted
    ok[rows] = cut.ok
    return _Step(p, p_h, predicted, ok)


def _reflective_step(
    x: FloatArray,
    jac_h: FloatArray,
    diag_h: FloatArray,
    g_h: FloatArray,
    p_h: FloatArray,
    d: FloatArray,
    delta: FloatArray,
    lb: FloatArray,
    ub: FloatArray,
    theta: FloatArray,
) -> _Step:
    """The out-of-box branch of ``select_step`` for rows whose
    trust-region step leaves the box."""
    p = d * p_h
    p_stride, hits = _step_to_bound(x, p, lb, ub)
    r_h = np.where(hits, -p_h, p_h)
    r = d * r_h
    p = p * p_stride[:, np.newaxis]
    p_h = p_h * p_stride[:, np.newaxis]
    x_on_bound = x + p

    # intersect_trust_region(p_h, r_h, Delta): the positive root.
    a = _dot(r_h, r_h)
    b = _dot(p_h, r_h)
    c = _dot(p_h, p_h) - np.float_power(delta, 2)
    ok = (a != 0) & ~(c > 0)
    root = np.sqrt(b * b - a * c)
    q = -(b + np.copysign(root, b))
    t1 = q / a
    t2 = c / q
    to_tr = np.where(t1 < t2, t2, t1)

    to_bound, _ = _step_to_bound(x_on_bound, r, lb, ub)
    r_stride = np.where(to_tr < to_bound, to_tr, to_bound)
    positive = r_stride > 0
    r_stride_l = np.where(positive, (1 - theta) * p_stride / r_stride, 0.0)
    r_stride_u = np.where(
        positive, np.where(r_stride == to_bound, theta * to_bound, to_tr), -1.0
    )
    reflect = r_stride_l <= r_stride_u
    # build_quadratic_1d(J_h, g_h, r_h, s0=p_h, diag=diag_h)
    jr = _matvec(jac_h, r_h)
    jp = _matvec(jac_h, p_h)
    qa = (_dot(jr, jr) + _dot(r_h * diag_h, r_h)) * 0.5
    qb = _dot(g_h, r_h) + _dot(jp, jr) + _dot(p_h * diag_h, r_h)
    qc = (0.5 * _dot(jp, jp) + _dot(g_h, p_h)) + 0.5 * _dot(p_h * diag_h, p_h)
    r_t, r_value = _minimize_1d(qa, qb, r_stride_l, r_stride_u, qc)
    r_h = r_h * r_t[:, np.newaxis] + p_h
    r = r_h * d
    r_value = np.where(reflect, r_value, np.inf)

    p = p * theta[:, np.newaxis]
    p_h = p_h * theta[:, np.newaxis]
    p_value = _quadratic(jac_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = delta / _norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb, ub)
    ag_stride = np.where(to_bound < to_tr, theta * to_bound, to_tr)
    # build_quadratic_1d(J_h, g_h, ag_h, diag=diag_h)
    ja = _matvec(jac_h, ag_h)
    qa = (_dot(ja, ja) + _dot(ag_h * diag_h, ag_h)) * 0.5
    qb = _dot(g_h, ag_h)
    ag_t, ag_value = _minimize_1d(qa, qb, np.zeros_like(qa), ag_stride, 0.0)
    ag_h = ag_h * ag_t[:, np.newaxis]
    ag = ag * ag_t[:, np.newaxis]

    take_p = (p_value < r_value) & (p_value < ag_value)
    take_r = ~take_p & (r_value < p_value) & (r_value < ag_value)
    return _Step(
        np.where(take_p[:, None], p, np.where(take_r[:, None], r, ag)),
        np.where(take_p[:, None], p_h, np.where(take_r[:, None], r_h, ag_h)),
        -np.where(take_p, p_value, np.where(take_r, r_value, ag_value)),
        ok,
    )


# ----------------------------------------------------------------------
# trf_bounds over one (family, length) group
# ----------------------------------------------------------------------
class _State:
    """Per-problem solver state of a group, one row per problem still
    iterating (rows are compacted out as problems finish)."""

    _FIELDS = (
        "ids", "times", "targets", "lb", "ub", "max_nfev", "x", "f", "bad",
        "jac", "g", "cost", "delta", "alpha", "status", "nfev", "calls",
        "njev", "fresh", "last_x", "last_f", "last_bad",
    )

    ids: _IntArray
    times: FloatArray
    targets: FloatArray
    lb: FloatArray
    ub: FloatArray
    max_nfev: _IntArray
    x: FloatArray
    f: FloatArray
    bad: _BoolArray
    jac: FloatArray
    g: FloatArray
    cost: FloatArray
    delta: FloatArray
    alpha: FloatArray
    status: _IntArray
    nfev: _IntArray
    calls: _IntArray
    njev: _IntArray
    fresh: _BoolArray
    last_x: FloatArray
    last_f: FloatArray
    last_bad: _BoolArray

    def keep(self, rows: _BoolArray) -> None:
        """Compact every field to *rows*."""
        index = np.flatnonzero(rows)
        for name in self._FIELDS:
            setattr(self, name, getattr(self, name)[index])


class _Final(NamedTuple):
    """A finished problem: scipy's final x and cost, its termination
    status, the objective's residual and Jacobian call counts, and the
    inner-loop passes it took."""

    x: tuple[float, ...]
    cost: float
    status: int
    nfev: int
    njev: int
    ticks: int


def _finite_rows(*arrays: FloatArray) -> _BoolArray:
    """Rows where every entry of every ``(P,)``/``(P, k)`` array is
    finite. Summing is a cheap screen: a non-finite entry makes its sum
    non-finite; an overflowing sum of finite entries only sends a row to
    scipy that did not need it."""
    total = arrays[0] if arrays[0].ndim == 1 else arrays[0].sum(axis=1)
    for array in arrays[1:]:
        total = total + (array if array.ndim == 1 else array.sum(axis=1))
    return np.isfinite(total)


def _solve_group(problems: Sequence[BatchedProblem]) -> list[BatchedOutcome | None]:
    """``least_squares(method="trf")`` over one compatible group."""
    t0 = time.perf_counter()
    family = problems[0].family
    size = len(problems)
    st = _State()
    st.ids = np.arange(size)
    st.times = np.asarray([p.times for p in problems], dtype=np.float64)
    st.targets = np.asarray([p.targets for p in problems], dtype=np.float64)
    st.lb = np.asarray([p.lower for p in problems], dtype=np.float64)
    st.ub = np.asarray([p.upper for p in problems], dtype=np.float64)
    st.max_nfev = np.asarray([p.max_nfev for p in problems], dtype=np.int64)
    m = st.times.shape[1]
    n = st.lb.shape[1]
    diagonal = (m + np.arange(n), np.arange(n))
    finals: dict[int, _Final] = {}

    # least_squares' preamble as the fit engine calls it: clip, check the
    # box, make the start strictly feasible, evaluate f and J once.
    x0 = np.clip(np.asarray([p.x0 for p in problems], dtype=np.float64), st.lb, st.ub)
    usable = (
        np.all((x0 >= st.lb) & (x0 <= st.ub) & (st.lb < st.ub), axis=1)
        # trf_no_bounds, another algorithm, runs when nothing is bounded.
        & ~np.all(np.isinf(st.lb) & np.isinf(st.ub), axis=1)
    )
    st.x = _feasible_start(x0, st.lb, st.ub)
    st.f, st.bad = _residuals(family, st.times, st.targets, st.x)
    st.jac = _jacobian(family, st.times, st.x, st.bad)
    st.cost = 0.5 * _dot(st.f, st.f)
    st.g = np.matmul(st.jac.transpose(0, 2, 1), st.f[:, :, np.newaxis])[:, :, 0]
    v, _ = _cl_scaling(st.x, st.g, st.lb, st.ub)
    st.delta = _norm(st.x / v**0.5)
    st.delta = np.where(st.delta == 0, 1.0, st.delta)
    st.alpha = np.zeros(size)
    st.status = np.full(size, _RUNNING, dtype=np.int64)
    st.nfev = np.ones(size, dtype=np.int64)
    st.calls = np.ones(size, dtype=np.int64)
    st.njev = np.ones(size, dtype=np.int64)
    st.fresh = np.ones(size, dtype=bool)
    st.last_x = st.x
    st.last_f = st.f
    st.last_bad = st.bad
    usable &= _finite_rows(st.f, st.cost, st.g, st.delta)
    if not usable.all():
        st.keep(usable)

    head: _Head | None = None
    while st.ids.size:
        if head is None or _any(st.fresh):
            # -- head of an outer iteration. It depends only on x, f, J
            # and g, which the inner loop does not change, so rows still
            # inside that loop get their own values again.
            v, dv = _cl_scaling(st.x, st.g, st.lb, st.ub)
            g_norm = np.max(np.abs(st.g * v), axis=1)
            st.status = np.where(st.fresh & (g_norm < TOLERANCE), 1, st.status)
            done = st.fresh & ((st.status != _RUNNING) | (st.nfev == st.max_nfev))
            d = v**0.5
            diag_h = st.g * dv
            jac_h = st.jac * d[:, np.newaxis, :]
            root = diag_h**0.5
            if _any(done):
                for row in np.flatnonzero(done):
                    status = int(st.status[row])
                    finals[int(st.ids[row])] = _Final(
                        tuple(float(value) for value in st.x[row]),
                        float(st.cost[row]),
                        0 if status == _RUNNING else status,
                        int(st.calls[row]),
                        int(st.njev[row]),
                        int(st.nfev[row]) - 1,
                    )
                keep = ~done
                st.keep(keep)
                if not st.ids.size:
                    break
                d, diag_h, jac_h, root, g_norm = (
                    d[keep], diag_h[keep], jac_h[keep], root[keep], g_norm[keep]
                )
            rows = st.ids.size
            augmented = np.zeros((rows, m + n, n))
            augmented[:, :m] = jac_h
            augmented[:, diagonal[0], diagonal[1]] = root
            u, s, vt = np.linalg.svd(augmented, full_matrices=False)
            f_augmented = np.zeros((rows, m + n))
            f_augmented[:, :m] = st.f
            one_minus = 1 - g_norm
            head = _make_head(
                m, d, diag_h, d * st.g, jac_h,
                np.where(one_minus > 0.995, one_minus, 0.995),
                _matvec(np.ascontiguousarray(u.transpose(0, 2, 1)), f_augmented),
                s,
                np.ascontiguousarray(vt.transpose(0, 2, 1)),
            )

        # -- one pass of the inner loop: one residual evaluation per row.
        p_h, st.alpha = _solve_tr(head, st.delta, st.alpha)
        chosen = _select_step(
            st.x, head.jac_h, head.diag_h, head.g_h, p_h, head.d, st.delta,
            st.lb, st.ub, head.theta,
        )
        x_new = _feasible_step(st.x + chosen.step, st.lb, st.ub)
        # scipy's VectorFunction evaluates only at a point that differs
        # from the last one it evaluated.
        evaluate = np.logical_or.reduce(x_new != st.last_x, axis=1)
        if _all(evaluate):
            st.last_f, st.last_bad = _residuals(family, st.times, st.targets, x_new)
            st.last_x = x_new
        elif _any(evaluate):
            rows = np.flatnonzero(evaluate)
            values, bad = _residuals(
                family, st.times[rows], st.targets[rows], x_new[rows]
            )
            st.last_x = np.where(evaluate[:, np.newaxis], x_new, st.last_x)
            st.last_f = st.last_f.copy()
            st.last_f[rows] = values
            st.last_bad = st.last_bad.copy()
            st.last_bad[rows] = bad
        f_new = st.last_f
        st.calls = st.calls + evaluate
        st.nfev = st.nfev + 1

        cost_new = 0.5 * _dot(f_new, f_new)
        actual = st.cost - cost_new
        predicted = chosen.predicted
        step_h_norm = _norm(chosen.step_h)
        # update_tr_radius
        rows = st.ids.size
        positive = predicted > 0
        ratio = actual / predicted
        if np.count_nonzero(positive) < rows:
            ratio = np.where(
                positive,
                ratio,
                np.where((predicted == actual) & (actual == 0), 1.0, 0.0),
            )
        delta_new = np.where(ratio < 0.25, 0.25 * step_h_norm, st.delta)
        grow = (ratio > 0.75) & (step_h_norm > 0.95 * st.delta)
        if _any(grow):
            delta_new = np.where(grow, st.delta * 2.0, delta_new)
        # check_termination
        ftol_ok = (actual < TOLERANCE * st.cost) & (ratio > 0.25)
        xtol_ok = _norm(chosen.step) < TOLERANCE * (TOLERANCE + _norm(st.x))
        stop = ftol_ok | xtol_ok
        if _any(stop):
            going = ~stop
            status = np.where(ftol_ok, np.where(xtol_ok, 4, 2), 3)
            st.status = np.where(stop, status, st.status)
            st.alpha = np.where(going, st.alpha * (st.delta / delta_new), st.alpha)
            st.delta = np.where(going, delta_new, st.delta)
        else:
            st.alpha = st.alpha * (st.delta / delta_new)
            st.delta = delta_new
        # The inner loop ends on termination, on a reduction, or when the
        # budget is spent; a reduction moves x and refreshes J.
        st.fresh = stop | ~((actual <= 0) & (st.nfev < st.max_nfev))
        accepted = st.fresh & (actual > 0)
        # A non-finite step_h makes step non-finite too (d > 0 inside the box).
        finite = _finite_rows(chosen.step, predicted, cost_new, st.delta, st.alpha)
        n_accepted = int(np.count_nonzero(accepted))
        if n_accepted == rows:
            st.x, st.f, st.bad, st.cost = x_new, f_new, st.last_bad, cost_new
            st.jac = _jacobian(family, st.times, st.x, st.bad)
            st.g = np.matmul(st.jac.transpose(0, 2, 1), st.f[:, :, np.newaxis])[:, :, 0]
            st.njev = st.njev + 1
            finite &= _finite_rows(st.g)
        elif n_accepted:
            index = np.flatnonzero(accepted)
            column = accepted[:, np.newaxis]
            st.x = np.where(column, x_new, st.x)
            st.f = np.where(column, f_new, st.f)
            st.bad = np.where(column, st.last_bad, st.bad)
            st.cost = np.where(accepted, cost_new, st.cost)
            jac = _jacobian(family, st.times[index], st.x[index], st.bad[index])
            st.jac = st.jac.copy()
            st.jac[index] = jac
            st.g = st.g.copy()
            st.g[index] = np.matmul(
                jac.transpose(0, 2, 1), st.f[index][:, :, np.newaxis]
            )[:, :, 0]
            st.njev = st.njev + accepted
            finite &= _finite_rows(st.g)

        # Rows that would leave the port's path go back to scipy.
        on_path = finite if chosen.ok is None else chosen.ok & finite
        if not _all(on_path):
            st.keep(on_path)
            head = None

    elapsed = time.perf_counter() - t0
    total = float(sum(final.ticks + 1 for final in finals.values())) or 1.0
    outcomes: list[BatchedOutcome | None] = []
    for index in range(size):
        final = finals.get(index)
        if final is None:
            outcomes.append(None)
            continue
        sse = float(2.0 * final.cost)
        finite_sse = bool(np.isfinite(sse))
        outcomes.append(
            BatchedOutcome(
                sse=sse,
                vector=final.x if finite_sse else None,
                message=_MESSAGES[final.status] if finite_sse else "",
                converged=final.status > 0 and finite_sse,
                nfev=final.nfev,
                njev=final.njev,
                seconds=elapsed * (final.ticks + 1) / total,
                n_iterations=final.ticks,
            )
        )
    return outcomes
