"""Batched Levenberg–Marquardt: many bounded least-squares problems, one solver.

One ``optimize.least_squares`` call per (curve, model, start) triple
means, on the paper's table grids, thousands of tiny 31-point solves,
each paying Python dispatch for every residual and Jacobian evaluation
— the profile is dominated by per-call overhead, not arithmetic. This
module stacks all active problems into ``(P, n)`` residual and
``(P, n, k)`` Jacobian arrays (via the models'
``evaluate_batch``/``prediction_jacobian_batch`` protocol) and runs one
classic damped Levenberg–Marquardt iteration across the whole batch:

* each problem carries its own damping factor λ (Marquardt scaling by
  ``diag(JᵀJ)``), accepted steps divide it, rejected steps multiply it;
* the normal equations of every active problem are solved in one
  batched ``np.linalg.solve`` on ``(P, k, k)`` systems;
* box bounds are handled with an active set: a parameter on a bound
  whose descent direction points out of the box is *pinned*, the step
  solves the damped normal equations over the free parameters only, and
  a step that would cross a bound is projected onto the box. A pinned
  parameter stays exactly on its bound, so a start whose optimum lies
  on the box (the quadratic's β ≤ 0 bathtub orientation on a rising
  curve) converges instead of crawling along the bound to ``max_nfev``
  (the winning start is then confirmed along scipy's
  trust-region-reflective trajectory, so the final optimum is always a
  scipy-converged point — the golden-table oracle);
* converged problems are *frozen out* of the active index set: their
  parameters and counters never move again, and stragglers no longer pay
  for finished work;
* the smooth non-finite penalty of the scipy path (``1e6·(1 + ‖θ‖)``
  with matching gradient rows) is applied elementwise, so both engines
  see the same objective everywhere in the box.

Per-problem termination mirrors scipy's semantics: ``ftol`` on the
relative cost reduction of an accepted step, ``xtol`` on the step norm
(accepted or stalled), ``gtol`` on ``‖Jᵀr‖∞`` with the pinned entries
zeroed (the projected gradient, as scipy's trf scaling sees it), and a
per-problem ``max_nfev`` budget. Counters stay honest — every batched
residual evaluation charges one ``nfev`` to each problem it served, and
each Jacobian refresh one ``njev``. Only families with a closed-form
Jacobian are solved here; the fit engine hands the others to scipy.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from repro._env import read_env
from repro._typing import FloatArray
from repro.exceptions import FitError
from repro.models.base import ResilienceModel

#: Index vector into a problem group's stacked arrays.
_IntArray = npt.NDArray[np.int64]

__all__ = [
    "ENGINE_ENV_VAR",
    "ENGINE_NAMES",
    "TOLERANCE",
    "BatchedOutcome",
    "BatchedProblem",
    "resolve_engine",
    "solve_batched",
]

#: Recognized ``engine=`` names for :func:`~repro.fitting.fit_least_squares`.
ENGINE_NAMES = ("scipy", "batched")

#: Environment variable supplying the default engine when ``engine=None``.
ENGINE_ENV_VAR = "REPRO_FIT_ENGINE"

#: ``ftol``, ``xtol`` and ``gtol`` of every solve: this kernel's, the
#: stacked trf kernel's and the scipy call that kernel reproduces. Far
#: below the 8-decimal precision tables are rendered at. Full tightness
#: matters for the screen too: looser stopping lets near-flat problems
#: freeze with an SSE error of the order of the reduce's 1e-8 winner
#: band, which flips winners between engines.
TOLERANCE = 1e-12

#: Magnitude of the penalty applied to non-finite residuals, shared
#: with :mod:`repro.fitting.trf` so every solver optimizes the
#: identical objective. The penalty is ``scale·(1 + ‖θ‖)`` rather than
#: a constant: a constant plateau has zero gradient everywhere, so once
#: a step lands in a non-finite pocket the optimizer sees a flat
#: landscape and stalls there. The ‖θ‖ term restores a slope pointing
#: back toward the origin (feasible vectors in every family are bounded
#: well below the scales that overflow), letting the solver walk out.
_PENALTY_SCALE = 1e6

#: Damping schedule: accepted steps divide λ, rejected steps multiply
#: it, both by a fixed factor. Adaptive gain-ratio policies (Nielsen's
#: cubic shrink, geometric rejection growth) converge in fewer
#: iterations on easy problems but follow *different trajectories* than
#: this classic schedule — on the near-flat mixture landscapes they
#: freeze stragglers mid-valley or hop basins the scipy trust region
#: finds, which is fatal for cross-engine winner agreement. The fixed
#: schedule tracks scipy's basin choices on every pinned table.
_LAMBDA_INIT = 1e-3
_LAMBDA_DOWN = 5.0
_LAMBDA_UP = 5.0
_LAMBDA_MIN = 1e-12
#: λ past this means the quadratic model is useless at machine precision;
#: the problem is frozen as failed-to-converge rather than spun forever.
_LAMBDA_MAX = 1e16

#: Hard safety cap on LM iterations per group (each iteration costs at
#: least one nfev per active problem, so ``max_nfev`` normally wins).
_MAX_ITERATIONS = 100_000

#: Per-problem termination statuses (0 = still active).
_STATUS_GTOL = 1
_STATUS_FTOL = 2
_STATUS_XTOL = 3
_STATUS_BUDGET = 4
_STATUS_STALLED = 5

_MESSAGES = {
    _STATUS_GTOL: "`gtol` termination condition is satisfied.",
    _STATUS_FTOL: "`ftol` termination condition is satisfied.",
    _STATUS_XTOL: "`xtol` termination condition is satisfied.",
    _STATUS_BUDGET: "The maximum number of function evaluations is exceeded.",
    _STATUS_STALLED: "LM damping overflowed; no further descent direction.",
}

_CONVERGED_STATUSES = frozenset({_STATUS_GTOL, _STATUS_FTOL, _STATUS_XTOL})


def resolve_engine(engine: str | None) -> str:  # repro-lint: disable=R3 — this *is* the engine resolver options= delegates to
    """Map the user-facing ``engine=`` choice onto a concrete engine name.

    ``None`` falls back to the ``REPRO_FIT_ENGINE`` environment variable
    (the only env read, via the registered :func:`repro._env.read_env`
    funnel), and unset environments default to ``"scipy"``.

    Raises
    ------
    FitError
        If the name is not one of :data:`ENGINE_NAMES`.
    """
    if engine is None:
        engine = read_env(ENGINE_ENV_VAR, None) or "scipy"
    if engine not in ENGINE_NAMES:
        raise FitError(f"engine must be one of {ENGINE_NAMES}, got {engine!r}")
    return engine


class BatchedProblem(NamedTuple):
    """One bounded least-squares problem: one start of one fit.

    ``times``/``targets`` are the observation grid and values,
    ``x0``/``lower``/``upper`` the start and box, and ``max_nfev`` the
    residual-evaluation budget. The LM screen, the stacked trf kernel
    and the scipy reference all solve this type; the Jacobian follows
    the family (its closed form when it has one).
    """

    family: ResilienceModel
    times: tuple[float, ...]
    targets: tuple[float, ...]
    x0: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    max_nfev: int


class BatchedOutcome(NamedTuple):
    """Per-problem solver outcome, whichever solver produced it.

    ``sse`` is the objective value ``2·cost``; ``vector`` is None when
    the solve raised or ended on a non-finite objective. ``nfev`` and
    ``njev`` count the objective's residual and Jacobian calls,
    ``seconds`` is the problem's wall time (its share of a stacked
    call), and ``n_iterations`` the solver's iterations: LM iterations
    for the screen, trf's inner-loop passes (scipy's ``nfev − 1``) for
    the trf kernel and the scipy reference.
    """

    sse: float
    vector: tuple[float, ...] | None
    message: str
    converged: bool
    nfev: int
    njev: int
    seconds: float
    n_iterations: int


def _group_problems(problems: Sequence[BatchedProblem]) -> list[list[int]]:
    """Indices of *problems* grouped by (family fingerprint, observation
    count), the axes a kernel stacks along; groups in order of first
    appearance, indices in order."""
    groups: dict[tuple[str, int], list[int]] = {}
    for index, problem in enumerate(problems):
        key = (problem.family.fingerprint(), len(problem.times))
        groups.setdefault(key, []).append(index)
    return list(groups.values())


def solve_batched(problems: Sequence[BatchedProblem]) -> list[BatchedOutcome]:
    """Solve every problem, batching compatible ones through one kernel.

    Problems are grouped by family and curve length
    (:func:`_group_problems`), so heterogeneous lists batch correctly:
    each group runs one vectorized LM solve to :data:`TOLERANCE`, and
    results come back in input order.

    Raises
    ------
    FitError
        If a problem's family has no closed-form Jacobian.
    """
    results: list[BatchedOutcome | None] = [None] * len(problems)
    for indices in _group_problems(problems):
        family = problems[indices[0]].family
        if not family.has_analytic_jacobian:
            raise FitError(
                f"the batched kernel needs a closed-form Jacobian; "
                f"{family.name!r} has none"
            )
        outcomes = _solve_group([problems[i] for i in indices])
        for position, outcome in zip(indices, outcomes):
            results[position] = outcome
    return [outcome for outcome in results if outcome is not None]


def _penalize_residuals(
    x: FloatArray, residuals: FloatArray
) -> tuple[FloatArray, npt.NDArray[np.bool_]]:
    """Replace non-finite residual entries with the smooth penalty.

    Identical to the scipy path's elementwise treatment: every bad entry
    of problem ``b`` becomes ``1e6·(1 + ‖θ_b‖)``, preserving a slope
    back toward the feasible region. Also returns the bad-entry mask so
    the Jacobian refresh can patch the matching rows without
    re-evaluating the model.
    """
    bad = ~np.isfinite(residuals)
    if bad.any():
        norms = np.sqrt(np.einsum("ij,ij->i", x, x))
        penalty = _PENALTY_SCALE * (1.0 + norms)
        residuals = np.where(bad, penalty[:, np.newaxis], residuals)
    return residuals, bad


def _penalty_gradient_rows(x: FloatArray) -> FloatArray:
    """Row gradient of the penalty for each problem, shape ``(m, k)``."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    safe = np.where(norms < 1e-12, 1.0, norms)
    grad = (_PENALTY_SCALE / safe)[:, np.newaxis] * x
    return np.where((norms < 1e-12)[:, np.newaxis], 0.0, grad)


class _GroupArrays(NamedTuple):
    """Stacked state for one compatible problem group."""

    family: ResilienceModel
    times: FloatArray
    targets: FloatArray
    lower: FloatArray
    upper: FloatArray
    max_nfev: _IntArray


def _stack_group(problems: Sequence[BatchedProblem]) -> _GroupArrays:
    times = np.asarray([p.times for p in problems], dtype=np.float64)
    targets = np.asarray([p.targets for p in problems], dtype=np.float64)
    lower = np.asarray([p.lower for p in problems], dtype=np.float64)
    upper = np.asarray([p.upper for p in problems], dtype=np.float64)
    max_nfev = np.asarray([p.max_nfev for p in problems], dtype=np.int64)
    return _GroupArrays(
        family=problems[0].family,
        times=times,
        targets=targets,
        lower=lower,
        upper=upper,
        max_nfev=max_nfev,
    )


def _group_residuals(
    group: _GroupArrays, idx: _IntArray, x: FloatArray
) -> tuple[FloatArray, npt.NDArray[np.bool_]]:
    """Penalty-patched residuals for problems *idx* at *x*.

    The second return is the non-finite-prediction mask from
    :func:`_penalize_residuals` — the Jacobian refresh reuses it so the
    model is never evaluated a second time at the same point.
    """
    predictions = group.family.evaluate_batch(group.times[idx], x)
    return _penalize_residuals(x, group.targets[idx] - predictions)


def _group_jacobian(
    group: _GroupArrays,
    idx: _IntArray,
    x: FloatArray,
    bad: npt.NDArray[np.bool_],
) -> FloatArray:
    """Residual Jacobian stack ``(m, n, k)`` for problems *idx* at *x*.

    ``bad`` is the penalized-entry mask recorded when the residuals at
    *x* were evaluated — it marks the rows that must carry the penalty
    gradient instead of the model's.
    """
    jac = -group.family.prediction_jacobian_batch(group.times[idx], x)
    if bad.any():
        # Match the objective: penalized observations get the
        # penalty's gradient so the solver still sees a descent
        # direction out of the non-finite pocket.
        rows = _penalty_gradient_rows(x)
        jac = np.where(bad[:, :, np.newaxis], rows[:, np.newaxis, :], jac)
    return np.where(np.isfinite(jac), jac, 0.0)


def _solve_group(problems: Sequence[BatchedProblem]) -> list[BatchedOutcome]:
    """One vectorized LM solve over a compatible problem group."""
    t0 = time.perf_counter()
    group = _stack_group(problems)
    n_problems = len(problems)
    n_params = group.lower.shape[1]

    x = np.clip(
        np.asarray([p.x0 for p in problems], dtype=np.float64),
        group.lower,
        group.upper,
    )
    lam = np.full(n_problems, _LAMBDA_INIT, dtype=np.float64)
    nfev = np.zeros(n_problems, dtype=np.int64)
    njev = np.zeros(n_problems, dtype=np.int64)
    n_iterations = np.zeros(n_problems, dtype=np.int64)
    status = np.zeros(n_problems, dtype=np.int64)
    need_jac = np.ones(n_problems, dtype=bool)
    jacobian = np.zeros((n_problems, group.times.shape[1], n_params))

    everyone = np.arange(n_problems)
    residuals, penalized = _group_residuals(group, everyone, x)
    nfev += 1  # the initial evaluation, exactly like scipy's first call
    cost = 0.5 * np.einsum("ij,ij->i", residuals, residuals)
    status[nfev >= group.max_nfev] = _STATUS_BUDGET

    for _ in range(_MAX_ITERATIONS):
        active = np.flatnonzero(status == 0)
        if active.size == 0:
            break
        refresh = active[need_jac[active]]
        if refresh.size:
            jacobian[refresh] = _group_jacobian(
                group, refresh, x[refresh], penalized[refresh]
            )
            njev[refresh] += 1
            need_jac[refresh] = False

        jac_active = jacobian[active]
        gradient = np.einsum("pnk,pn->pk", jac_active, residuals[active])
        # A parameter on a bound whose descent direction −g points out of
        # the box is pinned: gtol sees the projected gradient (pinned
        # entries zeroed, as scipy's Coleman–Li scaling does for trf) and
        # the step moves only the free parameters. With nothing pinned
        # both masks are no-ops, so interior arithmetic is unchanged.
        x_active = x[active]
        pinned = ((x_active <= group.lower[active]) & (gradient > 0.0)) | (
            (x_active >= group.upper[active]) & (gradient < 0.0)
        )
        gradient = np.where(pinned, 0.0, gradient)
        hit_gtol = np.max(np.abs(gradient), axis=1) < TOLERANCE
        if hit_gtol.any():
            status[active[hit_gtol]] = _STATUS_GTOL
            active = active[~hit_gtol]
            if active.size == 0:
                continue
            jac_active = jac_active[~hit_gtol]
            gradient = gradient[~hit_gtol]
            pinned = pinned[~hit_gtol]

        n_iterations[active] += 1
        normal = np.einsum("pnk,pnl->pkl", jac_active, jac_active)
        diag = np.arange(n_params)
        if pinned.any():
            # Reduce to the free parameters: a pinned row and column of
            # JᵀJ become a unit diagonal, which with its zeroed gradient
            # entry gives a step of exactly 0, so it stays on its bound.
            free = ~pinned
            normal = np.where(
                free[:, :, np.newaxis] & free[:, np.newaxis, :], normal, 0.0
            )
            normal[:, diag, diag] = np.where(pinned, 1.0, normal[:, diag, diag])
        scale = np.clip(
            np.einsum("pkk->pk", normal).copy(), 1e-12, None
        )  # Marquardt scaling by diag(JᵀJ), floored for flat directions
        damped = normal.copy()
        damped[:, diag, diag] += lam[active][:, np.newaxis] * scale
        try:
            step = np.linalg.solve(damped, -gradient[..., np.newaxis])[..., 0]
        except np.linalg.LinAlgError:  # pragma: no cover - ridge keeps A SPD
            step = np.stack(
                [
                    np.linalg.lstsq(damped[i], -gradient[i], rcond=None)[0]
                    for i in range(damped.shape[0])
                ]
            )
        solvable = np.all(np.isfinite(step), axis=1)

        x_new = np.clip(x[active] + step, group.lower[active], group.upper[active])
        box_step = x_new - x[active]
        residuals_new, penalized_new = _group_residuals(group, active, x_new)
        nfev[active] += 1
        cost_new = 0.5 * np.einsum("ij,ij->i", residuals_new, residuals_new)

        improved = solvable & (cost_new < cost[active])
        step_norm = np.sqrt(np.einsum("ij,ij->i", box_step, box_step))
        x_norm = np.sqrt(np.einsum("ij,ij->i", x[active], x[active]))
        tiny_step = step_norm < TOLERANCE * (TOLERANCE + x_norm)

        accepted = active[improved]
        if accepted.size:
            reduction = cost[accepted] - cost_new[improved]
            x[accepted] = x_new[improved]
            residuals[accepted] = residuals_new[improved]
            penalized[accepted] = penalized_new[improved]
            cost[accepted] = cost_new[improved]
            lam[accepted] = np.maximum(lam[accepted] / _LAMBDA_DOWN, _LAMBDA_MIN)
            need_jac[accepted] = True
            hit_ftol = reduction <= TOLERANCE * np.maximum(cost[accepted], 1e-300)
            status[accepted[hit_ftol]] = _STATUS_FTOL
            still = accepted[~hit_ftol]
            hit_xtol = tiny_step[improved][~hit_ftol]
            status[still[hit_xtol]] = _STATUS_XTOL

        rejected = active[~improved]
        if rejected.size:
            # A rejected step that is already below the xtol scale means
            # the quadratic model cannot propose a meaningful move:
            # converged by step size, same as scipy's xtol exit.
            reject_tiny = tiny_step[~improved] & solvable[~improved]
            status[rejected[reject_tiny]] = _STATUS_XTOL
            lam[rejected] = lam[rejected] * _LAMBDA_UP
            status[rejected[lam[rejected] > _LAMBDA_MAX]] = _STATUS_STALLED

        exhausted = (status == 0) & (nfev >= group.max_nfev)
        status[exhausted] = _STATUS_BUDGET
    else:  # pragma: no cover - _MAX_ITERATIONS is far beyond any budget
        status[status == 0] = _STATUS_BUDGET

    elapsed = time.perf_counter() - t0
    shares = (n_iterations + 1).astype(np.float64)
    shares = shares / float(shares.sum())
    outcomes: list[BatchedOutcome] = []
    for i in range(n_problems):
        sse = float(2.0 * cost[i])
        final_status = int(status[i])
        vector: tuple[float, ...] | None = tuple(float(v) for v in x[i])
        if not np.isfinite(sse):
            vector = None
        outcomes.append(
            BatchedOutcome(
                sse=sse,
                vector=vector,
                message=_MESSAGES.get(final_status, ""),
                converged=final_status in _CONVERGED_STATUSES,
                nfev=int(nfev[i]),
                njev=int(njev[i]),
                seconds=float(elapsed * shares[i]),
                n_iterations=int(n_iterations[i]),
            )
        )
    return outcomes
