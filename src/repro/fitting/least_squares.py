"""The least-squares fitting engine (Eq. 8).

``fit_least_squares`` minimizes ``Σᵢ (R(tᵢ) − P(tᵢ))²`` over the
model's bounded parameter space with scipy's trust-region-reflective
least squares, trying every multi-start point and keeping the best
optimum. The starts are independent problems, so they can run on any
:class:`~repro.parallel.FitExecutor` backend; results are reduced in
start order, making the outcome identical on every backend.

Two layers keep the engine cheap:

* **Analytic Jacobians** — families that expose
  :meth:`~repro.models.base.ResilienceModel.prediction_jacobian` in
  closed form (the quadratic, the Hjorth competing-risks model, and all
  Exp/Weibull mixtures under every trend) hand scipy an exact ``jac=``
  callable instead of letting it rebuild the Jacobian by finite
  differences, cutting residual evaluations by roughly the parameter
  count.
* **Fit caching** — results are memoized in a content-addressed
  :class:`~repro.fitting.cache.FitCache`, so experiment grids that
  revisit the same ``(family, curve, config)`` triple skip the solve
  entirely.

A third layer is opt-in: ``engine="batched"`` routes the multi-start
exploration through :mod:`repro.fitting.batched`, a pure-numpy batched
Levenberg–Marquardt kernel that advances every start in lockstep and
amortizes the per-call dispatch overhead across the whole batch. The
batched kernel *screens* the starts; the winning start is then
re-solved by scipy from its original x0 (one solve instead of one per
start), so the final optimum is the exact scipy trajectory and the
rendered tables are byte-identical under both engines (the scipy path
stays the oracle).

Every fit runs through :func:`_solve_pairs`, which takes many
``(family, curve)`` pairs and solves the starts of all of them at once:
:func:`fit_least_squares` is its one-pair call, and every batch —
:func:`fit_many`, the table grids and truncation sweep,
:func:`~repro.fitting.fleet.fit_fleet`, the bootstrap, the episode
scorecard, serving refits and remediation — is one call, whose starts
the executor maps. Batch callers other than the fleet enter through
:func:`_fit_pairs`, which takes :func:`fit_least_squares`'s science
keywords.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Iterable, Mapping, NamedTuple, Sequence, cast

import numpy as np
from scipy import optimize

from repro.core.curve import ResilienceCurve
from repro.exceptions import ConvergenceError, FitError
from repro.fitting.batched import (
    _PENALTY_SCALE,
    BatchedProblem,
    resolve_engine,
    solve_batched,
)
from repro.fitting.cache import (
    FitCache,
    fit_cache_key,
    resolve_cache,
    sequence_of_vectors,
)
from repro.fitting.multistart import generate_starts
from repro.fitting.options import (
    DEFAULT_ENGINE_OPTIONS as DEFAULT_OPTIONS,
    EngineOptions,
)
from repro.fitting.result import FitResult
from repro.models.base import ResilienceModel
from repro.observability.tracer import (
    NULL_TRACER,
    Tracer,
    activate,
    deactivate,
    resolve_tracer,
)
from repro.parallel import get_executor

__all__ = ["fit_least_squares", "fit_many", "FitManyResult"]

logger = logging.getLogger("repro.fitting")

#: Relative SSE band for multi-start winner selection. Several starts
#: routinely converge into the *same* basin, where their objectives
#: agree to last-ulp noise (~1e-14 relative in practice); a strict
#: argmin would let that noise pick the winner — and let two solver
#: engines disagree about it. Instead the winner is the earliest start
#: whose SSE lies within this band of the best, which is stable under
#: any perturbation smaller than the band.
#: Distinct local optima in these families are separated by many orders
#: of magnitude more than this, so the rule never crosses basins.
_REDUCE_RTOL = 1e-8


def _penalty_value(vector: np.ndarray) -> float:
    """Smoothly increasing replacement for non-finite residuals."""
    return _PENALTY_SCALE * (1.0 + float(np.linalg.norm(vector)))


def _penalty_gradient(vector: np.ndarray) -> np.ndarray:
    """Gradient of :func:`_penalty_value` with respect to θ."""
    norm = float(np.linalg.norm(vector))
    if norm < 1e-12:
        return np.zeros_like(vector)
    return (_PENALTY_SCALE / norm) * np.asarray(vector, dtype=np.float64)


class _StartOutcome(NamedTuple):
    """Per-start optimizer outcome; ``vector`` is None when the start
    raised or produced a non-finite objective. ``seconds`` is the
    start's wall time, measured inside the work unit so it survives the
    trip through any executor backend and can be traced by the parent."""

    sse: float
    vector: tuple[float, ...] | None
    message: str
    converged: bool
    nfev: int
    njev: int
    seconds: float


class _StartWork(NamedTuple):
    """Picklable work unit: one optimizer run from one start."""

    family: ResilienceModel
    curve: ResilienceCurve
    x0: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    max_nfev: int
    jac_mode: str


def _solve_start(work: _StartWork) -> _StartOutcome:
    """Run one bounded least-squares solve (module-level so the process
    backend can pickle it).

    The residual-evaluation counter lives here rather than trusting
    ``solution.nfev``: scipy's trf does *not* count the residual calls
    its 2-point Jacobian makes, so the reported number would flatter the
    finite-difference mode. Counting inside the closures makes the
    analytic-vs-FD comparison honest.
    """
    t0 = time.perf_counter()
    family = work.family
    curve = work.curve
    lower = np.asarray(work.lower, dtype=np.float64)
    upper = np.asarray(work.upper, dtype=np.float64)
    counters = {"nfev": 0, "njev": 0}

    def objective(vector: np.ndarray) -> np.ndarray:
        counters["nfev"] += 1
        residuals = family.residuals(curve, vector)
        bad = ~np.isfinite(residuals)
        if bad.any():
            residuals = np.where(bad, _penalty_value(vector), residuals)
        return residuals

    def analytic_jac(vector: np.ndarray) -> np.ndarray:
        counters["njev"] += 1
        jac = -family.prediction_jacobian(curve.times, vector)
        predictions = family.evaluate(curve.times, vector)
        bad = ~np.isfinite(predictions)
        if bad.any():
            # Match the objective: penalized rows get the penalty's
            # gradient so the solver still sees a downhill direction.
            jac[bad, :] = _penalty_gradient(vector)
        return np.where(np.isfinite(jac), jac, 0.0)

    jac_arg: Any = analytic_jac if work.jac_mode == "analytic" else "2-point"
    x0 = np.clip(np.asarray(work.x0, dtype=np.float64), lower, upper)
    try:
        solution = optimize.least_squares(
            objective,
            x0,
            jac=jac_arg,
            bounds=(lower, upper),
            method="trf",
            max_nfev=work.max_nfev,
            # Far below the 8-decimal precision tables are rendered at.
            ftol=1e-12,
            xtol=1e-12,
            gtol=1e-12,
        )
    except (ValueError, FloatingPointError):
        return _StartOutcome(
            float("nan"), None, "", False, counters["nfev"], counters["njev"],
            time.perf_counter() - t0,
        )
    sse = float(2.0 * solution.cost)  # cost is 0.5 * sum(residual²)
    if not np.isfinite(sse):
        return _StartOutcome(
            sse, None, "", False, counters["nfev"], counters["njev"],
            time.perf_counter() - t0,
        )
    return _StartOutcome(
        sse,
        tuple(float(v) for v in solution.x),
        str(solution.message),
        bool(solution.success),
        counters["nfev"],
        counters["njev"],
        time.perf_counter() - t0,
    )


class _WinnerSelection(NamedTuple):
    """Outcome of the reduce → confirm pipeline."""

    sse: float
    vector: tuple[float, ...]
    message: str
    converged: bool
    winner_index: int
    failures: int
    confirm_nfev: int
    confirm_njev: int


def _select_and_confirm(
    family: ResilienceModel,
    curve: ResilienceCurve,
    start_vectors: Sequence[tuple[float, ...]],
    outcomes: Sequence[Any],
    *,
    lower: tuple[float, ...],
    upper: tuple[float, ...],
    max_nfev: int,
    jac_mode: str,
    confirm: bool,
    tracer: Any,
) -> _WinnerSelection:
    """Reduce multi-start *outcomes* to the final optimum.

    Reduction happens in start order — identical on every backend
    regardless of which produced the outcomes. The winner is the
    earliest start whose SSE lies within the ``_REDUCE_RTOL`` band of
    the best (see the constant's rationale), not the strict argmin.
    With *confirm* (batched-engine outcomes) the winning start is then
    re-solved by scipy from its original x0 (the screen-then-confirm
    contract).

    Raises
    ------
    ConvergenceError
        If every start failed to produce a finite optimum.
    """
    failures = 0
    min_sse = np.inf
    for outcome in outcomes:
        if outcome.vector is None:
            failures += 1
        elif outcome.sse < min_sse:
            min_sse = outcome.sse

    if not np.isfinite(min_sse):
        raise ConvergenceError(
            f"all {len(start_vectors)} starts failed fitting "
            f"{family.name!r} to {curve.name or '<curve>'}"
        )
    threshold = min_sse + _REDUCE_RTOL * abs(min_sse)
    winner_index = next(
        index
        for index, outcome in enumerate(outcomes)
        if outcome.vector is not None and outcome.sse <= threshold
    )
    winner = outcomes[winner_index]
    assert winner.vector is not None  # the generator above filters failures
    best_sse = float(winner.sse)
    best_vector: tuple[float, ...] = winner.vector
    best_message = winner.message
    best_converged = winner.converged

    # The batched kernel only *screens* the starts: it finds the basin
    # and ranks the candidates, but its iterates are not scipy's. Each
    # in-band candidate is re-solved by scipy from its original x0, in
    # start order, until one lands back inside the band — that solve is
    # the exact trajectory the scipy engine would have produced for the
    # same start, so rendered artifacts are byte-identical. (The loop,
    # rather than a single confirmation, covers the rare start whose
    # batched iterates and scipy iterates descend into different
    # basins; in the common case exactly one solve runs.)
    confirm_nfev = 0
    confirm_njev = 0
    if confirm:
        chosen: _StartOutcome | None = None
        fallback: _StartOutcome | None = None
        for index, outcome in enumerate(outcomes):
            if outcome.vector is None or outcome.sse > threshold:
                continue
            confirm = _solve_start(
                _StartWork(
                    family, curve, start_vectors[index], lower, upper,
                    max_nfev, jac_mode,
                )
            )
            confirm_nfev += confirm.nfev
            confirm_njev += confirm.njev
            if tracer.enabled:
                tracer.record(
                    "fit.confirm",
                    confirm.seconds,
                    index=index,
                    nfev=confirm.nfev,
                    njev=confirm.njev,
                    converged=confirm.converged,
                )
            if confirm.vector is None:
                continue
            if fallback is None or confirm.sse < fallback.sse:
                fallback = confirm
            if confirm.sse <= threshold:
                chosen = confirm
                winner_index = index
                break
        if chosen is None:
            # scipy never reached the screened basin from any in-band
            # x0; restart it from the screened optimum itself so the
            # result is still a scipy-converged point, and keep the
            # best confirmation if that somehow does better.
            rescue = _solve_start(
                _StartWork(
                    family, curve, best_vector, lower, upper, max_nfev, jac_mode
                )
            )
            confirm_nfev += rescue.nfev
            confirm_njev += rescue.njev
            contenders = [
                o for o in (fallback, rescue) if o is not None and o.vector is not None
            ]
            if contenders:
                chosen = min(contenders, key=lambda o: o.sse)
        if chosen is not None:
            best_sse = chosen.sse
            best_vector = chosen.vector
            best_message = chosen.message
            best_converged = chosen.converged

    return _WinnerSelection(
        sse=best_sse,
        vector=best_vector,
        message=best_message,
        converged=best_converged,
        winner_index=int(winner_index),
        failures=failures,
        confirm_nfev=confirm_nfev,
        confirm_njev=confirm_njev,
    )


def fit_least_squares(
    family: ResilienceModel,
    curve: ResilienceCurve,
    *,
    options: EngineOptions | None = None,
    n_random_starts: int | None = None,
    seed: int | None = None,
    max_nfev: int | None = None,
    starts: Sequence[Sequence[float]] | None = None,
    extra_starts: Sequence[Sequence[float]] | None = None,
    engine: str | None = None,
) -> FitResult:
    """Fit *family* to *curve* by bounded least squares.

    Parameters
    ----------
    family:
        Unbound model family (e.g. ``QuadraticResilienceModel()``).
    curve:
        Empirical curve; typically the training prefix from
        :meth:`~repro.core.curve.ResilienceCurve.train_test_split`.
    options:
        An :class:`~repro.fitting.options.EngineOptions` bundle holding
        the engine knobs in one value. Any science kwarg below that is
        passed explicitly overrides the corresponding options field;
        fields left at their defaults behave exactly like omitting the
        kwarg. The bundle's plumbing fields are the only way to set:

        * ``cache`` — fit memoization: ``None``/``True`` use the
          environment-default :class:`~repro.fitting.cache.FitCache`
          (``REPRO_FIT_CACHE``), ``False`` bypasses caching, and an
          explicit :class:`~repro.fitting.cache.FitCache` uses that
          instance. Hits return a result bit-identical to the original
          solve with ``details["cache_hit"] = True``.
        * ``trace`` — observability: ``None`` uses the environment
          default (``REPRO_TRACE`` / ``REPRO_TRACE_FILE`` — disabled
          when unset), ``False`` disables tracing, ``True`` uses the
          process-global tracer, and an explicit
          :class:`~repro.observability.Tracer` records into that
          instance. When enabled, the fit emits one ``"fit"`` span
          (with nfev/njev/jac-mode/cache-hit attribution) plus one
          ``"fit.start"`` span per multi-start solve.
        * ``executor``/``n_workers`` — the backend the independent
          multi-start solves run on: ``"serial"``, ``"thread"``,
          ``"process"``, or a :class:`~repro.parallel.FitExecutor`
          instance (``None`` → ``REPRO_FIT_EXECUTOR``). Results are
          reduced in start order, so every backend returns the same
          fit.
    n_random_starts:
        Perturbed variants per heuristic seed (see
        :func:`~repro.fitting.multistart.generate_starts`). 0 uses only
        the heuristic seeds.
    seed:
        Random-stream seed for start generation; ``None`` uses the
        library default (fits are deterministic either way).
    max_nfev:
        Function-evaluation budget per start.
    starts:
        Explicit starting vectors; overrides generation entirely.
    extra_starts:
        Additional heuristic start vectors *prepended* to the start
        list (clipped to bounds, deduplicated). Used by warm-started
        sweeps to inject the neighbouring cell's optimum without
        discarding the family's own seeds.
    engine:
        Solver engine: ``"scipy"`` (one ``optimize.least_squares`` call
        per start — the golden-table oracle) or ``"batched"`` (the
        :mod:`repro.fitting.batched` vectorized Levenberg–Marquardt
        kernel, which screens all starts in one stacked solve and then
        re-solves the winning start with scipy from its original x0,
        so rendered artifacts are byte-identical under both engines).
        ``None`` defers to
        ``options.engine`` and then the ``REPRO_FIT_ENGINE``
        environment variable (default ``"scipy"``).

    Returns
    -------
    FitResult
        With the model bound to the lowest-SSE optimum across starts.
        ``details`` records the per-start and total residual/Jacobian
        evaluation counts (``nfev``/``njev``), the ``jac_mode`` (the
        family's closed form, ``"analytic"``, when it has one, else
        ``"2-point"`` finite differences), and whether the result came
        from cache.

    Raises
    ------
    FitError
        If the curve contains non-finite values or fewer observations
        than parameters, a start vector has the wrong length or a
        non-finite entry, or the ``engine``/``cache`` arguments are
        invalid.
    ConvergenceError
        If every start fails to produce a finite optimum.
    """
    opts = (options or DEFAULT_OPTIONS).override(
        n_random_starts=n_random_starts,
        seed=seed,
        max_nfev=max_nfev,
        engine=engine,
    )

    def solve() -> FitResult:
        (result,) = _raise_first_failure(
            _solve_pairs(
                [_FitPair(family, curve, starts=starts, extra_starts=extra_starts)],
                opts, fit_spans=False,
            )
        )
        return result

    tracer = resolve_tracer(opts.trace)
    if not tracer.enabled:
        # No-op fast path: skip span construction entirely so the
        # disabled overhead stays within noise on the table workloads.
        return solve()
    start_time = time.perf_counter()
    with tracer.span(
        "fit",
        family=family.name,
        curve=curve.name or "<curve>",
        n_points=len(curve),
    ) as span:
        result = solve()
        _record_fit(tracer, span, result, time.perf_counter() - start_time)
        return result


def _record_fit(tracer: Any, span: Any, result: FitResult, seconds: float) -> None:
    """Attribute a finished fit to its ``"fit"`` span and the metrics."""
    details = result.details
    span.set(
        sse=result.sse,
        converged=result.converged,
        n_starts=result.n_starts,
        n_failures=result.n_failures,
        nfev=details.get("nfev"),
        njev=details.get("njev"),
        jac_mode=details.get("jac_mode"),
        engine=result.engine,
        cache_hit=bool(details.get("cache_hit", False)),
    )
    tracer.metrics.inc("fit.count")
    tracer.metrics.inc("fit.nfev", int(details.get("nfev", 0)))
    tracer.metrics.inc("fit.njev", int(details.get("njev", 0)))
    tracer.metrics.observe("fit.seconds", seconds)


class _FitPair(NamedTuple):
    """One ``(family, curve)`` fit of a stacked solve.

    ``starts``, ``extra_starts`` and ``n_random_starts`` mean what the
    :func:`fit_least_squares` keywords do, per pair (a cold and a warm
    refit can share a call); a pair's budget wins over the call's.
    ``use_cache=False`` keeps the pair out of the call's fit cache: no
    lookup and no write.
    """

    family: ResilienceModel
    curve: ResilienceCurve
    starts: Sequence[Sequence[float]] | None = None
    extra_starts: Sequence[Sequence[float]] | None = None
    n_random_starts: int | None = None
    use_cache: bool = True


class _FailedPair(NamedTuple):
    """A pair whose fit raised: the error a lone fit would have raised
    and the number of starts it tried (0 when it failed before
    solving)."""

    error: FitError
    n_starts: int


class _PreparedPair(NamedTuple):
    """A pair that missed the cache, ready to solve."""

    pair: _FitPair
    jac_mode: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    cache_key: str | None
    start_vectors: list[tuple[float, ...]]


def _raise_first_failure(fits: Sequence[FitResult | _FailedPair]) -> list[FitResult]:
    """The fits of a stacked solve, raising the first failure in order —
    the error a loop of lone fits over the same pairs would raise."""
    results: list[FitResult] = []
    for fit in fits:
        if isinstance(fit, _FailedPair):
            raise fit.error
        results.append(fit)
    return results


def _converged(fit: FitResult | _FailedPair) -> FitResult | None:
    """The fit, or ``None`` if it did not converge; raises any other
    :class:`~repro.exceptions.FitError`."""
    if not isinstance(fit, _FailedPair):
        return fit
    if isinstance(fit.error, ConvergenceError):
        return None
    raise fit.error


def _pop_start_settings(kwargs: dict[str, Any]) -> dict[str, Any]:
    """Move ``starts``/``extra_starts`` out of science *kwargs*, for a
    caller that gives them to every pair it builds."""
    return {
        name: kwargs.pop(name) for name in ("starts", "extra_starts") if name in kwargs
    }


def _fit_pairs(
    pairs: Sequence[_FitPair],
    *,
    options: EngineOptions | None = None,
    n_random_starts: int | None = None,
    seed: int | None = None,
    max_nfev: int | None = None,
    engine: str | None = None,
) -> list[FitResult | _FailedPair]:
    """Fit every ``(family, curve)`` pair through one stacked solve.

    The batch callers' way into :func:`_solve_pairs`. Its keywords are
    those of :func:`fit_least_squares` bar the per-pair
    ``starts``/``extra_starts``, and apply to every pair, so a caller
    that forwards its science kwargs here rejects any other name with
    the :class:`TypeError` a lone fit raises.
    """
    opts = (options or DEFAULT_OPTIONS).override(
        n_random_starts=n_random_starts,
        seed=seed,
        max_nfev=max_nfev,
        engine=engine,
    )
    return _solve_pairs(pairs, opts)


def _solve_pairs(
    pairs: Sequence[_FitPair],
    opts: EngineOptions,
    *,
    confirm: bool = True,
    fit_spans: bool = True,
) -> list[FitResult | _FailedPair]:
    """Fit every ``(family, curve)`` pair under *opts* at once.

    The one place a batch of fits is solved (see the module docstring).
    It works in three steps:

    1. *prepare* each pair exactly as a lone fit does: validation,
       cache lookup (a hit is final here) and start generation;
    2. *solve* the starts of every pair that missed the cache at once:
       one :func:`~repro.fitting.batched.solve_batched` call on the
       batched engine, which groups problems by family and length, or
       one executor map of all start units on scipy;
    3. *finish* each pair in order: winner selection, scipy
       confirmation, the cache write and the :class:`FitResult`.

    The kernel freezes each problem on its own, so stacking changes no
    problem's trajectory and every result is bit-identical to a lone
    :func:`fit_least_squares` with the same arguments. Stacking saves
    the kernel's per-iteration overhead: a group iterates until its
    slowest start freezes, so one call pays the longest loop of each
    group instead of the sum of every call's loop.

    ``confirm=False`` reports the batched engine's screened optima
    without the scipy confirmation (the fleet's screen-only mode). With
    *fit_spans* each pair gets a ``"fit"`` span around its finish step;
    its share of the shared solve is on its ``"fit.start"`` children.
    Every lookup happens before any solve, so a cache key repeated
    within one call is solved once per occurrence.

    Returns one entry per pair, in order: its :class:`FitResult`, or a
    :class:`_FailedPair` with the :class:`~repro.exceptions.FitError` a
    lone fit would have raised.
    """
    engine_mode = resolve_engine(opts.engine)
    fit_cache = resolve_cache(opts.cache)
    tracer = resolve_tracer(opts.trace)
    entries: list[FitResult | _FailedPair | _PreparedPair] = []
    for pair in pairs:
        try:
            entries.append(
                _prepare_pair(
                    pair, opts, engine_mode,
                    fit_cache if pair.use_cache else None, tracer,
                )
            )
        except FitError as exc:
            entries.append(_FailedPair(exc, 0))

    prepared = [entry for entry in entries if isinstance(entry, _PreparedPair)]
    outcomes = iter(_solve_starts(prepared, opts, engine_mode, tracer))

    span_tracer = tracer if fit_spans else NULL_TRACER
    fits: list[FitResult | _FailedPair] = []
    for pair, entry in zip(pairs, entries):
        if isinstance(entry, _FailedPair):
            fits.append(entry)
            continue
        start_time = time.perf_counter()
        try:
            with span_tracer.span(
                "fit",
                family=pair.family.name,
                curve=pair.curve.name or "<curve>",
                n_points=len(pair.curve),
            ) as span:
                fit = (
                    entry
                    if isinstance(entry, FitResult)
                    else _finish_pair(
                        entry, next(outcomes), opts, engine_mode,
                        confirm=confirm, fit_cache=fit_cache, tracer=tracer,
                    )
                )
                if span_tracer.enabled:
                    _record_fit(
                        span_tracer, span, fit, time.perf_counter() - start_time
                    )
        except ConvergenceError as exc:
            n_starts = (
                len(entry.start_vectors) if isinstance(entry, _PreparedPair) else 0
            )
            fits.append(_FailedPair(exc, n_starts))
            continue
        fits.append(fit)
    return fits


def _prepare_pair(
    pair: _FitPair,
    opts: EngineOptions,
    engine_mode: str,
    fit_cache: FitCache | None,
    tracer: Any,
) -> FitResult | _PreparedPair:
    """Validate *pair*, look it up in the cache and generate its starts.

    Returns the cached :class:`FitResult` on a hit; raises
    :class:`~repro.exceptions.FitError` on invalid input.
    """
    family, curve = pair.family, pair.curve
    n_random_starts = pair.n_random_starts
    if n_random_starts is None:
        n_random_starts = opts.n_random_starts
    if len(curve) <= family.n_params:
        raise FitError(
            f"cannot fit {family.n_params}-parameter model {family.name!r} "
            f"to {len(curve)} observations"
        )
    if not np.all(np.isfinite(curve.performance)):
        raise FitError("curve contains non-finite performance values")
    starts: list[tuple[float, ...]] | None = None
    if pair.starts is not None:
        starts = _checked_starts(family, pair.starts, "start")
        if not starts:
            raise FitError("explicit starts list is empty")
    extra_starts = _checked_starts(family, pair.extra_starts or (), "extra start")

    jac_mode = "analytic" if family.has_analytic_jacobian else "2-point"
    lower = tuple(float(v) for v in family.lower_bounds)
    upper = tuple(float(v) for v in family.upper_bounds)

    # ------------------------------------------------------------------
    # Cache lookup. The key covers every input that determines the
    # optimum; start generation is deterministic, so keying on its
    # inputs (counts + seed) is equivalent to keying on the vectors.
    # ------------------------------------------------------------------
    seed = opts.seed
    cache_key: str | None = None
    if fit_cache is not None:
        cache_key = fit_cache_key(
            family,
            curve,
            {
                # Engine-versioned so the two solvers never cross-serve
                # cache entries (their per-start diagnostics differ even
                # though the confirmed optimum does not).
                "engine": (
                    "batched_lm.v1" if engine_mode == "batched" else "least_squares.v2"
                ),
                "n_random_starts": int(n_random_starts),
                "seed": None if seed is None else int(seed),
                "max_nfev": int(opts.max_nfev),
                "starts": sequence_of_vectors(pair.starts),
                "extra_starts": sequence_of_vectors(pair.extra_starts),
            },
        )
        record = fit_cache.get(cache_key)
        if tracer.enabled:
            tracer.metrics.inc(
                "cache.hits" if record is not None else "cache.misses"
            )
        if record is not None:
            details = dict(record.get("details", {}))
            details["cache_hit"] = True
            return FitResult(
                model=family.bind(tuple(float(v) for v in record["params"])),
                curve=curve,
                sse=float(record["sse"]),
                converged=bool(record["converged"]),
                n_starts=int(record["n_starts"]),
                n_failures=int(record["n_failures"]),
                message=str(record["message"]),
                details=details,
                engine=str(record.get("engine", engine_mode)),
            )

    if starts is None:
        kwargs = {} if seed is None else {"seed": seed}
        start_vectors: list[tuple[float, ...]] = generate_starts(
            family, curve, n_random=n_random_starts, **kwargs
        )
    else:
        start_vectors = starts

    if extra_starts:
        injected: list[tuple[float, ...]] = []
        for vector in extra_starts:
            clipped = tuple(
                float(np.clip(v, lo, hi)) for v, lo, hi in zip(vector, lower, upper)
            )
            if clipped not in injected:
                injected.append(clipped)
        start_vectors = injected + [
            s for s in start_vectors if s not in injected
        ]
    return _PreparedPair(pair, jac_mode, lower, upper, cache_key, start_vectors)


def _checked_starts(
    family: ResilienceModel, vectors: Sequence[Sequence[float]], label: str
) -> list[tuple[float, ...]]:
    """*vectors* as float tuples, each with one finite entry per
    parameter of *family*.

    Raises
    ------
    FitError
        If a vector has the wrong length or a non-finite entry.
    """
    checked: list[tuple[float, ...]] = []
    for vector in vectors:
        values = tuple(float(v) for v in vector)
        if len(values) != family.n_params:
            raise FitError(
                f"{label} has {len(values)} entries; family "
                f"{family.name!r} expects {family.n_params}"
            )
        if not np.all(np.isfinite(values)):
            raise FitError(f"{label} {values} has a non-finite entry")
        checked.append(values)
    return checked


def _solve_starts(
    prepared: Sequence[_PreparedPair],
    opts: EngineOptions,
    engine_mode: str,
    tracer: Any,
) -> list[Sequence[Any]]:
    """Run every start of every prepared pair at once; the outcomes
    come back split per pair, in start order."""
    if not prepared:
        return []
    flat: Sequence[Any]
    if engine_mode == "batched":
        # Every start of every pair goes into one stacked LM solve;
        # counters stay per-problem (each batched residual evaluation
        # charges one nfev to every start it served), so the reduce and
        # the traces below see the same shape as the scipy path.
        problems: list[BatchedProblem] = []
        for entry in prepared:
            curve = entry.pair.curve
            times = tuple(float(v) for v in curve.times)
            targets = tuple(float(v) for v in curve.performance)
            problems.extend(
                BatchedProblem(
                    entry.pair.family, times, targets, start, entry.lower,
                    entry.upper, opts.max_nfev, entry.jac_mode,
                )
                for start in entry.start_vectors
            )
        flat = solve_batched(problems)
    else:
        work_units = [
            _StartWork(
                entry.pair.family, entry.pair.curve, start, entry.lower,
                entry.upper, opts.max_nfev, entry.jac_mode,
            )
            for entry in prepared
            for start in entry.start_vectors
        ]
        # An explicit trace=False also masks any ambient tracer, so the
        # executor emits no spans for these fits.
        with deactivate() if opts.trace is False else activate(tracer):
            flat = get_executor(opts.executor, max_workers=opts.n_workers).map(
                _solve_start, work_units
            )
    per_pair: list[Sequence[Any]] = []
    cursor = 0
    for entry in prepared:
        per_pair.append(flat[cursor : cursor + len(entry.start_vectors)])
        cursor += len(entry.start_vectors)
    return per_pair


def _finish_pair(
    entry: _PreparedPair,
    outcomes: Sequence[Any],
    opts: EngineOptions,
    engine_mode: str,
    *,
    confirm: bool,
    fit_cache: FitCache | None,
    tracer: Any,
) -> FitResult:
    """Reduce one pair's start *outcomes* to its :class:`FitResult` and
    write it to the cache.

    Raises
    ------
    ConvergenceError
        If every start failed to produce a finite optimum.
    """
    family, curve = entry.pair.family, entry.pair.curve
    if tracer.enabled:
        for index, outcome in enumerate(outcomes):
            tracer.record(
                "fit.start",
                outcome.seconds,
                index=index,
                sse=outcome.sse,
                nfev=outcome.nfev,
                njev=outcome.njev,
                converged=outcome.converged,
                failed=outcome.vector is None,
            )
            tracer.metrics.observe("fit.start_seconds", outcome.seconds)

    selection = _select_and_confirm(
        family, curve, entry.start_vectors, outcomes,
        lower=entry.lower, upper=entry.upper, max_nfev=opts.max_nfev,
        jac_mode=entry.jac_mode, confirm=confirm and engine_mode == "batched",
        tracer=tracer,
    )

    per_start_nfev: list[int] = [outcome.nfev for outcome in outcomes]
    per_start_njev: list[int] = [outcome.njev for outcome in outcomes]
    details: dict[str, Any] = {
        "per_start_sse": [outcome.sse for outcome in outcomes],
        "per_start_nfev": per_start_nfev,
        "per_start_njev": per_start_njev,
        "per_start_seconds": [outcome.seconds for outcome in outcomes],
        "nfev": int(sum(per_start_nfev)) + selection.confirm_nfev,
        "njev": int(sum(per_start_njev)) + selection.confirm_njev,
        "confirm_nfev": selection.confirm_nfev,
        "confirm_njev": selection.confirm_njev,
        "winner_start": selection.winner_index,
        "jac_mode": entry.jac_mode,
    }
    if engine_mode == "batched":
        details["per_start_iterations"] = [
            int(outcome.n_iterations) for outcome in outcomes
        ]

    n_starts = len(entry.start_vectors)
    if fit_cache is not None and entry.cache_key is not None:
        fit_cache.put(
            entry.cache_key,
            {
                "params": [float(v) for v in selection.vector],
                "sse": float(selection.sse),
                "converged": bool(selection.converged),
                "n_starts": n_starts,
                "n_failures": selection.failures,
                "message": selection.message,
                "details": dict(details),
                "engine": engine_mode,
            },
        )

    details["cache_hit"] = False
    return FitResult(
        model=family.bind(selection.vector),
        curve=curve,
        sse=selection.sse,
        converged=selection.converged,
        n_starts=n_starts,
        n_failures=selection.failures,
        message=selection.message,
        details=details,
        engine=engine_mode,
    )


class FitManyResult(dict):
    """Mapping of family name → :class:`FitResult`, plus failure records.

    Behaves exactly like the plain dict :func:`fit_many` historically
    returned, with a :attr:`failures` mapping of family name → error
    message for families whose fit raised
    :class:`~repro.exceptions.ConvergenceError` — so callers can
    distinguish "not requested" from "failed to converge".
    """

    def __init__(
        self,
        results: Mapping[str, FitResult] | None = None,
        failures: Mapping[str, str] | None = None,
    ) -> None:
        super().__init__(results or {})
        #: Family name → stringified ConvergenceError for failed fits.
        self.failures: dict[str, str] = dict(failures or {})

    @property
    def converged_names(self) -> tuple[str, ...]:
        """Names that produced a fit, in request order."""
        return tuple(self)

    @property
    def failed_names(self) -> tuple[str, ...]:
        """Names whose fit failed to converge, in request order."""
        return tuple(self.failures)

    def best(self) -> FitResult:
        """The lowest-SSE successful fit across all families.

        Ties break toward the earlier family in request order (``min``
        is stable). Raises :class:`~repro.exceptions.ConvergenceError`
        when no family converged, listing the per-family errors.
        """
        if not self:
            raise ConvergenceError(
                "no family converged"
                + (
                    f" (failures: {dict(self.failures)!r})"
                    if self.failures
                    else ""
                )
            )
        return min(self.values(), key=lambda fit: fit.sse)

    def copy(self) -> "FitManyResult":
        """A shallow copy that keeps :attr:`failures` (``dict.copy``
        would silently drop it and downgrade to a plain dict)."""
        return FitManyResult(self, self.failures)

    def __reduce__(
        self,
    ) -> "tuple[type[FitManyResult], tuple[dict[str, FitResult], dict[str, str]]]":
        # dict subclass pickling reconstructs through the class with no
        # args, losing instance state on some protocols; rebuild through
        # __init__ so .failures round-trips everywhere.
        return (FitManyResult, (dict(self), self.failures))


def fit_many(
    families: Iterable[ResilienceModel],
    curve: ResilienceCurve,
    *,
    options: EngineOptions | None = None,
    **kwargs: Any,
) -> FitManyResult:
    """Fit several families to the same curve.

    Returns a :class:`FitManyResult` mapping family name to its
    :class:`FitResult`; families that fail to converge are recorded in
    :attr:`FitManyResult.failures` (and logged) instead of being
    silently dropped.

    Parameters
    ----------
    options:
        :class:`~repro.fitting.options.EngineOptions` bundle for the
        one stacked solve of all families (``options.executor`` maps
        their starts). Enabling ``options.trace`` traces each
        per-family fit and wraps the call in one ``"fit.many"`` span.
    kwargs:
        Science kwargs passed through to :func:`fit_least_squares`;
        any fit error other than non-convergence is raised.
    """
    opts = options or DEFAULT_OPTIONS
    tracer = resolve_tracer(opts.trace)
    start_settings = _pop_start_settings(kwargs)
    pairs = [_FitPair(family, curve, **start_settings) for family in families]
    with tracer.span(
        "fit.many", n_families=len(pairs), curve=curve.name or "<curve>"
    ):
        fits = _fit_pairs(pairs, options=opts, **kwargs)
    result = FitManyResult()
    for pair, fit in zip(pairs, fits):
        name = pair.family.name
        converged = _converged(fit)
        if converged is None:
            error = cast(_FailedPair, fit).error
            logger.warning("fit_many: %r failed to converge: %s", name, error)
            result.failures[name] = str(error)
        else:
            result[name] = converged
    return result
