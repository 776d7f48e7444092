"""The least-squares fitting engine (Eq. 8).

``fit_least_squares`` minimizes ``Σᵢ (R(tᵢ) − P(tᵢ))²`` over the
model's bounded parameter space with scipy's trust-region-reflective
least squares, trying every multi-start point and keeping the best
optimum. The starts are independent problems, solved exactly as one
scipy call each would solve them by :mod:`repro.fitting.trf`: together
in a bit-exact stacked port of scipy's trf wherever a run-time guard
finds that port verified, and the rest — ``segmented``'s
finite-difference starts, the kernel's fallbacks — one scipy call each
on the options' :class:`~repro.parallel.FitExecutor` backend. This
module orchestrates the pairs around that step. Results are reduced in
start order, so the outcome is identical on every backend and with or
without the kernel.

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
exploration of every family with a closed-form Jacobian through
:mod:`repro.fitting.batched`, a pure-numpy batched Levenberg–Marquardt
kernel that advances every start in lockstep and amortizes the per-call
dispatch overhead across the whole batch. The LM kernel *screens* the
starts; the winning start is then *confirmed*: re-solved from its
original x0 along the exact trajectory scipy's trust-region-reflective
solver takes (one solve instead of one per start), so the final optimum
is scipy's and the rendered tables are byte-identical under both
engines (the scipy path stays the oracle). The confirms of every pair
of a call run together, in stacked rounds, through the same exact
solve as the scipy engine's starts. A family without a closed-form
Jacobian (``segmented``) is solved by scipy start by start on either
engine.

Every fit runs through :func:`_solve_pairs`, which takes many
``(family, curve)`` pairs and solves the starts of all of them at once:
:func:`fit_least_squares` is its one-pair call, and every batch —
:func:`fit_many`, the table grids and truncation sweep,
:func:`~repro.fitting.fleet.fit_fleet`, the bootstrap, the episode
scorecard, serving refits and remediation — is one call, whose starts
are solved together. Batch callers other than the fleet enter through
:func:`_fit_pairs`, which takes :func:`fit_least_squares`'s science
keywords.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Iterable, Mapping, NamedTuple, Sequence, cast

import numpy as np

from repro.core.curve import ResilienceCurve
from repro.exceptions import ConvergenceError, FitError
from repro.fitting.batched import (
    BatchedOutcome,
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
from repro.fitting.trf import _solve_exactly
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


class _Reduced(NamedTuple):
    """A pair's start outcomes reduced to the screened winner."""

    winner: BatchedOutcome
    winner_index: int
    failures: int
    threshold: float
    candidates: tuple[int, ...]


def _reduce(
    family: ResilienceModel,
    curve: ResilienceCurve,
    n_starts: int,
    outcomes: Sequence[BatchedOutcome],
) -> _Reduced:
    """Reduce multi-start *outcomes* to the screened winner.

    Reduction happens in start order — identical on every backend
    regardless of which produced the outcomes. The winner is the
    earliest start whose SSE lies within the ``_REDUCE_RTOL`` band of
    the best (see the constant's rationale), not the strict argmin;
    ``candidates`` are every start inside the band, in order.

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
            f"all {n_starts} starts failed fitting "
            f"{family.name!r} to {curve.name or '<curve>'}"
        )
    threshold = min_sse + _REDUCE_RTOL * abs(min_sse)
    candidates = tuple(
        index
        for index, outcome in enumerate(outcomes)
        if outcome.vector is not None and outcome.sse <= threshold
    )
    return _Reduced(
        outcomes[candidates[0]], candidates[0], failures, threshold, candidates
    )


class _Walk:
    """One pair's selection: its screened winner and, on a confirmed
    pair, the confirm walk — its in-band candidates re-solved in start
    order until one lands back inside the band. ``confirms`` keeps each
    solve of the walk, as ``(start index, outcome)``, for the pair's
    trace; ``nfev``/``njev`` are their totals."""

    def __init__(self, entry: _PreparedPair, reduced: _Reduced) -> None:
        self.entry = entry
        self.reduced = reduced
        self.chosen: BatchedOutcome | None = None
        self.fallback: BatchedOutcome | None = None
        self.winner_index = reduced.winner_index
        self.nfev = 0
        self.njev = 0
        self.confirms: list[tuple[int, BatchedOutcome]] = []

    @property
    def best(self) -> BatchedOutcome:
        """The final optimum: the confirmed one, else the screened winner."""
        return self.chosen if self.chosen is not None else self.reduced.winner

    def take(self, index: int, outcome: BatchedOutcome) -> None:
        """Account for the solve of candidate *index*."""
        self.nfev += outcome.nfev
        self.njev += outcome.njev
        self.confirms.append((index, outcome))
        if outcome.vector is None:
            return
        if self.fallback is None or outcome.sse < self.fallback.sse:
            self.fallback = outcome
        if outcome.sse <= self.reduced.threshold:
            self.chosen = outcome
            self.winner_index = index

    def rescue(self, outcome: BatchedOutcome) -> None:
        """Account for the solve from the screened optimum and keep the
        best of it and the best confirmation."""
        self.nfev += outcome.nfev
        self.njev += outcome.njev
        contenders = [
            o
            for o in (self.fallback, outcome)
            if o is not None and o.vector is not None
        ]
        if contenders:
            self.chosen = min(contenders, key=lambda o: o.sse)


def _vector(outcome: BatchedOutcome) -> tuple[float, ...]:
    """The optimum of a selected outcome, which always has one (the
    reduce and the walk select only outcomes with a vector)."""
    return cast(tuple[float, ...], outcome.vector)


def _confirm_winners(
    walks: Sequence[_Walk], opts: EngineOptions, tracer: Any
) -> None:
    """Run the confirm walks of many pairs in stacked rounds.

    The batched kernel only *screens* the starts: it finds the basin and
    ranks the candidates, but its iterates are not scipy's. Each pair's
    in-band candidates are re-solved from their original x0, in start
    order, until one lands back inside the band; that solve is the exact
    trajectory the scipy engine takes from the same start, so rendered
    artifacts are byte-identical. (The walk, rather than one solve,
    covers the rare start whose batched and scipy iterates descend into
    different basins; usually the first candidate confirms.) A pair
    whose candidates all miss restarts from the screened optimum itself
    and keeps the better of that rescue and its best confirmation.

    Pairs are independent, so round *r* solves the *r*-th candidate of
    every pair still unconfirmed in one exact solve (:func:`_exact`), and
    one last call rescues the rest — the serial walk's solves, outcomes
    and counts, grouped.
    """
    max_nfev = opts.max_nfev
    rank = 0
    while True:
        walking = [
            walk
            for walk in walks
            if walk.chosen is None and rank < len(walk.reduced.candidates)
        ]
        if not walking:
            break
        indices = [walk.reduced.candidates[rank] for walk in walking]
        outcomes = _exact(
            [
                walk.entry.problem(walk.entry.start_vectors[index], max_nfev)
                for walk, index in zip(walking, indices)
            ],
            opts, tracer,
        )
        for walk, index, outcome in zip(walking, indices, outcomes):
            walk.take(index, outcome)
        rank += 1
    stranded = [walk for walk in walks if walk.chosen is None]
    if stranded:
        outcomes = _exact(
            [
                walk.entry.problem(_vector(walk.reduced.winner), max_nfev)
                for walk in stranded
            ],
            opts, tracer,
        )
        for walk, outcome in zip(stranded, outcomes):
            walk.rescue(outcome)


def _exact(
    problems: Sequence[BatchedProblem], opts: EngineOptions, tracer: Any
) -> list[BatchedOutcome]:
    """Solve *problems* exactly as scipy would
    (:func:`~repro.fitting.trf._solve_exactly`), mapping the starts the
    stacked kernel does not take on *opts*' executor. An explicit
    ``trace=False`` also masks any ambient tracer, so the executor emits
    no spans for these fits."""
    return _solve_exactly(
        problems,
        get_executor(opts.executor, max_workers=opts.n_workers),
        deactivate() if opts.trace is False else activate(tracer),
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
        * ``executor``/``n_workers`` — the backend that maps the
          starts the stacked trf kernel does not solve (see
          :func:`~repro.fitting.trf._solve_exactly`): ``"serial"``, ``"thread"``,
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
        Solver engine: ``"scipy"`` (every start solved as one
        ``optimize.least_squares`` call would — the golden-table
        oracle) or ``"batched"`` (the
        :mod:`repro.fitting.batched` vectorized Levenberg–Marquardt
        kernel, which screens all starts in one stacked solve and then
        confirms the winning start along scipy's own trajectory from
        its original x0, so rendered artifacts are byte-identical under
        both engines).
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
    """A pair that missed the cache, ready to solve: its box, its curve
    as the float tuples every start's problem shares, and its starts."""

    pair: _FitPair
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    times: tuple[float, ...]
    targets: tuple[float, ...]
    cache_key: str | None
    start_vectors: list[tuple[float, ...]]

    def problem(self, x0: tuple[float, ...], max_nfev: int) -> BatchedProblem:
        """The problem of one solve of this pair from *x0*."""
        return BatchedProblem(
            self.pair.family, self.times, self.targets, x0, self.lower,
            self.upper, max_nfev,
        )


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
    It works in four steps:

    1. *prepare* each pair exactly as a lone fit does: validation,
       cache lookup (a hit is final here) and start generation;
    2. *solve* the starts of every pair that missed the cache at once:
       one :func:`~repro.fitting.batched.solve_batched` call on the
       batched engine, which groups problems by family and length, or
       one exact solve (:func:`_exact`) on scipy (and, on the batched
       engine, for families without a closed-form Jacobian);
    3. *select* each pair's winner and, for pairs the batched kernel
       screened, *confirm* it: the confirm walks of all pairs run in
       stacked rounds (:func:`_confirm_winners`);
    4. *finish* each pair in order: the cache write and the
       :class:`FitResult`.

    The kernels freeze each problem on its own, so stacking changes no
    problem's trajectory and every result is bit-identical to a lone
    :func:`fit_least_squares` with the same arguments. Stacking saves
    the kernels' per-iteration overhead: a group iterates until its
    slowest problem stops, so one call pays the longest loop of each
    group instead of the sum of every call's loop.

    ``confirm=False`` reports the batched engine's screened optima
    without the confirmation (the fleet's screen-only mode). With
    *fit_spans* each pair gets a ``"fit"`` span around its finish step;
    its share of the shared solves is on its ``"fit.start"`` and
    ``"fit.confirm"`` children.
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
    per_pair = _solve_starts(prepared, opts, engine_mode, tracer)
    walks = iter(
        _select_winners(prepared, per_pair, opts, tracer, confirm, engine_mode)
    )
    outcomes = iter(per_pair)

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
                        entry, next(outcomes), next(walks), engine_mode,
                        fit_cache=fit_cache, tracer=tracer,
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


def _select_winners(
    prepared: Sequence[_PreparedPair],
    per_pair: Sequence[Sequence[BatchedOutcome]],
    opts: EngineOptions,
    tracer: Any,
    confirm: bool,
    engine_mode: str,
) -> list[_Walk | ConvergenceError]:
    """Each prepared pair's selection (its :class:`_Walk`), or the
    :class:`~repro.exceptions.ConvergenceError` its fit raises; pairs the
    batched kernel screened are confirmed together (with *confirm*)."""
    walks: list[_Walk | ConvergenceError] = []
    for entry, outcomes in zip(prepared, per_pair):
        try:
            reduced = _reduce(
                entry.pair.family, entry.pair.curve, len(entry.start_vectors), outcomes
            )
        except ConvergenceError as exc:
            walks.append(exc)
            continue
        walks.append(_Walk(entry, reduced))
    if confirm:
        _confirm_winners(
            [
                walk
                for walk in walks
                if isinstance(walk, _Walk) and _screened(walk.entry, engine_mode)
            ],
            opts, tracer,
        )
    return walks


def _screened(entry: _PreparedPair, engine_mode: str) -> bool:
    """Whether the batched LM kernel screens *entry*'s starts: on the
    batched engine, for families with a closed-form Jacobian. Another
    family's starts are solved by scipy on either engine, so its result
    needs no confirmation."""
    return engine_mode == "batched" and entry.pair.family.has_analytic_jacobian


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
            details = _copied_details(record.get("details", {}))
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
    return _PreparedPair(
        pair,
        lower,
        upper,
        tuple(float(v) for v in curve.times),
        tuple(float(v) for v in curve.performance),
        cache_key,
        start_vectors,
    )


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
) -> list[Sequence[BatchedOutcome]]:
    """Run every start of every prepared pair at once; the outcomes
    come back split per pair, in start order."""
    per_pair: list[Sequence[BatchedOutcome]] = [()] * len(prepared)
    screened = [i for i, entry in enumerate(prepared) if _screened(entry, engine_mode)]
    exact = [
        i for i, entry in enumerate(prepared) if not _screened(entry, engine_mode)
    ]
    if screened:
        # Every screened start goes into one stacked LM solve; counters
        # stay per-problem (each batched residual evaluation charges one
        # nfev to every start it served), so the reduce and the traces
        # see the same shape as the scipy path.
        problems = _start_problems(prepared, screened, opts.max_nfev)
        _split(per_pair, screened, prepared, solve_batched(problems))
    if exact:
        problems = _start_problems(prepared, exact, opts.max_nfev)
        _split(per_pair, exact, prepared, _exact(problems, opts, tracer))
    return per_pair


def _start_problems(
    prepared: Sequence[_PreparedPair], positions: Sequence[int], max_nfev: int
) -> list[BatchedProblem]:
    """One problem per start of the pairs at *positions*, in order."""
    return [
        entry.problem(start, max_nfev)
        for entry in (prepared[i] for i in positions)
        for start in entry.start_vectors
    ]


def _split(
    per_pair: list[Sequence[BatchedOutcome]],
    positions: Sequence[int],
    prepared: Sequence[_PreparedPair],
    flat: Sequence[BatchedOutcome],
) -> None:
    """Hand the flat outcomes of the pairs at *positions* back per pair."""
    cursor = 0
    for i in positions:
        n_starts = len(prepared[i].start_vectors)
        per_pair[i] = flat[cursor : cursor + n_starts]
        cursor += n_starts


def _finish_pair(
    entry: _PreparedPair,
    outcomes: Sequence[BatchedOutcome],
    walk: _Walk | ConvergenceError,
    engine_mode: str,
    *,
    fit_cache: FitCache | None,
    tracer: Any,
) -> FitResult:
    """Turn one pair's start *outcomes* and its *walk*'s final optimum
    into its :class:`FitResult`, trace them and write the result to the
    cache.

    Raises
    ------
    ConvergenceError
        If every start failed to produce a finite optimum.
    """
    if isinstance(walk, ConvergenceError):
        raise walk
    family, curve = entry.pair.family, entry.pair.curve
    best = walk.best
    vector = _vector(best)
    sse = float(best.sse)
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
        for index, confirmed in walk.confirms:
            tracer.record(
                "fit.confirm",
                confirmed.seconds,
                index=index,
                nfev=confirmed.nfev,
                njev=confirmed.njev,
                converged=confirmed.converged,
            )

    per_start_nfev: list[int] = [outcome.nfev for outcome in outcomes]
    per_start_njev: list[int] = [outcome.njev for outcome in outcomes]
    details: dict[str, Any] = {
        "per_start_sse": [outcome.sse for outcome in outcomes],
        "per_start_nfev": per_start_nfev,
        "per_start_njev": per_start_njev,
        "per_start_seconds": [outcome.seconds for outcome in outcomes],
        "nfev": int(sum(per_start_nfev)) + walk.nfev,
        "njev": int(sum(per_start_njev)) + walk.njev,
        "confirm_nfev": walk.nfev,
        "confirm_njev": walk.njev,
        "winner_start": int(walk.winner_index),
        "jac_mode": "analytic" if family.has_analytic_jacobian else "2-point",
    }
    if _screened(entry, engine_mode):
        details["per_start_iterations"] = [
            int(outcome.n_iterations) for outcome in outcomes
        ]

    n_starts = len(entry.start_vectors)
    if fit_cache is not None and entry.cache_key is not None:
        fit_cache.put(
            entry.cache_key,
            {
                "params": [float(v) for v in vector],
                "sse": sse,
                "converged": bool(best.converged),
                "n_starts": n_starts,
                "n_failures": walk.reduced.failures,
                "message": best.message,
                "details": _copied_details(details),
                "engine": engine_mode,
            },
        )

    details["cache_hit"] = False
    return FitResult(
        model=family.bind(vector),
        curve=curve,
        sse=sse,
        converged=best.converged,
        n_starts=n_starts,
        n_failures=walk.reduced.failures,
        message=best.message,
        details=details,
        engine=engine_mode,
    )


def _copied_details(details: Mapping[str, Any]) -> dict[str, Any]:
    """A copy of a fit's *details* that shares none of its lists, so a
    cache record and the fits it serves never see each other's edits."""
    return {
        key: list(value) if isinstance(value, list) else value
        for key, value in details.items()
    }


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
        the starts the trf kernel does not solve). Enabling
        ``options.trace`` traces each per-family fit and wraps the call
        in one ``"fit.many"`` span.
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
