"""Fleet-scale fitting: one batched LM solve across episodes.

:func:`fit_fleet` hands every ``(episode, family)`` cell of a chunk to
the stacked solve in :mod:`repro.fitting.least_squares` — the one a
lone :func:`~repro.fitting.fit_least_squares` and the table grids use —
so **episodes × families × starts** advance through a single batched
kernel call:

* The kernel groups problems by ``(family fingerprint, length)``, so
  every episode of a given length advances through the damped-LM
  iteration in lockstep with every other. Each pair is
  solved on its own episode: a ragged chunk makes one group per
  distinct length.
* Each cell is finished like a lone fit: its winning start is
  confirmed along scipy's trajectory from its original x0 (the
  confirms of a whole chunk run in one stacked
  :mod:`~repro.fitting.trf` call), so fleet winners are
  **bit-identical** (params and SSE) to looping
  :func:`~repro.fitting.fit_least_squares` over the episodes.

Episodes stream in fixed-size chunks — from an
:class:`~repro.datasets.store.EpisodeStore` (memory-mapped columns) or
any curve iterable — so peak memory is set by ``chunk_size``, not the
fleet size. Results accumulate columnar (a few dozen bytes per
episode), keeping million-episode fleets in reach.

The scipy engine makes the same chunk call: it runs one scipy solve per
start, with ``options.executor`` mapping every start of the chunk.

Fleet fits default to **cache-off**: synthetic fleets never repeat a
``(family, curve, config)`` key, so the LRU would only churn. On the
scipy engine, pass ``options=EngineOptions(cache=True)`` (or an
explicit cache) to opt back in.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.curve import ResilienceCurve
from repro.datasets.store import EpisodeStore
from repro.exceptions import FitError
from repro.fitting.batched import resolve_engine
from repro.fitting.cache import FitCache
from repro.fitting.least_squares import _FailedPair, _FitPair, _solve_pairs
from repro.fitting.options import (
    DEFAULT_ENGINE_OPTIONS as DEFAULT_OPTIONS,
    EngineOptions,
)
from repro.fitting.result import FitResult
from repro.models.base import ResilienceModel
from repro.models.registry import make_model
from repro.observability.tracer import resolve_tracer

__all__ = ["EpisodeFamilyFit", "FleetFitResult", "fit_fleet"]

logger = logging.getLogger("repro.fitting")

#: Default model grid fitted to every episode.
DEFAULT_FLEET_FAMILIES = ("quadratic", "competing_risks")


class EpisodeFamilyFit(NamedTuple):
    """One ``(episode, family)`` cell of a fleet fit.

    ``failed`` marks episodes whose fit could not run or converge at
    all (too few observations, every start failed); their ``params``
    are NaN and ``sse`` is NaN.
    """

    episode: int
    family: str
    params: tuple[float, ...]
    sse: float
    converged: bool
    failed: bool
    n_starts: int
    n_failures: int
    winner_start: int
    nfev: int
    njev: int


@dataclass(frozen=True)
class FleetFitResult:
    """Columnar results of a fleet fit.

    Per-family arrays are indexed by episode: ``params[family]`` has
    shape ``(n_episodes, n_params)``, everything else ``(n_episodes,)``.
    Failed cells hold NaN params/SSE and ``failed=True``.
    """

    families: tuple[str, ...]
    n_episodes: int
    engine: str
    params: dict[str, np.ndarray]
    sse: dict[str, np.ndarray]
    converged: dict[str, np.ndarray]
    failed: dict[str, np.ndarray]
    n_starts: dict[str, np.ndarray]
    n_failures: dict[str, np.ndarray]
    winner_start: dict[str, np.ndarray]
    nfev: dict[str, np.ndarray]
    njev: dict[str, np.ndarray]
    seconds: float

    @property
    def episodes_per_sec(self) -> float:
        """Fitting throughput over the whole fleet."""
        return self.n_episodes / self.seconds if self.seconds > 0 else 0.0

    def fit(self, episode: int, family: str) -> EpisodeFamilyFit:
        """The ``(episode, family)`` cell as a record."""
        if family not in self.params:
            raise FitError(
                f"family {family!r} was not fitted; have {self.families}"
            )
        if not -self.n_episodes <= int(episode) < self.n_episodes:
            raise FitError(
                f"episode {episode} out of range for {self.n_episodes} episodes"
            )
        return EpisodeFamilyFit(
            episode=int(episode),
            family=family,
            params=tuple(float(v) for v in self.params[family][episode]),
            sse=float(self.sse[family][episode]),
            converged=bool(self.converged[family][episode]),
            failed=bool(self.failed[family][episode]),
            n_starts=int(self.n_starts[family][episode]),
            n_failures=int(self.n_failures[family][episode]),
            winner_start=int(self.winner_start[family][episode]),
            nfev=int(self.nfev[family][episode]),
            njev=int(self.njev[family][episode]),
        )

    def best_family(self, episode: int) -> str | None:
        """Lowest-SSE family for *episode*; None if every family failed.

        Ties break toward the earlier family in request order, matching
        :meth:`repro.fitting.FitManyResult.best`.
        """
        best: str | None = None
        best_sse = np.inf
        for family in self.families:
            value = float(self.sse[family][episode])
            if np.isfinite(value) and value < best_sse:
                best, best_sse = family, value
        return best

    def summary(self) -> dict[str, Any]:
        """Aggregate fleet statistics (JSON-serializable)."""
        wins = {family: 0 for family in self.families}
        for episode in range(self.n_episodes):
            winner = self.best_family(episode)
            if winner is not None:
                wins[winner] += 1
        per_family: dict[str, Any] = {}
        for family in self.families:
            sse = self.sse[family]
            finite = sse[np.isfinite(sse)]
            per_family[family] = {
                "mean_sse": float(finite.mean()) if finite.size else None,
                "median_sse": float(np.median(finite)) if finite.size else None,
                "converged": int(np.count_nonzero(self.converged[family])),
                "failed": int(np.count_nonzero(self.failed[family])),
                "wins": int(wins[family]),
                "nfev": int(self.nfev[family].sum()),
                "njev": int(self.njev[family].sum()),
            }
        return {
            "n_episodes": self.n_episodes,
            "families": list(self.families),
            "engine": self.engine,
            "seconds": self.seconds,
            "episodes_per_sec": self.episodes_per_sec,
            "per_family": per_family,
        }


class _FamilyAccumulator:
    """Columnar per-family result accumulator, appended chunk-wise."""

    def __init__(self, family: ResilienceModel) -> None:
        self.family = family
        self.params: list[np.ndarray] = []
        self.sse: list[np.ndarray] = []
        self.converged: list[np.ndarray] = []
        self.failed: list[np.ndarray] = []
        self.n_starts: list[np.ndarray] = []
        self.n_failures: list[np.ndarray] = []
        self.winner_start: list[np.ndarray] = []
        self.nfev: list[np.ndarray] = []
        self.njev: list[np.ndarray] = []

    def new_chunk(self, size: int) -> dict[str, np.ndarray]:
        """Fresh per-chunk arrays, pre-marked as failed."""
        chunk = {
            "params": np.full((size, self.family.n_params), np.nan),
            "sse": np.full(size, np.nan),
            "converged": np.zeros(size, dtype=bool),
            "failed": np.ones(size, dtype=bool),
            "n_starts": np.zeros(size, dtype=np.int64),
            "n_failures": np.zeros(size, dtype=np.int64),
            "winner_start": np.full(size, -1, dtype=np.int64),
            "nfev": np.zeros(size, dtype=np.int64),
            "njev": np.zeros(size, dtype=np.int64),
        }
        self.params.append(chunk["params"])
        self.sse.append(chunk["sse"])
        self.converged.append(chunk["converged"])
        self.failed.append(chunk["failed"])
        self.n_starts.append(chunk["n_starts"])
        self.n_failures.append(chunk["n_failures"])
        self.winner_start.append(chunk["winner_start"])
        self.nfev.append(chunk["nfev"])
        self.njev.append(chunk["njev"])
        return chunk

    def column(self, name: str) -> np.ndarray:
        """Concatenate one accumulated column."""
        parts: list[np.ndarray] = getattr(self, name)
        if not parts:
            width = self.family.n_params if name == "params" else None
            if width is not None:
                return np.empty((0, width))
            return np.empty(0)
        return np.concatenate(parts)


def _iter_episode_chunks(
    episodes: EpisodeStore | Iterable[ResilienceCurve], chunk_size: int
) -> Iterator[list[ResilienceCurve]]:
    """Fixed-size blocks of curves from a store or any iterable."""
    if isinstance(episodes, EpisodeStore):
        for chunk in episodes.iter_chunks(chunk_size):
            yield list(chunk.curves())
        return
    block: list[ResilienceCurve] = []
    for curve in episodes:
        block.append(curve)
        if len(block) >= chunk_size:
            yield block
            block = []
    if block:
        yield block


def _store_fit(
    columns: dict[str, np.ndarray], slot: int, fit: FitResult | _FailedPair
) -> None:
    """Write one ``(episode, family)`` cell into its chunk columns."""
    if isinstance(fit, _FailedPair):
        # Failed cells keep the NaN params/SSE they were created with.
        columns["n_starts"][slot] = fit.n_starts
        columns["n_failures"][slot] = fit.n_starts
        return
    columns["params"][slot] = fit.model.params
    columns["sse"][slot] = fit.sse
    columns["converged"][slot] = fit.converged
    columns["failed"][slot] = False
    columns["n_starts"][slot] = fit.n_starts
    columns["n_failures"][slot] = fit.n_failures
    columns["winner_start"][slot] = fit.details.get("winner_start", -1)
    columns["nfev"][slot] = fit.details.get("nfev", 0)
    columns["njev"][slot] = fit.details.get("njev", 0)


def fit_fleet(
    episodes: EpisodeStore | Iterable[ResilienceCurve],
    families: Sequence[ResilienceModel | str] = DEFAULT_FLEET_FAMILIES,
    *,
    options: EngineOptions | None = None,
    chunk_size: int = 1024,
    confirm: bool = True,
    n_random_starts: int | None = None,
    seed: int | None = None,
    max_nfev: int | None = None,
    engine: str | None = None,
) -> FleetFitResult:
    """Fit every *family* to every episode of a fleet.

    Parameters
    ----------
    episodes:
        An :class:`~repro.datasets.store.EpisodeStore` (streamed
        chunk-by-chunk off its memory-mapped columns) or any iterable
        of curves.
    families:
        Model grid: family instances or registry names.
    options:
        :class:`~repro.fitting.options.EngineOptions` bundle; explicit
        kwargs below override its fields, exactly as in
        :func:`~repro.fitting.fit_least_squares`. Its ``cache``
        defaults to **off** for fleet fits (synthetic episodes never
        repeat a cache key); set it to ``True`` or a
        :class:`~repro.fitting.cache.FitCache` to opt in (scipy engine
        only: the batched engine never uses the cache).
        Its ``executor``/``n_workers`` map every start of a chunk on the
        scipy engine.
    chunk_size:
        Episodes fitted per batched solve. Peak memory scales with
        ``chunk_size × families × starts × grid length`` and is
        independent of the fleet size.
    confirm:
        Keep the screen-then-confirm contract (default): each cell's
        winning start is confirmed along scipy's trajectory from its
        original x0, making fleet results bit-identical to looping
        :func:`~repro.fitting.fit_least_squares`. ``False`` skips the
        confirmation and reports the screened optima — faster, with
        SSE agreement to ~1e-8 instead of bit-identity.
    engine:
        ``"batched"`` (cross-episode stacking, the point of this
        function) or ``"scipy"`` (the reference engine: the same
        chunk call with one scipy solve per start). ``None`` defers to
        ``options.engine`` then ``REPRO_FIT_ENGINE``.
    n_random_starts, seed, max_nfev:
        As in :func:`~repro.fitting.fit_least_squares`.

    Returns
    -------
    FleetFitResult
        Columnar per-(episode, family) parameters, SSE, convergence
        flags, and evaluation counts.
    """
    opts = (options or DEFAULT_OPTIONS).override(
        n_random_starts=n_random_starts,
        seed=seed,
        max_nfev=max_nfev,
        engine=engine,
    )
    if chunk_size < 1:
        raise FitError(f"chunk_size must be >= 1, got {chunk_size}")
    resolved_families: list[ResilienceModel] = [
        make_model(family) if isinstance(family, str) else family
        for family in families
    ]
    if not resolved_families:
        raise FitError("fit_fleet needs at least one model family")
    names = [family.name for family in resolved_families]
    if len(set(names)) != len(names):
        raise FitError(f"duplicate family names in fleet grid: {names}")
    engine_mode = resolve_engine(opts.engine)
    tracer = resolve_tracer(opts.trace)
    # The fleet-specific cache default: off unless the options bundle
    # chooses it (None normally means "defer to the environment default
    # cache"). The batched engine never caches: with confirm=False its
    # records would not match a lone fit's.
    fleet_cache: bool | FitCache = False if opts.cache is None else opts.cache
    chunk_options = opts.replace(
        engine=engine_mode, cache=fleet_cache if engine_mode == "scipy" else False
    )
    accumulators = [_FamilyAccumulator(family) for family in resolved_families]
    t0 = time.perf_counter()
    n_episodes = 0
    with tracer.span(
        "fit.fleet",
        n_families=len(resolved_families),
        engine=engine_mode,
        chunk_size=chunk_size,
    ):
        for chunk in _iter_episode_chunks(episodes, chunk_size):
            chunk_t0 = time.perf_counter()
            size = len(chunk)
            n_episodes += size
            chunk_columns = [acc.new_chunk(size) for acc in accumulators]
            _fit_chunk(
                chunk,
                resolved_families,
                chunk_columns,
                opts=chunk_options,
                confirm=confirm,
            )
            if tracer.enabled:
                tracer.record(
                    "fleet.chunk",
                    time.perf_counter() - chunk_t0,
                    episodes=size,
                    engine=engine_mode,
                )
    seconds = time.perf_counter() - t0
    return FleetFitResult(
        families=tuple(names),
        n_episodes=n_episodes,
        engine=engine_mode,
        params={
            name: acc.column("params")
            for name, acc in zip(names, accumulators)
        },
        sse={
            name: acc.column("sse") for name, acc in zip(names, accumulators)
        },
        converged={
            name: acc.column("converged")
            for name, acc in zip(names, accumulators)
        },
        failed={
            name: acc.column("failed")
            for name, acc in zip(names, accumulators)
        },
        n_starts={
            name: acc.column("n_starts")
            for name, acc in zip(names, accumulators)
        },
        n_failures={
            name: acc.column("n_failures")
            for name, acc in zip(names, accumulators)
        },
        winner_start={
            name: acc.column("winner_start")
            for name, acc in zip(names, accumulators)
        },
        nfev={
            name: acc.column("nfev") for name, acc in zip(names, accumulators)
        },
        njev={
            name: acc.column("njev") for name, acc in zip(names, accumulators)
        },
        seconds=seconds,
    )


def _fit_chunk(
    chunk: list[ResilienceCurve],
    families: list[ResilienceModel],
    chunk_columns: list[dict[str, np.ndarray]],
    *,
    opts: EngineOptions,
    confirm: bool,
) -> None:
    """Fit one chunk in one stacked solve.

    Every ``(episode, family)`` cell becomes one pair of the shared
    stacked solve (:func:`~repro.fitting.least_squares._solve_pairs`).
    A cell the solve rejects (an episode too short for the
    family) or cannot fit becomes a failed row with the starts it tried.
    """
    pairs = [_FitPair(family, curve) for curve in chunk for family in families]
    fits = iter(_solve_pairs(pairs, opts, confirm=confirm))
    for episode_slot, curve in enumerate(chunk):
        for family, columns in zip(families, chunk_columns):
            fit = next(fits)
            if isinstance(fit, _FailedPair):
                logger.debug(
                    "fit_fleet: %r failed on %r: %s", family.name, curve.name, fit.error
                )
            _store_fit(columns, episode_slot, fit)
