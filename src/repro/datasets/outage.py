"""Synthetic outage fleets from a Poisson outage/restore process.

The fleet generator follows the resilience-event mechanics of Dobson &
Ekisheva (arXiv:2303.07930): an episode is a burst of component
outages arriving as a Poisson process, each outage carrying a restore
delay, and the performance curve is the normalized count of in-service
components sampled on a regular grid — exactly the "performance =
fraction of customers/components online" reading of utility outage
data (Carrington et al., arXiv:2011.00693).

Each :class:`OutageScenario` shapes that process into one of the
letter classes of :mod:`repro.core.shapes` by placing outage bursts
and restore-delay cohorts inside the observation window:

* **V** — one tight burst, fast restores.
* **U** — a drawn-out burst with a restore plateau (flat bottom).
* **W** — two bursts with full restoration between them.
* **L** — a sharp burst where most components never restore.
* **K** — a sharp burst with a fast-restore cohort and a stranded
  cohort; on the aggregate curve this reads as a kinked partial
  recovery, which the classifier labels **L** by convention (see
  :func:`repro.core.shapes.classify_shape`), so the scenario's
  ``expected_shape`` is ``"L"``.

Determinism: episode ``i`` of a fleet draws from its own
``np.random.default_rng((seed, i))`` stream (the same convention as
:func:`repro.fitting.multistart.generate_starts`), with a fixed draw
order inside the stream — so the generated fleet is bit-identical for
a fixed seed regardless of chunk size, worker layout, or whether an
episode is produced alone via :func:`episode_curve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from os import PathLike
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro._rng import DEFAULT_SEED
from repro.core.curve import ResilienceCurve
from repro.datasets.store import EpisodeStore, EpisodeStoreWriter
from repro.exceptions import DataError

__all__ = [
    "OutageBurst",
    "OutageScenario",
    "SCENARIOS",
    "episode_curve",
    "generate_fleet",
    "iter_fleet_curves",
]

#: Episodes synthesized per vectorized block, independent of the
#: store chunk size: bounds the (episodes × outages × grid) boolean
#: tensor built in :func:`_synthesize_block` to a few tens of MB.
_SYNTH_BLOCK = 512

#: Floor on the per-episode outage count. The Poisson means below make
#: a draw this small astronomically unlikely; the floor only guards
#: the degenerate scenarios a caller might construct.
_MIN_OUTAGES = 16


class OutageBurst(NamedTuple):
    """One cohort of component outages inside an episode.

    All times are fractions of the observation horizon. ``weight`` is
    this cohort's share of the episode's outages; outage instants are
    uniform on ``[start, stop]``, restore delays uniform on
    ``[delay_lo, delay_hi]``, and each outage restores at all with
    probability ``restore_fraction`` (the rest stay out past the
    window — the L/K tails).
    """

    start: float
    stop: float
    weight: float
    delay_lo: float
    delay_hi: float
    restore_fraction: float


@dataclass(frozen=True)
class OutageScenario:
    """A parameterized outage/restore template for one letter shape."""

    label: str
    expected_shape: str
    mean_outages: float
    depth: float
    bursts: tuple[OutageBurst, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.bursts:
            raise DataError(f"scenario {self.label!r} has no outage bursts")
        total = sum(burst.weight for burst in self.bursts)
        if not np.isclose(total, 1.0):
            raise DataError(
                f"scenario {self.label!r} burst weights sum to {total}, not 1"
            )
        if not 0.0 < self.depth < 1.0:
            raise DataError(
                f"scenario {self.label!r} depth must lie in (0, 1), "
                f"got {self.depth}"
            )


#: The five letter templates. Window positions and restore-delay
#: cohorts are tuned against the documented thresholds of
#: :func:`repro.core.shapes.classify_shape` (sharp-drop ≤ 0.15 of the
#: window, deep-fraction 0.35 splitting V from U, the 0.2-depth dip
#: threshold behind W) with enough margin that Poisson and
#: measurement noise cannot flip the class.
SCENARIOS: dict[str, OutageScenario] = {
    "V": OutageScenario(
        label="V",
        expected_shape="V",
        mean_outages=90.0,
        depth=0.30,
        bursts=(OutageBurst(0.05, 0.16, 1.0, 0.04, 0.16, 1.0),),
    ),
    "U": OutageScenario(
        label="U",
        expected_shape="U",
        mean_outages=90.0,
        depth=0.28,
        bursts=(OutageBurst(0.06, 0.30, 1.0, 0.40, 0.60, 1.0),),
    ),
    "W": OutageScenario(
        label="W",
        expected_shape="W",
        mean_outages=100.0,
        depth=0.30,
        bursts=(
            OutageBurst(0.05, 0.14, 0.5, 0.06, 0.18, 1.0),
            OutageBurst(0.45, 0.54, 0.5, 0.06, 0.20, 1.0),
        ),
    ),
    "L": OutageScenario(
        label="L",
        expected_shape="L",
        mean_outages=90.0,
        depth=0.35,
        bursts=(OutageBurst(0.02, 0.10, 1.0, 0.05, 0.25, 0.42),),
    ),
    "K": OutageScenario(
        label="K",
        expected_shape="L",  # single-curve K reads as L, by convention
        mean_outages=110.0,
        depth=0.38,
        bursts=(
            OutageBurst(0.02, 0.11, 0.45, 0.02, 0.08, 1.0),
            OutageBurst(0.02, 0.11, 0.55, 0.30, 0.80, 0.25),
        ),
    ),
}


class _EpisodeDraw(NamedTuple):
    """Everything random about one episode, drawn from its stream."""

    scenario: OutageScenario
    n_points: int
    outage_times: np.ndarray  # fractions of the horizon
    restore_times: np.ndarray  # fractions; +inf = never restored
    n_outages: int
    noise: np.ndarray  # per-grid-point measurement noise


def _draw_episode(
    rng: np.random.Generator,
    scenario: OutageScenario,
    *,
    n_points: int,
    n_points_choices: Sequence[int] | None,
    noise_std: float,
) -> _EpisodeDraw:
    """Run one episode's fixed draw sequence on *rng*.

    The draw order (grid size, outage count, per-burst splits, outage
    instants, restore delays, restore survival, noise) is part of the
    determinism contract — reordering it changes every fleet.
    """
    if n_points_choices is not None:
        n_points = int(
            n_points_choices[int(rng.integers(len(n_points_choices)))]
        )
    n_total = max(int(rng.poisson(scenario.mean_outages)), _MIN_OUTAGES)
    weights = np.array([burst.weight for burst in scenario.bursts])
    counts = rng.multinomial(n_total, weights / weights.sum())
    outage_parts: list[np.ndarray] = []
    restore_parts: list[np.ndarray] = []
    for burst, count in zip(scenario.bursts, counts):
        times = rng.uniform(burst.start, burst.stop, int(count))
        delays = rng.uniform(burst.delay_lo, burst.delay_hi, int(count))
        restored = rng.random(int(count)) < burst.restore_fraction
        outage_parts.append(times)
        restore_parts.append(np.where(restored, times + delays, np.inf))
    noise = rng.normal(0.0, noise_std, n_points) if noise_std > 0.0 else (
        np.zeros(n_points)
    )
    if noise.size:
        noise[0] = 0.0  # anchor the pre-event sample at nominal
    return _EpisodeDraw(
        scenario=scenario,
        n_points=n_points,
        outage_times=np.concatenate(outage_parts),
        restore_times=np.concatenate(restore_parts),
        n_outages=n_total,
        noise=noise,
    )


def _synthesize_block(draws: Sequence[_EpisodeDraw]) -> list[np.ndarray]:
    """Performance curves for *draws*, vectorized per grid size.

    Episodes sharing a grid size are stacked into one
    ``(episodes, outages, grid)`` counting tensor (outage columns
    padded with ``+inf``, which can never be active); the result is
    elementwise per episode, so block composition cannot change a
    single value.
    """
    values: list[np.ndarray | None] = [None] * len(draws)
    by_points: dict[int, list[int]] = {}
    for index, draw in enumerate(draws):
        by_points.setdefault(draw.n_points, []).append(index)
    for n_points, indices in by_points.items():
        grid = np.linspace(0.0, 1.0, n_points)  # fractions of the horizon
        max_outages = max(draws[i].outage_times.size for i in indices)
        out = np.full((len(indices), max_outages), np.inf)
        restore = np.full((len(indices), max_outages), np.inf)
        for row, i in enumerate(indices):
            draw = draws[i]
            out[row, : draw.outage_times.size] = draw.outage_times
            restore[row, : draw.restore_times.size] = draw.restore_times
        active = np.count_nonzero(
            (out[:, :, None] <= grid[None, None, :])
            & (restore[:, :, None] > grid[None, None, :]),
            axis=1,
        )
        for row, i in enumerate(indices):
            draw = draws[i]
            impact = draw.scenario.depth / draw.n_outages
            values[i] = 1.0 - impact * active[row] + draw.noise
    return [value for value in values if value is not None]


def _episode_times(n_points: int, horizon: float) -> np.ndarray:
    """The regular observation grid shared by every episode."""
    return np.linspace(0.0, horizon, n_points)


def _resolve_scenarios(
    scenarios: Sequence[str] | Mapping[str, float] | None,
) -> tuple[tuple[OutageScenario, ...], np.ndarray]:
    """Scenario objects + cumulative mixture weights."""
    if scenarios is None:
        names: Sequence[str] = tuple(SCENARIOS)
        weights = np.ones(len(SCENARIOS))
    elif isinstance(scenarios, Mapping):
        names = tuple(scenarios)
        weights = np.array([float(v) for v in scenarios.values()])
    else:
        names = tuple(scenarios)
        weights = np.ones(len(names))
    if not names:
        raise DataError("at least one scenario is required")
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise DataError(
            f"unknown outage scenarios {unknown!r}; "
            f"available: {sorted(SCENARIOS)}"
        )
    if np.any(weights < 0.0) or weights.sum() <= 0.0:
        raise DataError("scenario weights must be non-negative, sum > 0")
    chosen = tuple(SCENARIOS[name] for name in names)
    return chosen, np.cumsum(weights / weights.sum())


def episode_curve(
    scenario: str | OutageScenario,
    index: int = 0,
    *,
    seed: int | None = None,
    n_points: int = 48,
    horizon: float = 47.0,
    noise_std: float = 0.001,
) -> ResilienceCurve:
    """Episode *index* of a single-scenario fleet, as a curve.

    Identical to the episode a single-scenario :func:`generate_fleet`
    call with the same parameters would place at *index* — the
    per-episode RNG streams make the two paths interchangeable.
    """
    if isinstance(scenario, str):
        if scenario not in SCENARIOS:
            raise DataError(
                f"unknown outage scenario {scenario!r}; "
                f"available: {sorted(SCENARIOS)}"
            )
        scenario = SCENARIOS[scenario]
    base_seed = DEFAULT_SEED if seed is None else int(seed)
    rng = np.random.default_rng((base_seed, int(index)))
    draw = _draw_episode(
        rng,
        scenario,
        n_points=n_points,
        n_points_choices=None,
        noise_std=noise_std,
    )
    values = _synthesize_block([draw])[0]
    return ResilienceCurve(
        _episode_times(draw.n_points, horizon),
        values,
        nominal=1.0,
        name=f"ep{index:07d}",
        metadata={"label": scenario.label, "episode": int(index)},
    )


def generate_fleet(
    n_episodes: int,
    root: str | PathLike[str],
    *,
    scenarios: Sequence[str] | Mapping[str, float] | None = None,
    seed: int | None = None,
    n_points: int = 48,
    n_points_choices: Sequence[int] | None = None,
    horizon: float = 47.0,
    noise_std: float = 0.001,
    chunk_size: int = 2048,
    overwrite: bool = False,
) -> EpisodeStore:
    """Generate a labeled synthetic outage fleet into a columnar store.

    Parameters
    ----------
    n_episodes:
        Fleet size.
    root:
        Store directory (see :mod:`repro.datasets.store`).
    scenarios:
        Scenario mixture: a sequence of labels (equal weights), a
        ``label → weight`` mapping, or ``None`` for all five letter
        templates equally weighted. With more than one scenario, each
        episode first draws its scenario from the mixture.
    seed:
        Base seed; episode ``i`` draws from the independent stream
        ``default_rng((seed, i))``, so the fleet is bit-identical for
        a fixed seed regardless of *chunk_size*. ``None`` uses the
        library default seed.
    n_points, n_points_choices:
        Observation-grid size; when *n_points_choices* is given, each
        episode draws its size from the choices (a ragged fleet).
    horizon:
        Observation-window length in time units.
    noise_std:
        Gaussian measurement noise on every sample after the first.
    chunk_size:
        Episodes buffered per store append — bounds generator memory.
    overwrite:
        Replace an existing store at *root*.

    Returns
    -------
    EpisodeStore
        The completed store, reopened for reading. Its manifest
        records the seed and the full generation config.
    """
    if n_episodes < 1:
        raise DataError(f"n_episodes must be >= 1, got {n_episodes}")
    chosen, cum_weights = _resolve_scenarios(scenarios)
    base_seed = DEFAULT_SEED if seed is None else int(seed)
    config = {
        "generator": "repro.datasets.outage",
        "scenarios": [scenario.label for scenario in chosen],
        "weights": [float(v) for v in np.diff(np.concatenate(([0.0], cum_weights)))],
        "n_points": int(n_points),
        "n_points_choices": (
            None
            if n_points_choices is None
            else [int(v) for v in n_points_choices]
        ),
        "horizon": float(horizon),
        "noise_std": float(noise_std),
    }
    writer = EpisodeStoreWriter(
        root,
        label_names=tuple(scenario.label for scenario in chosen),
        seed=base_seed,
        config=config,
        overwrite=overwrite,
    )
    with writer:
        for start in range(0, n_episodes, chunk_size):
            stop = min(start + chunk_size, n_episodes)
            labels = np.empty(stop - start, dtype=np.int64)
            lengths = np.empty(stop - start, dtype=np.int64)
            block_values: list[np.ndarray] = []
            block_times: list[np.ndarray] = []
            for block_start in range(start, stop, _SYNTH_BLOCK):
                block_stop = min(block_start + _SYNTH_BLOCK, stop)
                draws: list[_EpisodeDraw] = []
                for index in range(block_start, block_stop):
                    rng = np.random.default_rng((base_seed, index))
                    if len(chosen) > 1:
                        pick = int(
                            np.searchsorted(
                                cum_weights, rng.random(), side="right"
                            )
                        )
                        scenario = chosen[min(pick, len(chosen) - 1)]
                    else:
                        scenario = chosen[0]
                    labels[index - start] = writer.label_code(scenario.label)
                    draws.append(
                        _draw_episode(
                            rng,
                            scenario,
                            n_points=n_points,
                            n_points_choices=n_points_choices,
                            noise_std=noise_std,
                        )
                    )
                block_values.extend(_synthesize_block(draws))
                for offset, draw in enumerate(draws):
                    lengths[block_start + offset - start] = draw.n_points
                    block_times.append(
                        _episode_times(draw.n_points, horizon)
                    )
            writer.append(
                np.concatenate(block_times),
                np.concatenate(block_values),
                lengths,
                labels=labels,
            )
        store = writer.close()
    return store


def iter_fleet_curves(
    store: EpisodeStore, chunk_size: int = 1024
) -> Iterator[ResilienceCurve]:
    """Stream a store's episodes chunk-by-chunk as curves."""
    for chunk in store.iter_chunks(chunk_size):
        yield from chunk.curves()
