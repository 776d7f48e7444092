"""Fleet-scale fitting — cross-episode batching, streaming memory.

Generates a 100k-episode synthetic outage fleet into the columnar
episode store and measures the three ways to fit it:

* **scipy loop** — :func:`repro.fitting.fit_least_squares` once per
  (episode, family) cell with the per-start scipy engine (the
  reference),
* **per-episode batched** — the same loop on the ``batched`` engine
  (PR6: multi-start candidates of *one* fit solved together),
* **cross-episode batched** — :func:`repro.fitting.fit_fleet`
  (episodes × families × starts stacked into one shape-bucketed
  kernel solve per chunk).

Everything lands in ``benchmarks/output/BENCH_fleet.json``.

Asserted:

* cross-episode batched is at least **5x** the scipy loop's
  episodes/sec at the default start budget on one CPU,
* the fleet winners (parameters *and* SSE) are **bit-identical** to
  looping ``fit_least_squares`` on the same engine — batching across
  episodes is a performance knob, never a correctness knob,
* a **100k-episode** fit completes in a subprocess whose peak RSS is
  bounded by the chunk size, not the fleet size: peak RSS grows by
  less than 2x when the fleet grows 5x at a fixed chunk size.

The timing comparison runs on a moderate slice (the scipy loop is the
bottleneck — timing it on all 100k would take hours, which is the
point of the fleet engine); the RSS proof runs on the full store.
Timings are best-of-2 to shed scheduler noise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.bench.artifact import write_bench_artifact
from repro.bench.provenance import provenance_block
from repro.datasets.outage import generate_fleet, iter_fleet_curves
from repro.datasets.store import EpisodeStore
from repro.fitting.fleet import fit_fleet
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.options import EngineOptions
from repro.models.registry import make_model

#: Model grid fitted to every episode.
FAMILIES = ("quadratic", "competing_risks")

#: Fleet sizes: full store for the RSS/streaming proof, a slice for
#: the engine comparison (the scipy loop sets the wall-clock there),
#: and a ragged fleet for the bit-identity check.
N_FLEET = 100_000
N_TIMING = 512
N_IDENTITY = 96

SEED = 20220926
CHUNK_SIZE = 2048

#: Screen-only single-family configuration for the RSS subprocesses —
#: cheap enough to stream the full 100k store twice while still
#: exercising the exact chunked fit path.
_RSS_SNIPPET = """\
import json, resource, sys, time
from repro.datasets.store import EpisodeStore
from repro.fitting.fleet import fit_fleet

store = EpisodeStore(sys.argv[1])
t0 = time.perf_counter()
result = fit_fleet(
    store, ("quadratic",), engine="batched", confirm=False,
    n_random_starts=2, chunk_size=int(sys.argv[2]), length_bucket=8,
)
seconds = time.perf_counter() - t0
print(json.dumps({
    "n_episodes": result.n_episodes,
    "seconds": seconds,
    "episodes_per_sec": result.episodes_per_sec,
    "failed": int(result.failed["quadratic"].sum()),
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def _loop_fit(store, *, engine, limit):
    """The per-episode reference loop: one fit per (episode, family)."""
    families = [make_model(name) for name in FAMILIES]
    results = []
    count = 0
    for curve in iter_fleet_curves(store, chunk_size=CHUNK_SIZE):
        for family in families:
            results.append(
                fit_least_squares(
                    family,
                    curve,
                    engine=engine,
                    options=EngineOptions(cache=False, executor="serial"),
                )
            )
        count += 1
        if count >= limit:
            break
    return results


def _best_of_two(func):
    best = float("inf")
    value = None
    for _ in range(2):
        t0 = time.perf_counter()
        value = func()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
    return value, best


def _rss_run(root: Path, chunk_size: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_SNIPPET, str(root), str(chunk_size)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_bench_fleet(benchmark, artifact_dir, tmp_path):
    # ------------------------------------------------------------------
    # Generate the fleet (timed by pytest-benchmark — generation
    # throughput is part of the story: the generator must outrun every
    # fit engine).
    # ------------------------------------------------------------------
    fleet_root = tmp_path / "fleet100k"
    t0 = time.perf_counter()
    store = run_once(
        benchmark, generate_fleet, N_FLEET, fleet_root, seed=SEED, chunk_size=8192
    )
    generate_seconds = time.perf_counter() - t0
    assert len(store) == N_FLEET

    small_root = tmp_path / "fleet20k"
    small = generate_fleet(N_FLEET // 5, small_root, seed=SEED, chunk_size=8192)
    assert len(small) == N_FLEET // 5

    # ------------------------------------------------------------------
    # Engine comparison on the timing slice (identical episodes for all
    # three engines: the first N_TIMING episodes of the same store).
    # ------------------------------------------------------------------
    def _fleet_slice():
        return [
            curve
            for i, curve in enumerate(iter_fleet_curves(store, CHUNK_SIZE))
            if i < N_TIMING
        ]

    timing_curves = _fleet_slice()

    fleet_result, fleet_seconds = _best_of_two(
        lambda: fit_fleet(
            timing_curves,
            FAMILIES,
            engine="batched",
            chunk_size=N_TIMING,
            length_bucket=8,
        )
    )
    loop_batched, loop_batched_seconds = _best_of_two(
        lambda: _loop_fit(store, engine="batched", limit=N_TIMING)
    )
    # The scipy loop is the slow reference; a single timed pass keeps
    # the benchmark's total wall-clock sane (it is also the *stable*
    # engine: one solver call per start, no adaptive batching).
    t0 = time.perf_counter()
    loop_scipy = _loop_fit(store, engine="scipy", limit=N_TIMING)
    loop_scipy_seconds = time.perf_counter() - t0

    rates = {
        "scipy_loop": N_TIMING / loop_scipy_seconds,
        "per_episode_batched": N_TIMING / loop_batched_seconds,
        "cross_episode_batched": N_TIMING / fleet_seconds,
    }
    speedup = rates["cross_episode_batched"] / rates["scipy_loop"]

    # ------------------------------------------------------------------
    # Bit-identity: fleet winners == looped fit_least_squares winners,
    # engine by engine, on the timing slice.
    # ------------------------------------------------------------------
    mismatches = 0
    for i, curve in enumerate(timing_curves[:N_IDENTITY]):
        for j, name in enumerate(FAMILIES):
            cell = fleet_result.fit(i, name)
            looped = loop_batched[i * len(FAMILIES) + j]
            if tuple(cell.params) != tuple(looped.params) or cell.sse != looped.sse:
                mismatches += 1
    assert mismatches == 0, f"{mismatches} fleet cells differ from the loop"

    # ------------------------------------------------------------------
    # Streaming memory: peak RSS at a fixed chunk size must be bounded
    # by the chunk, not the fleet — a 5x larger fleet may not double it.
    # ------------------------------------------------------------------
    rss_small = _rss_run(small_root, CHUNK_SIZE)
    rss_full = _rss_run(fleet_root, CHUNK_SIZE)
    assert rss_full["failed"] == 0 and rss_small["failed"] == 0
    assert rss_full["n_episodes"] == N_FLEET
    rss_ratio = rss_full["peak_rss_kb"] / rss_small["peak_rss_kb"]
    assert rss_ratio < 2.0, (
        f"peak RSS grew {rss_ratio:.2f}x for a 5x larger fleet — "
        "the chunked reader is not streaming"
    )

    payload = {
        "provenance": provenance_block(),
        "generated_by": "benchmarks/bench_fleet.py",
        "workload": (
            f"synthetic outage fleet, {len(FAMILIES)}-family grid, "
            f"timing slice {N_TIMING} episodes, RSS proof {N_FLEET} episodes"
        ),
        "fleet": {
            "n_episodes": N_FLEET,
            "n_samples": store.n_samples,
            "generate_seconds": generate_seconds,
            "generate_episodes_per_sec": N_FLEET / generate_seconds,
            "store_bytes": sum(
                f.stat().st_size for f in Path(fleet_root).iterdir()
            ),
        },
        "engines": {
            "n_timing_episodes": N_TIMING,
            "families": list(FAMILIES),
            "episodes_per_sec": rates,
            "wall_seconds": {
                "scipy_loop": loop_scipy_seconds,
                "per_episode_batched": loop_batched_seconds,
                "cross_episode_batched": fleet_seconds,
            },
            "speedup_cross_episode_vs_scipy_loop": speedup,
            "speedup_cross_episode_vs_per_episode": (
                rates["cross_episode_batched"] / rates["per_episode_batched"]
            ),
            "winners_bit_identical": True,
        },
        "streaming": {
            "chunk_size": CHUNK_SIZE,
            "config": "quadratic only, screen-only, n_random_starts=2",
            "small_fleet": rss_small,
            "full_fleet": rss_full,
            "rss_ratio_for_5x_fleet": rss_ratio,
        },
    }
    write_bench_artifact(artifact_dir / "BENCH_fleet.json", payload)
    print()
    print(json.dumps(payload, indent=2, sort_keys=True))

    # The headline claim: stacking episodes into the batched kernel
    # beats fitting them one by one with scipy by >= 5x on one CPU.
    assert speedup >= 5.0, f"cross-episode speedup only {speedup:.2f}x"
    # And per-episode batching alone does not get there — the win is
    # specifically from crossing episode boundaries.
    assert rates["cross_episode_batched"] > rates["per_episode_batched"]
