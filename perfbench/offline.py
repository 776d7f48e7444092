"""The offline workloads: ``fleet_fit`` in this process, ``paper_tables``
in fresh child processes (one per build, so the fit cache starts cold as
it does for a user who builds the tables)."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from common import (
    HERE,
    BenchError,
    child_env,
    cpu_plan,
    median,
    pinned,
    self_peak_rss_mb,
)
from layers import layer_metrics, totals

TABLES_CHILD = HERE / "tables_child.py"


@dataclass
class OfflineResult:
    """What one offline run measured."""

    setup_s: list[float] = field(default_factory=list)
    #: Per round (a fit_fleet pass over the store, or a build of Tables
    #: I-IV), the wall (CPU) time of each of its parts: one part per
    #: pass, one per table of a build.
    round_s: list[list[float]] = field(default_factory=list)
    round_cpu_s: list[list[float]] = field(default_factory=list)
    #: Operations per round: episodes fitted, or table cells built.
    ops_per_round: int = 1
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: dict[str, float] | None = None
    notes: list[str] = field(default_factory=list)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": median(self.setup_s),
            "cpu_ms_per_op": typical(self.round_cpu_s) / self.ops_per_round * 1e3,
            "peak_rss_mb": self.peak_rss_mb,
        }


def typical(rounds: list[list[float]]) -> float:
    """The mean round. Rounds alternate between the two CPUs
    (:func:`common.cpu_plan`), whose speeds the host changes on its own
    for tens of seconds at a time, so the mean weighs both alike where a
    median would pick one."""
    return sum(sum(parts) for parts in rounds) / len(rounds)


def enough_rounds(done: int, least: int, deadline: float) -> bool:
    """Whether a run may stop after *done* rounds: at least *least*,
    an even number (as many on each CPU), and *deadline* passed."""
    return done >= least and done % 2 == 0 and time.perf_counter() >= deadline


# ----------------------------------------------------------------------
# fleet_fit
# ----------------------------------------------------------------------
def _engine_options(options: dict[str, Any]) -> Any:
    from repro.fitting.options import EngineOptions

    return EngineOptions(**options)


def run_fleet(
    config: dict[str, Any],
    seed: int,
    seconds: float,
    workdir: Path,
    *,
    ledger: Any = None,
) -> OfflineResult:
    """Set up the store ``setup_repeats`` times, then fit it pass after
    pass for *seconds* and an even number of passes, alternating CPUs;
    with a *ledger*, the layers are already wrapped."""
    import repro.fitting.fleet as fleet
    from repro.datasets.outage import generate_fleet

    store_cfg = config["store"]
    fit_cfg = config["fit"]
    result = OfflineResult(ops_per_round=int(store_cfg["episodes"]))
    store = None
    for attempt in range(int(config["setup_repeats"])):
        with pinned(cpu_plan(attempt)[1]):
            start = time.perf_counter()
            store = generate_fleet(
                int(store_cfg["episodes"]),
                workdir / f"store{attempt}",
                seed=seed,
                n_points_choices=tuple(store_cfg["n_points_choices"]),
                horizon=float(store_cfg["horizon"]),
            )
            result.setup_s.append(time.perf_counter() - start)
    assert store is not None
    options = _engine_options(fit_cfg["options"])
    families = tuple(fit_cfg["families"])
    passes = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    while not enough_rounds(len(passes), 2, t0 + seconds):
        with pinned(cpu_plan(len(passes))[1]):
            start, start_cpu = time.perf_counter(), time.process_time()
            fits = fleet.fit_fleet(
                store,
                families,
                options=options,
                chunk_size=int(fit_cfg["chunk_size"]),
                confirm=bool(fit_cfg["confirm"]),
            )
            result.round_s.append([time.perf_counter() - start])
            result.round_cpu_s.append([time.process_time() - start_cpu])
        passes.append(fits)
    cpu, t1 = time.process_time() - cpu0, time.perf_counter()
    cells = fits.n_episodes * len(families)
    for fits in passes:
        result.attempted += cells
        result.failed += sum(int(column.sum()) for column in fits.failed.values())
    result.peak_rss_mb = self_peak_rss_mb()
    if ledger is not None:
        result.layers = _offline_layers(ledger, (t0, t1), cpu)
    result.problems += fleet_sample_gate(store, passes[-1], config, options)
    result.notes.append(
        f"fleet_fit: {len(passes)} passes of {fits.n_episodes} episodes x "
        f"{len(families)} families, chunk_size {fit_cfg['chunk_size']}"
    )
    return result


def fleet_sample_gate(store: Any, fits: Any, config: dict[str, Any], options: Any) -> list[str]:
    """Each sampled ``(episode, family)`` cell must equal a per-episode
    ``fit_least_squares`` with the same options, bit for bit."""
    from repro.fitting.least_squares import fit_least_squares
    from repro.models.registry import make_model

    problems = []
    for episode in config["gate_sample_episodes"]:
        index = int(episode) % fits.n_episodes
        curve = store.episode(index)
        for family in fits.families:
            cell = fits.fit(index, family)
            reference = fit_least_squares(make_model(family), curve, options=options)
            if tuple(reference.model.params) != cell.params or float(reference.sse) != cell.sse:
                problems.append(
                    f"fleet episode {index} {family}: fit_fleet {cell.params}/{cell.sse!r} "
                    f"!= fit_least_squares {tuple(reference.model.params)}/{reference.sse!r}"
                )
    return problems


def _offline_layers(ledger: Any, window: tuple[float, float], cpu_s: float) -> dict[str, float]:
    span = totals(ledger.export(), window)
    metrics = layer_metrics(span)
    metrics["trace.coverage"] = span.top_busy / cpu_s if cpu_s > 0 else 0.0
    return metrics


# ----------------------------------------------------------------------
# paper_tables
# ----------------------------------------------------------------------
def tables_child(*, trace: bool) -> dict[str, Any]:
    """Run ``tables_child.py`` once and return its JSON report."""
    command = [sys.executable, str(TABLES_CHILD)]
    if trace:
        command.append("--trace")
    completed = subprocess.run(
        command, capture_output=True, text=True, env=child_env(), timeout=170
    )
    if completed.returncode != 0:
        raise BenchError(f"tables child failed:\n{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_tables(
    config: dict[str, Any], seconds: float, *, builds: int | None = None, trace: bool = False
) -> OfflineResult:
    """Build the tables in fresh processes, alternating CPUs, until
    *seconds* have passed and an even number of at least
    ``setup_repeats`` builds were made (or exactly *builds* times).
    Every build process also times its own set-up."""
    result = OfflineResult()
    deadline = time.perf_counter() + seconds
    reports = []
    while (
        len(reports) < builds
        if builds is not None
        else not enough_rounds(len(reports), int(config["setup_repeats"]), deadline)
    ):
        with pinned(cpu_plan(len(reports))[1]):
            reports.append(tables_child(trace=trace))
    for report in reports:
        result.setup_s.append(report["setup_s"])
        result.round_s.append([table["seconds"] for table in report["tables"]])
        result.round_cpu_s.append([table["cpu_s"] for table in report["tables"]])
        result.attempted += len(report["tables"])
        result.failed += sum(1 for table in report["tables"] if table["error"])
        result.problems += [
            f"table {table['number']}: {table['error'] or 'differs from tests/golden'}"
            for table in report["tables"]
            if not table["golden_match"]
        ]
        result.peak_rss_mb = max(result.peak_rss_mb, report["peak_rss_mb"])
    result.ops_per_round = sum(table["cells"] for table in reports[-1]["tables"])
    if trace:
        result.layers = reports[-1]["layers"]
    result.notes.append(
        f"paper_tables: {len(reports)} builds of Tables I-IV, each in a fresh process; "
        f"{result.ops_per_round} table cells per build"
    )
    return result
