"""Tracing overhead — the observability layer's cost, measured honestly.

Four measurements on the Table III workload (7 recessions × 4
mixtures, no cache so every run solves), written to
``benchmarks/output/BENCH_trace.json``:

* **disabled wall** — best-of-2 runs with tracing off at 4 random
  starts, the baseline every untraced caller pays;
* **traced wall** — the same 4-start workload with a live tracer
  (spans kept in memory and streamed to JSONL), recorded but *not*
  asserted: single-run wall ratios on a 1-CPU container are scheduler
  noise, which is why the budget below is modeled instead;
* **modeled disabled overhead** — the no-op fast path is a
  ``resolve_tracer`` call plus ``enabled`` guard checks; its per-call
  cost is micro-timed and multiplied by (4× generous) the number of
  instrumentation points the traced run actually crossed. **Asserted
  < 2%** of the disabled wall — the acceptance bound;
* **CLI proof** — ``python -m repro table 3 --trace --trace-file …``
  end to end (default start count), asserting one ``fit`` span per
  (dataset, model) cell with ``nfev`` and ``cache_hit`` attribution.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import run_once
from repro.analysis.experiments import table3
from repro.cli import main
from repro.bench.artifact import write_bench_artifact
from repro.bench.provenance import provenance_block
from repro.fitting.options import EngineOptions
from repro.observability.tracer import (
    NULL_TRACER,
    Tracer,
    current_tracer,
    resolve_tracer,
)

#: Table III grid size: 7 recessions × 4 mixture models.
N_CELLS = 28
#: Micro-benchmark iterations for the null-path per-op cost.
NULL_OPS = 200_000
#: Engine plumbing for runs that must really solve.
NO_CACHE = EngineOptions(cache=False)


def _null_path_seconds_per_op() -> float:
    """Best-of-3 per-op cost of the disabled instrumentation: one
    ``resolve_tracer(None)`` + ``enabled`` guard + ``current_tracer()``
    — a superset of what any single instrumentation point does."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(NULL_OPS):
            tracer = resolve_tracer(None)
            if tracer.enabled:  # pragma: no cover - tracing is off here
                raise AssertionError("tracing unexpectedly enabled")
            current_tracer()
        best = min(best, time.perf_counter() - start)
    return best / NULL_OPS


def _stage_breakdown(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per-span-name aggregation: count, total and mean seconds."""
    stages: dict[str, dict[str, float]] = {}
    for span in spans:
        stage = stages.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        stage["count"] += 1
        stage["total_s"] += span["dur_s"]
        stage["max_s"] = max(stage["max_s"], span["dur_s"])
    for stage in stages.values():
        stage["mean_s"] = stage["total_s"] / stage["count"]
    return stages


def test_trace_overhead(benchmark, artifact_dir, tmp_path, capsys):
    assert current_tracer() is NULL_TRACER, "bench requires tracing off"

    # -- disabled baseline: best of 2 untraced runs -------------------
    start = time.perf_counter()
    run_once(benchmark, table3, n_random_starts=4, options=NO_CACHE)
    disabled_walls = [time.perf_counter() - start]
    start = time.perf_counter()
    table3(n_random_starts=4, options=NO_CACHE)
    disabled_walls.append(time.perf_counter() - start)
    disabled_wall = min(disabled_walls)

    # -- traced run of the identical workload -------------------------
    tracer = Tracer(path=tmp_path / "table3_starts4.jsonl")
    start = time.perf_counter()
    table3(n_random_starts=4, options=NO_CACHE.replace(trace=tracer))
    traced_wall = time.perf_counter() - start
    tracer.close()
    spans = tracer.spans
    traced_fit_spans = [s for s in spans if s["name"] == "fit"]
    assert len(traced_fit_spans) == N_CELLS

    # -- modeled disabled overhead: per-op null cost × ops crossed ----
    per_op = _null_path_seconds_per_op()
    # Every span the traced run emitted corresponds to at most a
    # handful of guard checks on the disabled path; 4× is generous.
    null_ops_per_run = 4 * len(spans)
    modeled_overhead = per_op * null_ops_per_run / disabled_wall
    assert modeled_overhead < 0.02, (
        f"disabled tracing overhead modeled at {modeled_overhead:.4%} "
        f"of the Table III workload — exceeds the 2% budget"
    )

    # -- acceptance proof through the real CLI ------------------------
    trace_file = tmp_path / "cli_table3.jsonl"
    start = time.perf_counter()
    exit_code = main(
        ["table", "3", "--no-cache", "--trace", "--trace-file", str(trace_file)]
    )
    cli_wall = time.perf_counter() - start
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Table III" in captured.out
    assert "Trace summary" in captured.err

    cli_spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    cli_fit_spans = [s for s in cli_spans if s["name"] == "fit"]
    # >= 1 span per model fit, each attributing the solver work (nfev)
    # and the cache outcome.
    assert len(cli_fit_spans) >= N_CELLS
    for span in cli_fit_spans:
        assert span["attrs"]["nfev"] > 0
        assert span["attrs"]["cache_hit"] is False  # --no-cache
    assert sum(1 for s in cli_spans if s["name"] == "table.grid") == 1
    assert sum(1 for s in cli_spans if s["name"] == "fit.start") > N_CELLS

    payload = {
        "provenance": provenance_block(),
        "generated_by": "benchmarks/bench_trace_overhead.py",
        "workload": "table3(n_random_starts=4, options=EngineOptions(cache=False)): "
        "7 recessions x 4 mixtures",
        "cpu_count": os.cpu_count(),
        "disabled_wall_seconds": disabled_wall,
        "disabled_wall_runs": disabled_walls,
        "traced_wall_seconds": traced_wall,
        "traced_over_disabled": traced_wall / disabled_wall,
        "null_path_seconds_per_op": per_op,
        "modeled_disabled_overhead_fraction": modeled_overhead,
        "overhead_budget_fraction": 0.02,
        "n_spans": len(spans),
        "n_fit_spans": len(traced_fit_spans),
        "stages": _stage_breakdown(spans),
        "cli_table3_trace": {
            "command": "python -m repro table 3 --no-cache --trace "
            "--trace-file <path>  (default start count)",
            "wall_seconds": cli_wall,
            "n_spans": len(cli_spans),
            "n_fit_spans": len(cli_fit_spans),
        },
    }
    write_bench_artifact(artifact_dir / "BENCH_trace.json", payload)
    print()
    print(json.dumps(payload, indent=2))
