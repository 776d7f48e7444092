"""Serving-layer performance — incremental warm refits vs cold refits.

Replays the 1990-93 recession through an
:class:`~repro.serving.OnlineForecaster` on the Table III mixture
workload (``wei-exp``), timing every incremental warm refit, and then
cold-fits the *same* prefixes from scratch as the baseline. Everything
is written to ``benchmarks/output/BENCH_serving.json``: per-update
warm/cold p50 and p95 latency, the speedup, the warm-start/cache hit
rates (from the forecaster counters, the metrics registry, and the
shared :class:`~repro.fitting.FitCache`), and the finalization check.

Two things are asserted:

* the warm incremental refit p50 latency is at least **3× faster**
  than a cold refit of the same prefix (the warm path solves one
  start from the previous optimum instead of the full multi-start
  sweep), and
* after replaying the full curve, :meth:`OnlineForecaster.finalize`
  reproduces the one-shot ``fit_least_squares`` optimum
  **bit-identically** — streaming a curve through the service loses
  nothing versus fitting it in batch.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.datasets.recessions import load_recession
from repro.datasets.stream import iter_curve
from repro.fitting import EngineOptions, FitCache, fit_least_squares
from repro.models.registry import make_model
from repro.observability import Tracer
from repro.serving import OnlineForecaster, RefitPolicy
from repro.bench.artifact import write_bench_artifact
from repro.bench.provenance import provenance_block

#: The Table III workload this benchmark replays.
DATASET = "1990-93"
MODEL = "wei-exp"
#: Engine plumbing of the cold-refit baseline: no cache, no tracing.
PLUMBING = EngineOptions(cache=False, trace=False)


def _percentiles(samples: list[float]) -> dict[str, float]:
    array = np.asarray(samples, dtype=np.float64)
    return {
        "n": int(array.size),
        "p50_ms": float(np.percentile(array, 50) * 1e3),
        "p95_ms": float(np.percentile(array, 95) * 1e3),
        "mean_ms": float(array.mean() * 1e3),
    }


def _replay_with_timings() -> dict:
    curve = load_recession(DATASET)
    tracer = Tracer()
    cache = FitCache()
    options = EngineOptions(cache=cache, trace=tracer)
    forecaster = OnlineForecaster(
        MODEL, options=options, policy=RefitPolicy(every_k=1), key=DATASET
    )

    warm_seconds: list[float] = []
    prefix_lengths: list[int] = []
    for event in iter_curve(curve):
        forecaster.observe(event.time, event.performance)
        if not forecaster.ready:
            continue
        had_fit = forecaster.fit is not None
        t0 = time.perf_counter()
        forecaster.refit()
        elapsed = time.perf_counter() - t0
        if had_fit:  # only incremental refits count; the first is cold
            warm_seconds.append(elapsed)
            prefix_lengths.append(forecaster.n_observations)

    # Baseline: cold-refit the very same prefixes from scratch.
    family = make_model(MODEL)
    cold_seconds: list[float] = []
    for length in prefix_lengths:
        prefix = curve.head(length)
        t0 = time.perf_counter()
        fit_least_squares(family, prefix, options=PLUMBING)
        cold_seconds.append(time.perf_counter() - t0)

    final = forecaster.finalize()
    oneshot = fit_least_squares(family, curve, options=PLUMBING)

    return {
        "forecaster": forecaster,
        "warm_seconds": warm_seconds,
        "cold_seconds": cold_seconds,
        "final": final,
        "oneshot": oneshot,
        "metrics": tracer.metrics.snapshot(),
        "cache_stats": cache.stats(),
    }


def test_bench_serving(benchmark, artifact_dir):
    data = run_once(benchmark, _replay_with_timings)

    warm = _percentiles(data["warm_seconds"])
    cold = _percentiles(data["cold_seconds"])
    speedup_p50 = cold["p50_ms"] / warm["p50_ms"]

    forecaster = data["forecaster"]
    stats = dict(forecaster.stats)
    refits = stats["refits_warm"] + stats["refits_cold"] + stats["refits_full"]
    final = data["final"]
    oneshot = data["oneshot"]
    bit_identical = (
        final.model.params == oneshot.model.params and final.sse == oneshot.sse
    )

    payload = {
        "provenance": provenance_block(),
        "dataset": DATASET,
        "model": MODEL,
        "n_observations": forecaster.n_observations,
        "warm_refit": warm,
        "cold_refit": cold,
        "speedup_p50": speedup_p50,
        "speedup_p95": cold["p95_ms"] / warm["p95_ms"],
        "stats": stats,
        "warm_refit_fraction": stats["refits_warm"] / refits,
        "cache_stats": data["cache_stats"],
        "metrics": data["metrics"],
        "finalize_bit_identical": bit_identical,
        "final_params": [float(v) for v in final.model.params],
        "final_sse": float(final.sse),
    }
    write_bench_artifact(artifact_dir / "BENCH_serving.json", payload)
    print()
    print(
        f"serving: warm p50 {warm['p50_ms']:.2f} ms vs cold p50 "
        f"{cold['p50_ms']:.2f} ms ({speedup_p50:.1f}x), "
        f"finalize bit-identical: {bit_identical}"
    )

    # The warm path must beat a cold refit of the same prefix by >= 3x
    # at the median — that is the entire point of warm-starting from
    # the previous optimum instead of re-running the multi-start sweep.
    assert speedup_p50 >= 3.0, (
        f"warm incremental refit p50 only {speedup_p50:.2f}x faster than cold"
    )
    # Replaying the full curve must lose nothing vs the batch fit.
    assert bit_identical, (
        f"finalize() diverged from the one-shot fit: "
        f"{final.model.params} vs {oneshot.model.params}"
    )
