"""Service-layer scale — 10k concurrent streams over one asyncio server.

Self-hosts the JSONL-over-TCP :class:`~repro.serving.ForecastServer`
and drives it with the synthetic outage-fleet load harness
(:mod:`repro.serving.loadgen`): 10,000 streams stay concurrently
registered while observations round-robin over pipelined connections,
deterministic admission probes hit the full fleet, and sampled
forecasts exercise the first-fit path. Alongside the load run, a small
remediation demo injects a drifting stream into a session and lets
:class:`~repro.serving.RemediationLoop` heal it. Everything lands in
``benchmarks/output/BENCH_service.json`` through the validating
artifact writer: request p50/p99, admission-rejection counts, refit
ticker counters, peak RSS, and the remediation verdict.

Four things are asserted:

* all **10,000** streams are concurrently registered on one box with
  bounded memory (the whole run, fleet data included, stays under
  2 GB peak RSS),
* admission control is exact — every one of the extra ``register``
  probes into the full fleet is rejected with a 429, and no request
  ever produces a protocol error,
* every sampled forecast is eventually answered (the 429 retry path
  around the first-fit concurrency cap converges), and
* the remediation loop detects the injected drifting stream, reselects
  its model family, and the verifier-adopted fit strictly beats the
  stale fit's held-out SSE.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import run_once
from repro.bench.artifact import write_bench_artifact
from repro.bench.provenance import provenance_block
from repro.fitting import EngineOptions
from repro.observability.metrics import MetricsRegistry
from repro.serving import ForecastSession, RefitPolicy, RemediationLoop
from repro.serving.loadgen import run_load_sync
from repro.serving.remediation import RemediationConfig
from repro.serving.server import ServerConfig

#: Concurrent streams the load run must sustain (the acceptance floor).
N_STREAMS = 10_000
SEED = 20220926

#: Cheap deterministic solver settings — the bench measures the serving
#: layer, not the solver.
OPTIONS = EngineOptions(
    cache=False, trace=False, n_random_starts=2, seed=SEED, executor="serial"
)


def _drive_load() -> dict:
    config = ServerConfig(
        options=OPTIONS,
        family="quadratic",
        refit_interval=0.25,
        refit_every_k=8,
    )
    return run_load_sync(
        config=config,
        n_streams=N_STREAMS,
        observations=10,
        obs_batch=5,
        connections=8,
        forecast_streams=64,
        reject_probes=32,
        seed=SEED,
        settle_seconds=1.0,
    )


def _holdout_sse(fit, times, perf) -> float:
    predicted = fit.model.evaluate(
        np.asarray(times, dtype=np.float64), fit.model.params
    )
    return float(np.sum((predicted - np.asarray(perf, dtype=np.float64)) ** 2))


def _remediation_demo() -> dict:
    """Inject one drifting stream and let the loop heal it.

    The incumbent quadratic is fitted on a clean linear decline; the
    outage then plateaus instead of recovering — a shape the
    hyperbolic competing-risks family extrapolates and a bathtub
    parabola cannot.
    """
    session = ForecastSession(
        options=OPTIONS, family="quadratic", policy=RefitPolicy(every_k=1000)
    )
    rng = np.random.default_rng(SEED)
    head_n, tail_n, floor = 9, 12, 0.2
    for t in range(head_n):
        p = 1.0 - (1.0 - floor) * t / (head_n - 1) + rng.normal(0.0, 5e-3)
        session.observe("drifter", float(t), float(p))
    session["drifter"].refit()
    stale_fit = session["drifter"].fit
    stale_family = session["drifter"].family.name
    for t in range(head_n, head_n + tail_n):
        session.observe("drifter", float(t), float(floor + rng.normal(0.0, 5e-3)))
    drift = session["drifter"].drift()

    metrics = MetricsRegistry()
    loop = RemediationLoop(
        session,
        candidates=("quadratic", "competing_risks", "wei-exp"),
        config=RemediationConfig(drift_threshold=0.25, reselect_threshold=0.5),
        metrics=metrics,
    )
    report = loop.run_cycle()
    outcome = report.outcomes[0]

    # Re-check the verifier's contract from the outside: the adopted
    # fit beats the stale incumbent on the held-out tail.
    curve = session["drifter"].curve
    k = loop.config.holdout_points
    stale_sse = _holdout_sse(stale_fit, curve.times[-k:], curve.performance[-k:])
    adopted_sse = _holdout_sse(
        session["drifter"].fit, curve.times[-k:], curve.performance[-k:]
    )
    return {
        "detected": report.detected,
        "adopted": report.adopted,
        "reselected": report.reselected,
        "drift": float(drift),
        "from_family": stale_family,
        "to_family": session["drifter"].family.name,
        "candidate_holdout_sse": outcome.candidate_holdout_sse,
        "incumbent_holdout_sse": outcome.incumbent_holdout_sse,
        "stale_holdout_sse": stale_sse,
        "adopted_holdout_sse": adopted_sse,
    }


def test_bench_service(benchmark, artifact_dir):
    report = run_once(benchmark, _drive_load)
    remediation = _remediation_demo()

    payload = {
        "provenance": provenance_block(),
        "workload": report["workload"],
        "streams": report["streams"],
        "latency_ms": report["latency_ms"],
        "admission": report["admission"],
        "refits": report["refits"],
        "forecasts": report["forecasts"],
        "protocol_errors": report["protocol_errors"],
        "max_rss_mb": report["max_rss_mb"],
        "remediation": remediation,
    }
    write_bench_artifact(artifact_dir / "BENCH_service.json", payload)
    print()
    print(
        f"service: {report['streams']['registered']} streams, "
        f"p50 {report['latency_ms']['p50']:.3f} ms / "
        f"p99 {report['latency_ms']['p99']:.3f} ms, "
        f"{report['admission']['rejected_register']} rejected registers, "
        f"peak RSS {report['max_rss_mb']:.0f} MB; remediation "
        f"{remediation['from_family']} -> {remediation['to_family']} "
        f"(holdout SSE {remediation['stale_holdout_sse']:.4f} -> "
        f"{remediation['adopted_holdout_sse']:.4f})"
    )

    # 10k concurrent streams on one box with bounded memory.
    assert report["streams"]["registered"] == N_STREAMS
    assert report["max_rss_mb"] < 2048, (
        f"peak RSS {report['max_rss_mb']:.0f} MB is not 'bounded memory'"
    )
    # Admission is exact and the protocol never corrupts.
    admission = report["admission"]
    assert admission["rejected_register"] == admission["reject_probes"]
    assert report["protocol_errors"] == 0
    # The 429-retry loop around the first-fit cap converges.
    forecasts = report["forecasts"]
    assert forecasts["succeeded"] == forecasts["requested"]
    # The remediation loop heals the injected drifting stream.
    assert remediation["detected"] == 1 and remediation["reselected"] == 1
    assert remediation["to_family"] != remediation["from_family"]
    assert remediation["adopted_holdout_sse"] < remediation["stale_holdout_sse"]
