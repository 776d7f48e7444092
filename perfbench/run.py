"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
runs the workload twice, plain and with the layer wrappers of
``ledger.py`` installed, prints both sets of end-to-end numbers and
reports the per-layer metrics, the tracing overhead and the share of the
program's CPU time the named spans cover. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when a result was printed and 2 when the benchmark
could not run (then no result line is printed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BenchError,
    benchmark,
    WorkDir,
    emit,
    emit_result,
    load_config,
    percentile,
    steal_s,
    units,
    use_source_tree,
)
from layers import layer_metrics, totals  # noqa: E402
from ledger import Ledger, install  # noqa: E402
from offline import run_fleet, run_tables, typical  # noqa: E402
from serve import end_to_end, serve_run  # noqa: E402

#: Problems printed before the result line; the rest are counted.
MAX_PROBLEMS_SHOWN = 10


class Outcome(NamedTuple):
    """One workload run, reduced to what gets printed."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
def _report_serve(result: Any, label: str) -> None:
    parts = [(f"nominal {i}", part, "") for i, part in enumerate(result.nominal_parts)]
    rungs = [(f"rung {stats.rate:.0f}/s", stats, verdict) for stats, verdict in result.ladder]
    for name, stats, verdict in parts + rungs:
        emit(
            f"{label} {name:>14}: sent {stats.sent} (answered {stats.served_rate:.1f}/s) "
            f"p50 {stats.p50_ms:.3f} ms p99 {stats.p99_ms:.3f} ms "
            f"late_p99 {stats.late_p99_ms:.3f} ms failed {stats.failed} "
            f"fit_age {stats.fit_age_obs:.3f} steal {stats.steal_s:.2f} CPU-s "
            f"server CPU {stats.server_cpu_s / max(stats.sent, 1) * 1e3:.3f} ms/req"
            f"{' -> ' + verdict if verdict else ''}"
        )
    nominal = result.nominal
    emit(
        f"{label} setup_s samples {', '.join(f'{s:.3f}' for s in result.setup_s)}; "
        f"nominal: {len(nominal.latency_ms)} latency samples, p50 {nominal.p50_ms:.3f} ms, "
        f"p99 {nominal.p99_ms:.3f} ms, "
        f"fit_age_obs {nominal.fit_age_obs:.3f}; "
        + (f"max_rate_rps {result.max_rate:.1f}; " if result.ladder else "")
        + f"failed_share {result.failed / max(result.attempted, 1):.6f}"
    )
    _emit_end_to_end(label, end_to_end(result))


def _serve_layers(plain: Any, result: Any) -> dict[str, float]:
    """Span metrics of the traced run *result*; the client's view
    (latency, lateness, freshness, capacity) of the *plain* one."""
    data = result.ledger
    span = totals(data, result.window)
    metrics = layer_metrics(span, cold=totals(data))
    nominal = plain.nominal
    metrics.update(
        {
            "loadgen.p50_ms": nominal.p50_ms,
            "loadgen.p99_ms": nominal.p99_ms,
            "loadgen.late_p99_ms": nominal.late_p99_ms,
            "loadgen.fit_age_obs": nominal.fit_age_obs,
            "loadgen.failed_share": plain.failed / max(plain.attempted, 1),
            "loadgen.max_rate_rps": plain.max_rate,
            "server.handler_ms.p50": percentile(nominal.handler_ms, 50),
            "server.handler_ms.p99": percentile(nominal.handler_ms, 99),
            "server.wait_ms.p50": percentile(nominal.wait_ms, 50),
            "server.wait_ms.p99": percentile(nominal.wait_ms, 99),
            "server.refits_deferred": float(
                result.stats["server"].get("serve.refits_deferred", 0)
            ),
        }
    )
    # Request handlers run on the loop; the ticker's plan/adopt run on
    # the loop between requests and its solves on a worker thread.
    covered = (
        result.handler_s
        + span.busy["session.refit_plans"]
        + span.busy["session.adopt_refits"]
        + span.busy["session.execute_refits"]
    )
    metrics["trace.coverage"] = covered / result.cpu_s if result.cpu_s > 0 else 0.0
    shares = {
        "request path (handler)": result.handler_s,
        "session.execute_refits": span.busy["session.execute_refits"],
        "session.refit_plans": span.busy["session.refit_plans"],
        "session.adopt_refits": span.busy["session.adopt_refits"],
        "runtime.gc": sum(span.gc_pauses),
    }
    largest = max(shares, key=shares.__getitem__)
    emit(
        "layer shares of server time: "
        + ", ".join(f"{k} {v:.3f} s" for k, v in shares.items())
        + f"; largest: {largest}; execute_refits plans {metrics['session.execute_refits.plans']:g}"
    )
    return metrics


def run_serve_workload(workload: str, config: dict[str, Any], seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    if not trace:
        result = serve_run(
            config, seed, workdir, nominal_s=seconds, ladder_s=0.0,
            launches=int(config["setup_repeats"]), ledger=False, tag="run",
        )
        _report_serve(result, "untraced")
        return Outcome(end_to_end(result), result.attempted, result.failed, result.problems)
    # The plain run also climbs the rate ladder; the traced one does not.
    plain = serve_run(
        config, seed, workdir, nominal_s=seconds / 2, ladder_s=seconds / 2,
        launches=1, ledger=False, tag="plain",
    )
    _report_serve(plain, "untraced")
    traced = serve_run(
        config, seed, workdir, nominal_s=seconds / 2, ladder_s=0.0,
        launches=1, ledger=True, tag="traced",
    )
    _report_serve(traced, "traced")
    metrics = _serve_layers(plain, traced)
    metrics["trace.overhead_pct"] = _overhead(end_to_end(plain), end_to_end(traced))
    return Outcome(
        metrics,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        plain.problems + traced.problems,
    )


# ----------------------------------------------------------------------
# Offline workloads
# ----------------------------------------------------------------------
def _report_offline(result: Any, label: str) -> None:
    for note in result.notes:
        emit(f"{label} {note}")
    emit(
        f"{label} setup_s samples {', '.join(f'{s:.3f}' for s in result.setup_s)}; "
        f"round seconds {', '.join('+'.join(f'{s:.3f}' for s in parts) for parts in result.round_s)} "
        f"(typical {typical(result.round_s):.3f}); "
        f"failed_share {result.failed / max(result.attempted, 1):.6f}"
    )
    _emit_end_to_end(label, result.end_to_end())


def run_offline_workload(workload: str, config: dict[str, Any], seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    if workload == "fleet_fit":
        plain = run_fleet(config, seed, seconds, workdir / "plain")
    else:
        plain = run_tables(config, seconds, builds=1 if trace else None)
    _report_offline(plain, "untraced")
    if not trace:
        return Outcome(plain.end_to_end(), plain.attempted, plain.failed, plain.problems)
    if workload == "fleet_fit":
        ledger = Ledger()
        install(ledger)
        traced = run_fleet(config, seed, seconds, workdir / "traced", ledger=ledger)
    else:
        traced = run_tables(config, seconds, builds=1, trace=True)
    _report_offline(traced, "traced")
    metrics = dict(traced.layers or {})
    metrics["trace.overhead_pct"] = _overhead(plain.end_to_end(), traced.end_to_end())
    if workload == "paper_tables":
        metrics["experiments.tables_s"] = typical(plain.round_s)
    else:
        metrics["fleet.episodes_per_s"] = plain.ops_per_round / typical(plain.round_s)
        kernel = metrics["batched.busy_s"] + metrics["least_squares.scipy.busy_s"]
        emit(
            f"layer shares of fit_fleet: kernel+confirm {kernel:.3f} s of "
            f"{metrics['fleet.busy_s']:.3f} s "
            f"({kernel / max(metrics['fleet.busy_s'], 1e-9):.1%}); self {metrics['fleet.self_s']:.3f} s; "
            f"store {metrics['store.iter_chunks.busy_s']:.3f} s"
        )
    return Outcome(
        metrics,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        plain.problems + traced.problems,
    )


# ----------------------------------------------------------------------
# Shared
# ----------------------------------------------------------------------
def _overhead(plain: dict[str, float], traced: dict[str, float]) -> float:
    """Tracing overhead: extra CPU per operation, in percent of the
    untraced run's."""
    base = plain["cpu_ms_per_op"]
    return (traced["cpu_ms_per_op"] / base - 1.0) * 100.0 if base else 0.0


def _emit_end_to_end(label: str, metrics: dict[str, float]) -> None:
    emit(
        f"{label} end-to-end: "
        + ", ".join(f"{name} {metrics[name]:.4f} {unit}" for name, unit in units("end_to_end").items())
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    use_source_tree()
    config = load_config(workload)
    with WorkDir() as workdir:
        if workload.startswith("serve_"):
            return run_serve_workload(workload, config, seed, seconds, trace, workdir)
        return run_offline_workload(workload, config, seed, seconds, trace, workdir)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in benchmark()["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    steal0 = steal_s()
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(f"hypervisor steal during the run: {steal_s() - steal0:.2f} CPU-s")
    for problem in outcome.problems[:MAX_PROBLEMS_SHOWN]:
        emit(f"GATE FAILED: {problem}")
    if len(outcome.problems) > MAX_PROBLEMS_SHOWN:
        emit(f"GATE FAILED: ... and {len(outcome.problems) - MAX_PROBLEMS_SHOWN} more")
    emit(f"correctness gates: {'pass' if not outcome.problems else 'FAIL'}")
    declared = units("per_layer" if args.trace else "end_to_end")
    try:
        emit_result(not outcome.problems, outcome.attempted, outcome.failed, outcome.metrics, declared)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
