"""Built-in benchmark workloads: native smoke tier + script adapters.

Two kinds of workload register here on import (via
:func:`repro.bench.registry.load_builtin_workloads`):

``smoke.*`` (suites ``smoke`` + ``full``)
    Native re-measurements of the repo's headline performance claims at
    CI scale: each runs in seconds, reports deterministic counters
    (nfev/njev, span counts, CRCs, bit-identity flags) alongside its
    wall numbers, and honors the engine/executor axes carried by the
    :class:`~repro.bench.registry.BenchContext`.

``scripts.*`` (suites ``scripts`` + ``full``)
    Subprocess adapters that run each ``benchmarks/bench_*.py`` file
    under pytest with the matrix axes exported through
    :func:`repro._env.spawn_env`. The five artifact-emitting scripts
    additionally load their ``BENCH_*.json`` output, validate it
    against the schema, and report its headline metrics.

The ``smoke`` tier is the CI gate (``repro bench run --suite smoke``);
the ``scripts`` tier is the full offline matrix.
"""

from __future__ import annotations

import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro._env import spawn_env
from repro.bench.artifact import (
    _ARTIFACT_METRIC_PATHS,
    artifact_metrics,
    validate_artifact_file,
)
from repro.bench.registry import (
    BenchContext,
    MetricSpec,
    Workload,
    register_workload,
)
from repro.exceptions import BenchError
from repro.fitting.options import EngineOptions

__all__ = [
    "ARTIFACT_SCRIPTS",
    "BENCH_SCRIPTS",
    "SMOKE_SEED",
]

#: Seed shared by every native smoke workload (the fleet paper seed).
SMOKE_SEED = 20220926

#: Every benchmark script under ``benchmarks/``; the registry coverage
#: test asserts this list matches the files on disk exactly.
BENCH_SCRIPTS: tuple[str, ...] = (
    "bench_ablation_multistart.py",
    "bench_ablation_shapes.py",
    "bench_ablation_train_fraction.py",
    "bench_ablation_trends.py",
    "bench_extension_failure_shapes.py",
    "bench_fig1_concept.py",
    "bench_fig2_recessions.py",
    "bench_fig3_quadratic_fit.py",
    "bench_fig4_competing_risks_fit.py",
    "bench_fig5_weiexp_fit.py",
    "bench_fig6_mixture_fits.py",
    "bench_fleet.py",
    "bench_perf_fit_engine.py",
    "bench_robustness_reconstruction.py",
    "bench_service.py",
    "bench_serving.py",
    "bench_table1_bathtub.py",
    "bench_table2_bathtub_metrics.py",
    "bench_table3_mixtures.py",
    "bench_table4_mixture_metrics.py",
    "bench_trace_overhead.py",
)

#: Scripts that emit ``BENCH_*.json`` artifacts, and which ones.
ARTIFACT_SCRIPTS: dict[str, tuple[str, ...]] = {
    "bench_perf_fit_engine.py": ("BENCH_fit_engine.json", "BENCH_jacobian.json"),
    "bench_fleet.py": ("BENCH_fleet.json",),
    "bench_service.py": ("BENCH_service.json",),
    "bench_serving.py": ("BENCH_serving.json",),
    "bench_trace_overhead.py": ("BENCH_trace.json",),
}

#: Better-direction for the wall metrics extracted from artifacts.
_HIGHER_IS_BETTER = frozenset(
    {
        "engine_speedup",
        "auc_kernel_speedup",
        "fleet_speedup",
        "episodes_per_sec",
        "warm_speedup_p50",
        "requests_per_sec",
    }
)


def _smoke_options(ctx: BenchContext, **overrides: object) -> EngineOptions:
    """The context's axes with the smoke tier's cost caps applied."""
    settings: dict[str, object] = {
        "cache": False,
        "trace": False,
        "n_random_starts": 2,
        "seed": SMOKE_SEED,
        "executor": "serial",
    }
    settings.update(overrides)
    return ctx.options.override(**settings)


# ----------------------------------------------------------------------
# Native smoke workloads
# ----------------------------------------------------------------------
def _run_fit_engine(ctx: BenchContext) -> Mapping[str, float]:
    from repro.datasets.recessions import load_recession
    from repro.fitting.least_squares import fit_least_squares
    from repro.models.registry import make_model

    curve = load_recession("1990-93")
    family = make_model("wei-exp")
    fits = {}
    seconds = {}
    for engine in ("scipy", "batched"):
        options = _smoke_options(ctx, engine=engine)
        start = time.perf_counter()
        fits[engine] = fit_least_squares(family, curve, options=options)
        seconds[engine] = time.perf_counter() - start
    scipy_fit, batched_fit = fits["scipy"], fits["batched"]
    identical = (
        scipy_fit.model.params == batched_fit.model.params
        and scipy_fit.sse == batched_fit.sse
    )
    return {
        "scipy_nfev": scipy_fit.details["nfev"],
        "scipy_njev": scipy_fit.details["njev"],
        "batched_nfev": batched_fit.details["nfev"],
        "batched_njev": batched_fit.details["njev"],
        "params_bit_identical": int(identical),
        "scipy_seconds": seconds["scipy"],
        "batched_seconds": seconds["batched"],
        "engine_speedup": seconds["scipy"] / seconds["batched"],
    }


def _run_kernels(ctx: BenchContext) -> Mapping[str, float]:
    from scipy import optimize

    from repro.datasets.recessions import load_recession
    from repro.fitting.least_squares import fit_least_squares
    from repro.models.base import ResilienceModel
    from repro.models.registry import make_model
    from repro.utils.integrate import adaptive_quad

    curve = load_recession("1990-93")
    fit = fit_least_squares(
        make_model("wei-exp"), curve, options=_smoke_options(ctx)
    )
    model = fit.model
    horizon = 60.0

    def scalar_predict(t: float) -> float:
        return float(model.predict(np.array([t]))[0])

    def scalar_area() -> float:
        return adaptive_quad(scalar_predict, 0.0, horizon)

    def scalar_minimum() -> tuple[float, float]:
        grid = np.linspace(0.0, horizon, 2001)
        values = model.predict(grid)
        arg = int(np.argmin(values))
        lo = float(grid[max(arg - 1, 0)])
        hi = float(grid[min(arg + 1, grid.size - 1)])
        if lo == hi:
            return float(grid[arg]), float(values[arg])
        result = optimize.minimize_scalar(
            scalar_predict, bounds=(lo, hi), method="bounded"
        )
        return float(result.x), float(result.fun)

    def best_of(repeats: int, func: Callable[[], Any]) -> tuple[float, Any]:
        best = float("inf")
        value: Any = None
        for _ in range(repeats):
            start = time.perf_counter()
            value = func()
            best = min(best, time.perf_counter() - start)
        return best, value

    scalar_auc_s, scalar_auc = best_of(3, scalar_area)
    vector_auc_s, vector_auc = best_of(
        3, lambda: ResilienceModel.area_under_curve(model, 0.0, horizon)
    )
    scalar_min_s, scalar_min = best_of(3, scalar_minimum)
    vector_min_s, vector_min = best_of(
        3, lambda: ResilienceModel.minimum(model, horizon)
    )
    return {
        "auc_match": int(abs(vector_auc - scalar_auc) < 1e-6),
        "minimum_match": int(abs(vector_min[1] - scalar_min[1]) < 1e-8),
        "auc_speedup": scalar_auc_s / vector_auc_s,
        "minimum_speedup": scalar_min_s / vector_min_s,
    }


def _run_fleet(ctx: BenchContext) -> Mapping[str, float]:
    from repro.datasets.outage import generate_fleet
    from repro.fitting.fleet import FleetFitResult, fit_fleet

    root = ctx.workdir / "smoke_fleet"
    store = generate_fleet(
        64, root, seed=SMOKE_SEED, chunk_size=32, overwrite=True
    )
    families = ("quadratic", "competing_risks")

    def fit(**overrides: object) -> FleetFitResult:
        return fit_fleet(
            store,
            families,
            options=_smoke_options(ctx, **overrides),
            chunk_size=32,
        )

    result = fit()
    # The scipy engine is the oracle: the batched screen must pick the
    # same cell results on the same store (the context's own fit is
    # reused for whichever engine it ran).
    oracle, screened = (
        result if result.engine == engine else fit(engine=engine)
        for engine in ("scipy", "batched")
    )
    mismatched = 0
    for family in families:
        same = (
            np.all(
                _same_or_both_nan(oracle.params[family], screened.params[family]),
                axis=1,
            )
            & _same_or_both_nan(oracle.sse[family], screened.sse[family])
            & (oracle.winner_start[family] == screened.winner_start[family])
            & (oracle.converged[family] == screened.converged[family])
        )
        mismatched += int(np.count_nonzero(~same))
    return {
        "n_episodes": result.n_episodes,
        "failed_cells": sum(
            int(result.failed[family].sum()) for family in result.families
        ),
        "total_nfev": sum(
            int(result.nfev[family].sum()) for family in result.families
        ),
        "fit_seconds": result.seconds,
        "episodes_per_sec": result.episodes_per_sec,
        "engine_mismatched_cells": mismatched,
    }


def _same_or_both_nan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise equality that treats two NaNs (failed cells) as equal."""
    return (a == b) | (np.isnan(a) & np.isnan(b))


def _run_serving(ctx: BenchContext) -> Mapping[str, float]:
    from repro.datasets.recessions import load_recession
    from repro.datasets.stream import iter_curve
    from repro.fitting.cache import FitCache
    from repro.fitting.least_squares import fit_least_squares
    from repro.models.registry import make_model
    from repro.serving import OnlineForecaster, RefitPolicy

    curve = load_recession("1990-93")
    options = _smoke_options(ctx, cache=FitCache())
    forecaster = OnlineForecaster(
        "wei-exp",
        options=options,
        policy=RefitPolicy(every_k=1),
        key="bench-smoke",
    )
    warm_seconds: list[float] = []
    for event in iter_curve(curve):
        forecaster.observe(event.time, event.performance)
        if not forecaster.ready:
            continue
        had_fit = forecaster.fit is not None
        start = time.perf_counter()
        forecaster.refit()
        if had_fit:
            warm_seconds.append(time.perf_counter() - start)
    final = forecaster.finalize()
    oneshot = fit_least_squares(
        make_model("wei-exp"), curve, options=options.override(cache=False)
    )
    identical = (
        final.model.params == oneshot.model.params and final.sse == oneshot.sse
    )
    stats = dict(forecaster.stats)
    warm = np.asarray(warm_seconds, dtype=np.float64)
    return {
        "refits_warm": stats["refits_warm"],
        "finalize_bit_identical": int(identical),
        "n_observations": forecaster.n_observations,
        "warm_p50_ms": float(np.percentile(warm, 50) * 1e3),
    }


def _run_serving_load(ctx: BenchContext) -> Mapping[str, float]:
    from repro.serving.loadgen import run_load_sync
    from repro.serving.server import ServerConfig

    config = ServerConfig(
        options=_smoke_options(ctx),
        family="quadratic",
        refit_interval=0.05,
        refit_every_k=4,
    )
    report = run_load_sync(
        config=config,
        n_streams=200,
        observations=8,
        obs_batch=4,
        connections=4,
        forecast_streams=8,
        reject_probes=8,
        seed=SMOKE_SEED,
        settle_seconds=0.2,
        workdir=ctx.workdir / "smoke_serving_load",
    )
    return {
        "streams_registered": report["streams"]["registered"],
        "rejected_register": report["admission"]["rejected_register"],
        "protocol_errors": report["protocol_errors"],
        "forecasts_succeeded": report["forecasts"]["succeeded"],
        "requests_per_sec": report["workload"]["requests_per_sec"],
        "request_p99_ms": report["latency_ms"]["p99"],
    }


def _run_trace(ctx: BenchContext) -> Mapping[str, float]:
    from repro.datasets.recessions import load_recession
    from repro.fitting.least_squares import fit_least_squares
    from repro.models.registry import make_model
    from repro.observability.tracer import Tracer, current_tracer, resolve_tracer

    tracer = Tracer()
    fit_least_squares(
        make_model("wei-exp"),
        load_recession("1990-93"),
        options=_smoke_options(ctx, trace=tracer),
    )
    spans = tracer.spans
    n_fit_spans = sum(1 for span in spans if span["name"] == "fit")

    null_ops = 20_000
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(null_ops):
            if resolve_tracer(None).enabled:
                raise BenchError("tracing unexpectedly enabled during bench")
            current_tracer()
        best = min(best, time.perf_counter() - start)
    return {
        "n_fit_spans": n_fit_spans,
        "n_spans": len(spans),
        "null_path_us_per_op": best / null_ops * 1e6,
    }


def _run_table3(ctx: BenchContext) -> Mapping[str, float]:
    from repro.analysis.experiments import table3

    start = time.perf_counter()
    result = table3(options=_smoke_options(ctx))
    seconds = time.perf_counter() - start
    total_nfev = 0
    total_njev = 0
    for cells in result.cells.values():
        for evaluation in cells.values():
            total_nfev += evaluation.fit.details["nfev"]
            total_njev += evaluation.fit.details["njev"]
    return {
        "table_crc32": zlib.crc32(result.to_table().encode("utf-8")),
        "total_nfev": total_nfev,
        "total_njev": total_njev,
        "table3_seconds": seconds,
    }


register_workload(
    Workload(
        name="smoke.fit_engine",
        runner=_run_fit_engine,
        metrics=(
            MetricSpec("scipy_nfev", kind="counted"),
            MetricSpec("scipy_njev", kind="counted"),
            MetricSpec("batched_nfev", kind="counted"),
            MetricSpec("batched_njev", kind="counted"),
            MetricSpec("params_bit_identical", kind="counted"),
            MetricSpec("scipy_seconds", direction="lower"),
            MetricSpec("batched_seconds", direction="lower"),
            MetricSpec("engine_speedup", direction="higher"),
        ),
        suites=("smoke", "full"),
        description="wei-exp multi-start fit on 1990-93: scipy vs batched "
        "engine, bit-identity + evaluation counters",
    )
)
register_workload(
    Workload(
        name="smoke.kernels",
        runner=_run_kernels,
        metrics=(
            MetricSpec("auc_match", kind="counted"),
            MetricSpec("minimum_match", kind="counted"),
            MetricSpec("auc_speedup", direction="higher"),
            MetricSpec("minimum_speedup", direction="higher"),
        ),
        suites=("smoke", "full"),
        description="vectorized derived-quantity kernels vs scalar "
        "references on a fitted mixture",
    )
)
register_workload(
    Workload(
        name="smoke.fleet",
        runner=_run_fleet,
        metrics=(
            MetricSpec("n_episodes", kind="counted"),
            MetricSpec("failed_cells", kind="counted"),
            MetricSpec("total_nfev", kind="counted"),
            MetricSpec("fit_seconds", direction="lower"),
            MetricSpec("episodes_per_sec", direction="higher"),
            MetricSpec("engine_mismatched_cells", kind="counted"),
        ),
        suites=("smoke", "full"),
        description="64-episode synthetic outage fleet through fit_fleet "
        "on a 2-family grid, plus scipy-vs-batched cell agreement",
    )
)
register_workload(
    Workload(
        name="smoke.serving",
        runner=_run_serving,
        metrics=(
            MetricSpec("refits_warm", kind="counted"),
            MetricSpec("finalize_bit_identical", kind="counted"),
            MetricSpec("n_observations", kind="counted"),
            MetricSpec("warm_p50_ms", direction="lower"),
        ),
        suites=("smoke", "full"),
        description="1990-93 replay through OnlineForecaster: warm refit "
        "latency + finalize bit-identity",
    )
)
register_workload(
    Workload(
        name="smoke.serving_load",
        runner=_run_serving_load,
        metrics=(
            MetricSpec("streams_registered", kind="counted"),
            MetricSpec("rejected_register", kind="counted"),
            MetricSpec("protocol_errors", kind="counted"),
            MetricSpec("forecasts_succeeded", kind="info"),
            MetricSpec("requests_per_sec", direction="higher"),
            MetricSpec("request_p99_ms", direction="lower"),
        ),
        suites=("smoke", "full"),
        description="200-stream synthetic outage fleet through the asyncio "
        "JSONL server: admission arithmetic + request SLO",
    )
)
register_workload(
    Workload(
        name="smoke.trace",
        runner=_run_trace,
        metrics=(
            MetricSpec("n_fit_spans", kind="counted"),
            MetricSpec("n_spans", kind="info"),
            MetricSpec("null_path_us_per_op", direction="lower"),
        ),
        suites=("smoke", "full"),
        description="span attribution of one traced fit + disabled "
        "instrumentation null-path cost",
    )
)
register_workload(
    Workload(
        name="smoke.table3",
        runner=_run_table3,
        metrics=(
            MetricSpec("table_crc32", kind="counted"),
            MetricSpec("total_nfev", kind="counted"),
            MetricSpec("total_njev", kind="counted"),
            MetricSpec("table3_seconds", direction="lower"),
        ),
        suites=("smoke", "full"),
        description="Table III mixture sweep at 2 starts: rendered-table "
        "CRC + summed evaluation counters",
    )
)


# ----------------------------------------------------------------------
# Script adapters
# ----------------------------------------------------------------------
def _repo_root() -> Path:
    """The repository root, located from this installed module."""
    root = Path(__file__).resolve().parents[3]
    if not (root / "benchmarks").is_dir():
        raise BenchError(
            "script workloads need the repository checkout; "
            f"no benchmarks/ directory above {Path(__file__).resolve()}"
        )
    return root


def _run_script(ctx: BenchContext, script: str) -> Mapping[str, float]:
    """Run one ``benchmarks/`` script under pytest in a subprocess."""
    root = _repo_root()
    path = root / "benchmarks" / script
    if not path.is_file():
        raise BenchError(f"benchmark script {path} does not exist")
    overrides: dict[str, str | None] = {}
    if isinstance(ctx.options.engine, str):
        overrides["REPRO_FIT_ENGINE"] = ctx.options.engine
    if isinstance(ctx.options.executor, str):
        overrides["REPRO_FIT_EXECUTOR"] = ctx.options.executor
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(path),
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        cwd=root,
        env=spawn_env(**overrides),
        capture_output=True,
        text=True,
        check=False,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        tail = "\n".join(proc.stdout.splitlines()[-25:])
        raise BenchError(
            f"benchmark script {script} failed (exit {proc.returncode}):\n{tail}"
        )
    metrics: dict[str, float] = {"passed": 1, "wall_seconds": seconds}
    for artifact_name in ARTIFACT_SCRIPTS.get(script, ()):
        payload = validate_artifact_file(
            root / "benchmarks" / "output" / artifact_name
        )
        groups = artifact_metrics(artifact_name, payload)
        metrics.update(groups["counted"])
        metrics.update(groups["wall"])
    return metrics


def _script_metrics(script: str) -> tuple[MetricSpec, ...]:
    """Declared metrics of a script adapter: pass/wall plus the headline
    metrics of any artifact the script emits."""
    specs = [
        MetricSpec("passed", kind="counted"),
        MetricSpec("wall_seconds", direction="lower"),
    ]
    for artifact_name in ARTIFACT_SCRIPTS.get(script, ()):
        for _, metric, kind in _ARTIFACT_METRIC_PATHS[artifact_name]:
            direction = "higher" if metric in _HIGHER_IS_BETTER else "lower"
            specs.append(MetricSpec(metric, kind=kind, direction=direction))
        if artifact_name == "BENCH_serving.json":
            specs.append(MetricSpec("finalize_bit_identical", kind="counted"))
    return tuple(specs)


def _make_script_runner(
    script: str,
) -> Callable[[BenchContext], Mapping[str, float]]:
    def runner(ctx: BenchContext) -> Mapping[str, float]:
        return _run_script(ctx, script)

    return runner


for _script in BENCH_SCRIPTS:
    register_workload(
        Workload(
            name=f"scripts.{_script[len('bench_'):-len('.py')]}",
            runner=_make_script_runner(_script),
            metrics=_script_metrics(_script),
            suites=("scripts", "full"),
            script=_script,
            description=f"benchmarks/{_script} under pytest in a subprocess",
        )
    )
