"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the bundled recession datasets with shape labels.
``fit``
    Fit one model to one dataset (or a CSV file) and print the fit,
    measures, and predicted recovery time.
``recommend``
    Classify a curve's shape, fit the candidate model set (including
    shape-gated extensions), and recommend the best model.
``table``
    Regenerate one of the paper's tables (I, II, III, IV).
``figure``
    Regenerate one of the paper's figures (1-6) as an ASCII chart.
``report``
    Regenerate everything.
``serve-replay``
    Replay datasets as a live stream through the online forecast
    service, emitting one JSON line per forecast update.
``make-fleet``
    Generate a labeled synthetic outage fleet into a columnar episode
    store (``repro.datasets.outage`` / ``repro.datasets.store``).
``fit-fleet``
    Fit the model grid to every episode of a store with the
    cross-episode batched engine and print a JSON summary.
``lint``
    Run the project-invariant linter (``repro.devtools.lint``) over
    the tree; see ``docs/static-analysis.md``.
``bench``
    Benchmark matrix runner and baseline gate (``repro.bench``); see
    ``docs/benchmarks.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from repro.analysis import experiments
from repro.analysis.pipeline import run_full_reproduction
from repro.analysis.report import render_report
from repro.core.shapes import classify_shape
from repro.datasets.loader import curve_from_csv
from repro.datasets.recessions import (
    RECESSION_NAMES,
    load_recession,
    recession_shape_label,
)
from repro.exceptions import DataError, ReproError
from repro.fitting.batched import ENGINE_NAMES
from repro.metrics.predictive import predictive_metric_report
from repro.models.registry import available_models, make_model
from repro.parallel import available_backends
from repro.utils.tables import format_table
from repro.validation.crossval import evaluate_predictive

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from typing import Iterator

    from repro.core.curve import ResilienceCurve
    from repro.datasets.stream import StreamEvent
    from repro.fitting.options import EngineOptions
    from repro.observability.tracer import Tracer
    from repro.serving.server import ServerConfig

__all__ = ["main", "build_parser"]


def _add_executor_arguments(command: argparse.ArgumentParser) -> None:
    """Attach the shared parallel-backend knobs to a subcommand."""
    command.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default=None,
        help=(
            "fit solver engine (default: $REPRO_FIT_ENGINE or scipy); "
            "'batched' screens all multi-start candidates in one "
            "vectorized solve and produces identical results"
        ),
    )
    command.add_argument(
        "--executor",
        choices=available_backends(),
        default=None,
        help=(
            "backend the independent fits run on (default: "
            "$REPRO_FIT_EXECUTOR or serial); results are identical on "
            "every backend"
        ),
    )
    command.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for thread/process backends "
        "(default: $REPRO_FIT_WORKERS or the CPU count)",
    )
    command.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "memoize fits in the content-addressed cache (default: "
            "governed by $REPRO_FIT_CACHE); --no-cache re-solves "
            "everything"
        ),
    )
    command.add_argument(
        "--trace",
        action="store_true",
        help=(
            "trace every fit (spans with nfev/cache attribution) and "
            "print an end-of-run summary table to stderr (default: "
            "governed by $REPRO_TRACE)"
        ),
    )
    command.add_argument(
        "--trace-file",
        metavar="PATH",
        default=None,
        help=(
            "also stream each span as one JSON line to PATH (implies "
            "--trace; default: $REPRO_TRACE_FILE)"
        ),
    )
    command.add_argument(
        "--options-file",
        metavar="PATH",
        default=None,
        help=(
            "JSON file of EngineOptions fields (EngineOptions.to_json "
            "format); explicit flags override its entries"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Predictive resilience modeling (Silva et al., RWS 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list bundled recession datasets")

    fit = sub.add_parser("fit", help="fit a model to a dataset")
    fit.add_argument(
        "model",
        help=f"model name, e.g. one of {', '.join(available_models())}",
    )
    fit.add_argument(
        "dataset",
        help="recession name (e.g. 1990-93) or path to a time,performance CSV",
    )
    fit.add_argument(
        "--train-fraction",
        type=float,
        default=0.9,
        help="fraction of the curve used for fitting (default 0.9)",
    )
    fit.add_argument(
        "--metrics",
        action="store_true",
        help="also print the eight interval-based resilience metrics",
    )
    _add_executor_arguments(fit)

    recommend = sub.add_parser(
        "recommend", help="recommend the best model for a dataset"
    )
    recommend.add_argument(
        "dataset",
        help="recession name (e.g. 1980) or path to a time,performance CSV",
    )
    recommend.add_argument(
        "--criterion",
        default="aic",
        choices=["aic", "bic", "pmse", "sse", "r2_adjusted"],
        help="ranking criterion (default aic)",
    )
    recommend.add_argument(
        "--no-shape-gate",
        action="store_true",
        help="do not add shape-specific extension models",
    )

    card = sub.add_parser(
        "card", help="one-page resilience report card for a dataset"
    )
    card.add_argument(
        "dataset",
        help="recession name (e.g. 1990-93) or path to a time,performance CSV",
    )

    episodes = sub.add_parser(
        "episodes", help="segment a history into episodes and print a scorecard"
    )
    episodes.add_argument(
        "dataset",
        help="recession name or path to a time,performance CSV history",
    )
    episodes.add_argument(
        "--tolerance",
        type=float,
        default=0.01,
        help="relative nominal band defining degradation (default 0.01)",
    )
    episodes.add_argument(
        "--model",
        default="competing_risks",
        help="model fitted to each episode (default competing_risks)",
    )
    _add_executor_arguments(episodes)

    serve = sub.add_parser(
        "serve-replay",
        help="replay datasets as a stream and emit JSONL forecast updates",
    )
    serve.add_argument(
        "datasets",
        nargs="*",
        metavar="DATASET",
        help=(
            "recession names and/or time,performance CSV paths to replay "
            "(default: all seven recessions)"
        ),
    )
    serve.add_argument(
        "--model",
        default="competing_risks",
        help="incumbent model family (default competing_risks)",
    )
    serve.add_argument(
        "--horizon",
        type=float,
        default=12.0,
        help="forecast horizon in stream time units (default 12)",
    )
    serve.add_argument(
        "--every",
        type=int,
        default=1,
        metavar="K",
        help="emit an update every K observations per stream (default 1)",
    )
    serve.add_argument(
        "--points",
        type=int,
        default=10,
        metavar="N",
        help="grid points per emitted forecast trajectory (default 10)",
    )
    serve.add_argument(
        "--refit-every",
        type=int,
        default=1,
        metavar="K",
        help="refit once K unfitted observations accumulate (default 1)",
    )
    serve.add_argument(
        "--sse-drift",
        type=float,
        default=None,
        metavar="D",
        help=(
            "also refit when the incumbent's per-point SSE drifts by more "
            "than this relative amount (default: off)"
        ),
    )
    serve.add_argument(
        "--no-interleave",
        action="store_true",
        help="play streams back to back instead of merged in time order",
    )
    serve.add_argument(
        "--no-finalize",
        action="store_true",
        help="skip the end-of-stream cold fit (the bit-identity check)",
    )
    serve.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the JSONL to PATH instead of stdout",
    )
    _add_executor_arguments(serve)

    server = sub.add_parser(
        "serve",
        help="run the asyncio JSONL-over-TCP forecast server until interrupted",
    )
    server.add_argument(
        "--host",
        default=None,
        help="bind address (default: $REPRO_SERVE_HOST or 127.0.0.1)",
    )
    server.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port, 0 picks a free one (default: $REPRO_SERVE_PORT or 0)",
    )
    server.add_argument(
        "--max-streams",
        type=int,
        default=None,
        metavar="N",
        help=(
            "admission cap on concurrently registered streams "
            "(default: $REPRO_SERVE_MAX_STREAMS or 10000)"
        ),
    )
    server.add_argument(
        "--family",
        default=None,
        help="model family for new streams (default competing_risks)",
    )
    server.add_argument(
        "--refit-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "cadence of the batched refit ticker "
            "(default: $REPRO_SERVE_REFIT_INTERVAL or 0.25)"
        ),
    )
    server.add_argument(
        "--refit-every",
        type=int,
        default=None,
        metavar="K",
        help="per-stream refit policy: refit once K observations accumulate",
    )
    server.add_argument(
        "--remediation-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cadence of the auto-remediation loop (default: off)",
    )
    _add_executor_arguments(server)

    serve_load = sub.add_parser(
        "serve-load",
        help="self-host a forecast server and drive the synthetic load harness",
    )
    serve_load.add_argument(
        "--streams",
        type=int,
        default=50,
        metavar="N",
        help="concurrently registered streams to sustain (default 50)",
    )
    serve_load.add_argument(
        "--observations",
        type=int,
        default=8,
        metavar="N",
        help="observations per stream (default 8)",
    )
    serve_load.add_argument(
        "--connections",
        type=int,
        default=4,
        metavar="N",
        help="pipelined client connections (default 4)",
    )
    serve_load.add_argument(
        "--forecasts",
        type=int,
        default=8,
        metavar="N",
        help="streams to probe with forecast requests (default 8)",
    )
    serve_load.add_argument(
        "--probes",
        type=int,
        default=8,
        metavar="N",
        help="extra registers sent into the full fleet; each must 429 "
        "(default 8)",
    )
    serve_load.add_argument(
        "--settle",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="pause between fill and probe phases (default 0.2)",
    )
    serve_load.add_argument(
        "--seed",
        type=int,
        default=0,
        help="outage-fleet generator seed (default 0)",
    )
    serve_load.add_argument(
        "--family",
        default="quadratic",
        help="model family for the load run (default quadratic)",
    )
    _add_executor_arguments(serve_load)

    make_fleet = sub.add_parser(
        "make-fleet",
        help="generate a synthetic outage fleet into a columnar store",
    )
    make_fleet.add_argument(
        "root", help="directory the episode store is written to"
    )
    make_fleet.add_argument(
        "--episodes",
        type=int,
        default=2048,
        metavar="N",
        help="fleet size (default 2048)",
    )
    make_fleet.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="LABEL",
        help="scenario templates to mix equally (default: V U W L K)",
    )
    make_fleet.add_argument(
        "--seed", type=int, default=None, help="base seed (default: library seed)"
    )
    make_fleet.add_argument(
        "--points",
        type=int,
        default=48,
        metavar="N",
        help="observation-grid size per episode (default 48)",
    )
    make_fleet.add_argument(
        "--ragged",
        default=None,
        metavar="N1,N2,...",
        help="comma-separated grid sizes each episode draws from "
        "(overrides --points)",
    )
    make_fleet.add_argument(
        "--noise",
        type=float,
        default=0.001,
        metavar="STD",
        help="Gaussian measurement noise (default 0.001)",
    )
    make_fleet.add_argument(
        "--chunk-size",
        type=int,
        default=2048,
        metavar="N",
        help="episodes generated per write chunk (default 2048)",
    )
    make_fleet.add_argument(
        "--overwrite",
        action="store_true",
        help="replace an existing store at the target directory",
    )

    fit_fleet = sub.add_parser(
        "fit-fleet",
        help="fit the model grid to every episode of a store",
    )
    fit_fleet.add_argument("store", help="episode-store directory to fit")
    fit_fleet.add_argument(
        "--families",
        nargs="+",
        default=None,
        metavar="MODEL",
        help="model grid (default: quadratic competing_risks)",
    )
    fit_fleet.add_argument(
        "--chunk-size",
        type=int,
        default=1024,
        metavar="N",
        help="episodes per batched solve; bounds peak memory (default 1024)",
    )
    fit_fleet.add_argument(
        "--length-bucket",
        type=int,
        default=8,
        metavar="N",
        help="pad episode lengths up to a multiple of N per chunk (default 8)",
    )
    fit_fleet.add_argument(
        "--no-confirm",
        action="store_true",
        help="skip the bit-identity confirmation re-solve and report the "
        "screened optima (~1e-8 SSE agreement, faster)",
    )
    fit_fleet.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the JSON summary to PATH instead of stdout",
    )
    _add_executor_arguments(fit_fleet)

    table = sub.add_parser("table", help="regenerate a table from the paper")
    table.add_argument("number", choices=["1", "2", "3", "4", "I", "II", "III", "IV"])
    table.add_argument(
        "--csv", metavar="PATH", help="also write the table rows as CSV"
    )
    table.add_argument(
        "--json", metavar="PATH", help="also write the table rows as JSON"
    )
    _add_executor_arguments(table)

    figure = sub.add_parser("figure", help="regenerate a figure from the paper")
    figure.add_argument("number", type=int, choices=range(1, 7))

    report = sub.add_parser("report", help="regenerate every table and figure")
    _add_executor_arguments(report)

    lint = sub.add_parser(
        "lint",
        help="run the project-invariant linter (repro.devtools.lint)",
        add_help=False,
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.devtools.lint (try --help)",
    )

    bench = sub.add_parser(
        "bench",
        help="benchmark matrix runner and baseline gate (repro.bench)",
        add_help=False,
    )
    bench.add_argument(
        "bench_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.bench.cli (try --help)",
    )
    return parser


def _load_curve(dataset: str) -> "ResilienceCurve":
    if dataset in RECESSION_NAMES:
        return load_recession(dataset)
    return curve_from_csv(dataset)


def _engine_options(args: argparse.Namespace) -> "EngineOptions":
    """One :class:`EngineOptions` bundle from the shared CLI flags.

    ``--options-file`` (when given) supplies the base bundle; every
    explicit flag overrides the corresponding field.
    """
    from repro.fitting.options import EngineOptions

    if getattr(args, "options_file", None):
        try:
            with open(args.options_file, "r", encoding="utf-8") as handle:
                base = EngineOptions.from_json(handle.read())
        except (OSError, ValueError) as exc:
            raise DataError(f"--options-file {args.options_file}: {exc}") from exc
    else:
        base = EngineOptions()
    return base.override(
        engine=getattr(args, "engine", None),
        cache=getattr(args, "cache", None),
        trace=args.tracer,
        executor=getattr(args, "executor", None),
        n_workers=getattr(args, "workers", None),
    )


def _build_tracer(args: argparse.Namespace) -> "Tracer | None":
    """Resolve ``--trace``/``--trace-file`` to a tracer (or ``None``).

    ``None`` keeps the environment-variable defaults in charge
    downstream, so ``REPRO_TRACE=1 repro table 3`` still traces even
    without the flag.
    """
    from repro.observability.tracer import Tracer

    trace_file = getattr(args, "trace_file", None)
    if getattr(args, "trace", False) or trace_file:
        return Tracer(path=trace_file)
    return None


def _cmd_datasets() -> int:
    rows = []
    for name in RECESSION_NAMES:
        curve = load_recession(name)
        rows.append(
            [
                name,
                len(curve),
                recession_shape_label(name),
                str(classify_shape(curve)),
                curve.min_performance,
                curve.final_performance,
            ]
        )
    print(
        format_table(
            ["Recession", "n", "Paper shape", "Classifier", "Min", "Final"],
            rows,
            title="Bundled U.S. recession datasets (normalized payroll index)",
            float_digits=4,
        )
    )
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    curve = _load_curve(args.dataset)
    family = make_model(args.model)
    evaluation = evaluate_predictive(
        family,
        curve,
        train_fraction=args.train_fraction,
        options=_engine_options(args),
    )
    measures = evaluation.measures
    print(f"Fitted {family.name} to {curve.name} (n={len(curve)}):")
    for key, value in evaluation.model.param_dict.items():
        print(f"  {key:12s} = {value:.8g}")
    print(f"  SSE   = {measures.sse:.8f}")
    print(f"  PMSE  = {measures.pmse:.8f}")
    print(f"  r2adj = {measures.r2_adjusted:.6f}")
    print(f"  EC    = {measures.empirical_coverage:.2%}")
    try:
        recovery = evaluation.model.recovery_time(curve.nominal)
        print(f"  predicted recovery to nominal at t = {recovery:.2f}")
    except ValueError as exc:
        print(f"  predicted recovery: {exc}")
    if args.metrics:
        report = predictive_metric_report(
            evaluation.model, curve, evaluation.split_time
        )
        print()
        print(report.to_table())
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from repro.validation.selection import recommend_model

    curve = _load_curve(args.dataset)
    recommendation = recommend_model(
        curve, criterion=args.criterion, shape_gate=not args.no_shape_gate
    )
    if recommendation.shape is not None:
        print(f"Classified shape: {recommendation.shape}")
    rows = [
        [name, score, recommendation.evaluations[name].measures.r2_adjusted]
        for name, score in recommendation.scores.items()
    ]
    print(
        format_table(
            ["Model", args.criterion.upper(), "r2_adj"],
            rows,
            title=f"Candidates on {curve.name or args.dataset} (best first)",
            float_digits=6,
        )
    )
    if recommendation.failed:
        print(f"failed to converge: {', '.join(recommendation.failed)}")
    print(f"Recommended model: {recommendation.best_name}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    number = args.number
    key = {"1": "1", "I": "1", "2": "2", "II": "2", "3": "3", "III": "3", "4": "4", "IV": "4"}[number]
    builders = {
        "1": experiments.table1,
        "2": experiments.table2,
        "3": experiments.table3,
        "4": experiments.table4,
    }
    result = builders[key](options=_engine_options(args))
    print(result.to_table())
    if args.csv:
        from repro.analysis.export import write_table_csv

        print(f"wrote {write_table_csv(result, args.csv)}")
    if args.json:
        from repro.analysis.export import write_table_json

        print(f"wrote {write_table_json(result, args.json)}")
    return 0


def _cmd_serve_replay(args: argparse.Namespace) -> int:
    import json

    from repro.datasets.stream import interleave_streams, iter_curve
    from repro.serving import RefitPolicy, replay_forecasts

    names = list(args.datasets) or list(RECESSION_NAMES)
    streams = {}
    for name in names:
        curve = _load_curve(name)
        key = curve.name or name
        streams[key] = iter_curve(curve, key=key)
    if args.no_interleave:
        def _sequential() -> "Iterator[StreamEvent]":
            for stream in streams.values():
                yield from stream

        events = _sequential()
    else:
        events = interleave_streams(streams)

    # The serving layer takes engine configuration only as EngineOptions;
    # fold the shared CLI flags (and any --options-file) into one bundle.
    options = _engine_options(args)
    policy = RefitPolicy(every_k=args.refit_every, sse_drift=args.sse_drift)
    records = replay_forecasts(
        events,  # type: ignore[arg-type]
        horizon=args.horizon,
        every=args.every,
        n_points=args.points,
        family=args.model,
        options=options,
        policy=policy,
        finalize=not args.no_finalize,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            count = 0
            for record in records:
                handle.write(json.dumps(record) + "\n")
                count += 1
        print(f"wrote {count} records to {args.output}", file=sys.stderr)
    else:
        for record in records:
            print(json.dumps(record))
    return 0


def _server_config(args: argparse.Namespace) -> "ServerConfig":
    """One ``ServerConfig`` from the environment plus explicit flags."""
    from repro.serving.server import ServerConfig

    config = ServerConfig.from_env()
    overrides = {
        name: value
        for name, value in (
            ("host", args.host),
            ("port", args.port),
            ("max_streams", args.max_streams),
            ("family", args.family),
            ("refit_interval", args.refit_interval),
            ("refit_every_k", args.refit_every),
            ("remediation_interval", args.remediation_interval),
        )
        if value is not None
    }
    return config.replace(options=_engine_options(args), **overrides)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serving.server import ForecastServer

    config = _server_config(args)

    async def _run() -> None:
        server = ForecastServer(config)
        host, port = await server.start()
        print(
            f"serving on {host}:{port} "
            f"(max {config.max_streams} streams, "
            f"refit every {config.refit_interval}s); Ctrl-C to stop",
            file=sys.stderr,
        )
        try:
            await asyncio.Event().wait()  # until cancelled
        finally:
            await server.stop()
            print(json.dumps(server.stats()), file=sys.stderr)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutdown complete", file=sys.stderr)
    return 0


def _cmd_serve_load(args: argparse.Namespace) -> int:
    import json

    from repro.serving.loadgen import run_load_sync
    from repro.serving.server import ServerConfig

    config = ServerConfig.from_env().replace(
        options=_engine_options(args),
        family=args.family,
        refit_interval=0.05,
        refit_every_k=4,
    )
    report = run_load_sync(
        config=config,
        n_streams=args.streams,
        observations=args.observations,
        connections=args.connections,
        forecast_streams=args.forecasts,
        reject_probes=args.probes,
        seed=args.seed,
        settle_seconds=args.settle,
    )
    report.pop("server_stats", None)
    print(json.dumps(report))
    problems = []
    if report["streams"]["registered"] != args.streams:
        problems.append(
            f"registered {report['streams']['registered']} of "
            f"{args.streams} streams"
        )
    if report["protocol_errors"]:
        problems.append(f"{report['protocol_errors']} protocol errors")
    if report["admission"]["rejected_register"] != args.probes:
        problems.append(
            f"{report['admission']['rejected_register']} of "
            f"{args.probes} admission probes rejected"
        )
    if problems:
        print(f"error: serve-load failed: {'; '.join(problems)}", file=sys.stderr)
        return 1
    return 0


def _cmd_make_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.datasets.outage import generate_fleet

    choices = None
    if args.ragged:
        choices = tuple(int(part) for part in args.ragged.split(","))
    store = generate_fleet(
        args.episodes,
        args.root,
        scenarios=args.scenarios,
        seed=args.seed,
        n_points=args.points,
        n_points_choices=choices,
        noise_std=args.noise,
        chunk_size=args.chunk_size,
        overwrite=args.overwrite,
    )
    print(
        json.dumps(
            {
                "root": str(args.root),
                "n_episodes": len(store),
                "n_samples": store.n_samples,
                "label_names": list(store.label_names),
            }
        )
    )
    return 0


def _cmd_fit_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.datasets.store import EpisodeStore
    from repro.fitting.fleet import DEFAULT_FLEET_FAMILIES, fit_fleet

    store = EpisodeStore(args.store)
    result = fit_fleet(
        store,
        tuple(args.families) if args.families else DEFAULT_FLEET_FAMILIES,
        chunk_size=args.chunk_size,
        length_bucket=args.length_bucket,
        confirm=not args.no_confirm,
        options=_engine_options(args),
    )
    payload = json.dumps(result.summary(), indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(payload)
    return 0


def _cmd_figure(number: int) -> int:
    print(experiments.figure_by_id(number).to_ascii())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(render_report(run_full_reproduction(options=_engine_options(args))))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        # Forwarded wholesale before parsing: the linter owns its own
        # argparse surface (argparse.REMAINDER would swallow a leading
        # option flag), and none of the tracing plumbing below applies.
        from repro.devtools.lint import main as lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["bench"]:
        # Same wholesale forwarding as `lint`: repro.bench.cli owns its
        # own argparse surface (subcommands + option flags).
        from repro.bench.cli import main as bench_main

        return bench_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    args.tracer = _build_tracer(args)
    try:
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "recommend":
            return _cmd_recommend(args)
        if args.command == "card":
            from repro.analysis.report_card import build_report_card

            print(build_report_card(_load_curve(args.dataset)).render())
            return 0
        if args.command == "episodes":
            from repro.analysis.fleet import episode_scorecard

            scorecard = episode_scorecard(
                _load_curve(args.dataset),
                model=args.model,
                tolerance=args.tolerance,
                options=_engine_options(args),
            )
            print(scorecard.to_table())
            return 0
        if args.command == "serve-replay":
            return _cmd_serve_replay(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "serve-load":
            return _cmd_serve_load(args)
        if args.command == "make-fleet":
            return _cmd_make_fleet(args)
        if args.command == "fit-fleet":
            return _cmd_fit_fleet(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "figure":
            return _cmd_figure(args.number)
        if args.command == "report":
            return _cmd_report(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        tracer = args.tracer
        if tracer is None and hasattr(args, "trace"):
            # No flag, but the subcommand supports tracing — surface the
            # REPRO_TRACE / REPRO_TRACE_FILE process tracer if enabled.
            from repro.observability.tracer import default_tracer

            tracer = default_tracer()
        if tracer is not None and tracer.enabled:
            summary = tracer.summary()
            if summary:
                print(summary, file=sys.stderr)
        if args.tracer is not None:
            args.tracer.close()
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
