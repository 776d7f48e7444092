"""Schema validation + canonical writer for ``BENCH_*.json`` artifacts.

Every benchmark artifact the scripts under ``benchmarks/`` emit must

* carry a complete ``"provenance"`` block (see
  :data:`~repro.bench.provenance.REQUIRED_PROVENANCE_KEYS`),
* carry its artifact-specific required top-level keys
  (:data:`ARTIFACT_REQUIRED_KEYS`), and
* contain no NaN/Inf anywhere — a non-finite benchmark number is a
  measurement bug, and ``json`` would happily serialize it into a
  payload most parsers reject.

:func:`write_bench_artifact` is the single funnel the emitters write
through, so an artifact that would fail validation never reaches disk;
:func:`validate_artifact_file` re-checks committed artifacts in tier-1
so an emitter cannot silently drift. :func:`artifact_metrics` extracts
each artifact's headline metrics in the counted/wall shape the
baseline comparison (:mod:`repro.bench.compare`) consumes.
"""

from __future__ import annotations

import json
import math
from os import PathLike
from pathlib import Path
from typing import Any, Mapping

from repro.bench.provenance import REQUIRED_PROVENANCE_KEYS
from repro.exceptions import BenchError

__all__ = [
    "ARTIFACT_REQUIRED_KEYS",
    "artifact_metrics",
    "check_bench_payload",
    "validate_artifact_file",
    "validate_bench_payload",
    "write_bench_artifact",
]

#: Required top-level keys per artifact file name. ``provenance`` is
#: required everywhere and listed once here for visibility.
ARTIFACT_REQUIRED_KEYS: dict[str, tuple[str, ...]] = {
    "BENCH_fit_engine.json": (
        "provenance",
        "workload",
        "engines",
        "backend_wall_seconds",
        "speedup_vs_serial",
        "kernels",
    ),
    "BENCH_jacobian.json": ("provenance", "workload", "cache", "warm_start"),
    "BENCH_fleet.json": ("provenance", "workload", "fleet", "engines", "streaming"),
    "BENCH_serving.json": (
        "provenance",
        "dataset",
        "model",
        "warm_refit",
        "cold_refit",
        "speedup_p50",
        "finalize_bit_identical",
    ),
    "BENCH_trace.json": (
        "provenance",
        "workload",
        "disabled_wall_seconds",
        "traced_wall_seconds",
        "modeled_disabled_overhead_fraction",
        "overhead_budget_fraction",
    ),
    "BENCH_service.json": (
        "provenance",
        "workload",
        "streams",
        "latency_ms",
        "admission",
        "refits",
        "remediation",
    ),
}


def _scan_nonfinite(value: Any, path: str, problems: list[str]) -> None:
    """Append a problem for every NaN/Inf reachable from *value*."""
    if isinstance(value, bool):
        return
    if isinstance(value, float) and not math.isfinite(value):
        problems.append(f"non-finite number {value!r} at {path}")
    elif isinstance(value, Mapping):
        for key, child in value.items():
            _scan_nonfinite(child, f"{path}.{key}", problems)
    elif isinstance(value, (list, tuple)):
        for index, child in enumerate(value):
            _scan_nonfinite(child, f"{path}[{index}]", problems)


def validate_bench_payload(
    payload: Mapping[str, Any], *, name: str | None = None
) -> list[str]:
    """Every schema problem in *payload* (empty list when valid).

    *name* is the artifact file name; when it matches a known artifact
    its :data:`ARTIFACT_REQUIRED_KEYS` entry is enforced, otherwise
    only the generic contract (provenance block, finite numbers).
    """
    problems: list[str] = []
    if not isinstance(payload, Mapping):
        return [f"payload must be a JSON object, got {type(payload).__name__}"]
    provenance = payload.get("provenance")
    if not isinstance(provenance, Mapping):
        problems.append("missing or non-object 'provenance' block")
    else:
        for key in REQUIRED_PROVENANCE_KEYS:
            if key not in provenance:
                problems.append(f"provenance block is missing key {key!r}")
    required = ARTIFACT_REQUIRED_KEYS.get(name or "", ())
    for key in required:
        if key not in payload:
            problems.append(f"missing required key {key!r} for {name}")
    _scan_nonfinite(dict(payload), "$", problems)
    return problems


def check_bench_payload(
    payload: Mapping[str, Any], *, name: str | None = None
) -> None:
    """Raise :class:`~repro.exceptions.BenchError` on the first invalid payload."""
    problems = validate_bench_payload(payload, name=name)
    if problems:
        label = name or "<bench payload>"
        detail = "\n  - ".join(problems)
        raise BenchError(
            f"benchmark artifact {label} failed schema validation:\n  - {detail}"
        )


def write_bench_artifact(
    path: str | PathLike[str], payload: Mapping[str, Any]
) -> Path:
    """Validate *payload* and write it to *path* in canonical JSON.

    Canonical means ``indent=2, sort_keys=True`` with a trailing
    newline, so two artifacts produced from the same metric values are
    byte-identical regardless of dict construction order.
    """
    target = Path(path)
    check_bench_payload(payload, name=target.name)
    target.write_text(
        json.dumps(dict(payload), indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    return target


def validate_artifact_file(path: str | PathLike[str]) -> dict[str, Any]:
    """Load and validate one committed ``BENCH_*.json`` artifact."""
    source = Path(path)
    try:
        payload = json.loads(source.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read benchmark artifact {source}: {exc}") from exc
    check_bench_payload(payload, name=source.name)
    return dict(payload)


def _lookup(payload: Mapping[str, Any], dotted: str) -> Any:
    value: Any = payload
    for part in dotted.split("."):
        if not isinstance(value, Mapping) or part not in value:
            raise BenchError(f"artifact is missing metric path {dotted!r}")
        value = value[part]
    return value


#: Headline metrics per artifact: dotted payload path → (metric name,
#: kind). Counted metrics are deterministic for fixed seeds and gated
#: exactly; wall metrics are machine-dependent and gated by ratio.
_ARTIFACT_METRIC_PATHS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "BENCH_fit_engine.json": (
        ("engines.scipy.nfev", "scipy_nfev", "counted"),
        ("engines.scipy.njev", "scipy_njev", "counted"),
        ("engines.batched.nfev", "batched_nfev", "counted"),
        ("engines.batched.njev", "batched_njev", "counted"),
        ("engines.speedup_batched_vs_scipy", "engine_speedup", "wall"),
        ("kernels.area_under_curve.speedup", "auc_kernel_speedup", "wall"),
    ),
    "BENCH_jacobian.json": (
        ("warm_start.warm_nfev", "warm_grid_nfev", "counted"),
        ("warm_start.cold_nfev", "cold_grid_nfev", "counted"),
    ),
    "BENCH_fleet.json": (
        ("fleet.n_episodes", "n_episodes", "counted"),
        ("engines.speedup_cross_episode_vs_scipy_loop", "fleet_speedup", "wall"),
        ("engines.episodes_per_sec.cross_episode_batched", "episodes_per_sec", "wall"),
        ("streaming.rss_ratio_for_5x_fleet", "rss_ratio", "wall"),
    ),
    "BENCH_serving.json": (
        ("stats.refits_warm", "refits_warm", "counted"),
        ("warm_refit.p50_ms", "warm_p50_ms", "wall"),
        ("speedup_p50", "warm_speedup_p50", "wall"),
    ),
    "BENCH_trace.json": (
        ("n_fit_spans", "n_fit_spans", "counted"),
        ("modeled_disabled_overhead_fraction", "modeled_overhead", "wall"),
    ),
    "BENCH_service.json": (
        ("streams.registered", "streams_registered", "counted"),
        ("admission.rejected_register", "rejected_register", "counted"),
        ("protocol_errors", "protocol_errors", "counted"),
        ("remediation.reselected", "remediation_reselected", "counted"),
        ("latency_ms.p50", "request_p50_ms", "wall"),
        ("latency_ms.p99", "request_p99_ms", "wall"),
        ("workload.requests_per_sec", "requests_per_sec", "wall"),
    ),
}


def artifact_metrics(
    name: str, payload: Mapping[str, Any]
) -> dict[str, dict[str, float]]:
    """Headline ``{"counted": {...}, "wall": {...}}`` metrics of an artifact.

    ``finalize_bit_identical``-style booleans are folded to 0/1 so every
    metric is numeric; unknown artifact names yield empty groups.
    """
    groups: dict[str, dict[str, float]] = {"counted": {}, "wall": {}}
    for dotted, metric, kind in _ARTIFACT_METRIC_PATHS.get(name, ()):
        value = _lookup(payload, dotted)
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            raise BenchError(
                f"artifact metric {dotted!r} is not numeric: {value!r}"
            )
        groups[kind][metric] = float(value) if kind == "wall" else value
    if name == "BENCH_serving.json":
        groups["counted"]["finalize_bit_identical"] = int(
            bool(payload.get("finalize_bit_identical"))
        )
    return groups
