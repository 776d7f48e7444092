"""Baseline comparison: diff a run manifest against a committed baseline.

The gate's tolerance policy is per metric *kind*, declared in the
workload registry:

``counted``
    nfev/njev/iteration counts, CRCs, bit-identity flags — fully
    deterministic for a fixed seed and configuration, so any deviation
    from the baseline is a **regression** (as is a counted metric that
    disappears).
``wall``
    Seconds, speedups, throughputs — machine- and load-dependent, so
    they are gated by a ratio band around the baseline (default
    ``3.0×``, overridable per metric via
    :class:`~repro.bench.registry.MetricSpec.tolerance`). Out-of-band
    wall metrics are *warnings* by default and only fail the gate when
    strict mode is on (the ``REPRO_PERF_STRICT`` environment variable
    or ``--strict-wall``) — the same opt-in the tier-1 perf guards use.
``info``
    Never gated.

Comparing runs from different matrix cells (different engine, seed, or
start budget) is meaningless, so mismatched config axes raise
:class:`~repro.exceptions.BenchError` instead of producing a diff.
Provenance drift (numpy/scipy/python versions) is reported as a note,
not a failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro._env import read_env
from repro.bench.registry import MetricSpec, get_workload
from repro.bench.runner import MANIFEST_SCHEMA_VERSION
from repro.exceptions import BenchError

__all__ = [
    "DEFAULT_WALL_TOLERANCE",
    "ComparisonResult",
    "MetricDiff",
    "compare_run",
    "load_baseline",
    "update_baseline",
]

#: Default ratio band for wall-clock metrics: a run may be up to this
#: factor worse than baseline before it is flagged.
DEFAULT_WALL_TOLERANCE = 3.0

#: Config axes that must match between a run and its baseline.
_GATED_AXES = ("engine", "executor", "seed", "n_random_starts")

#: Provenance keys whose drift is worth a note in the report.
_VERSION_KEYS = ("python", "numpy", "scipy", "repro")


@dataclass(frozen=True)
class MetricDiff:
    """One metric's baseline-vs-run comparison."""

    workload: str
    metric: str
    kind: str
    baseline: float | None
    current: float | None
    status: str  # "ok" | "regression" | "warning" | "new"
    note: str = ""


@dataclass(frozen=True)
class ComparisonResult:
    """The full diff of a run against a baseline."""

    diffs: tuple[MetricDiff, ...]
    notes: tuple[str, ...] = ()
    strict_wall: bool = False

    @property
    def regressions(self) -> tuple[MetricDiff, ...]:
        """Every diff that fails the gate."""
        return tuple(d for d in self.diffs if d.status == "regression")

    @property
    def warnings(self) -> tuple[MetricDiff, ...]:
        """Out-of-band wall metrics that do not fail the gate."""
        return tuple(d for d in self.diffs if d.status == "warning")

    @property
    def ok(self) -> bool:
        """True when no diff is a regression."""
        return not self.regressions

    def render(self) -> str:
        """Human-readable diff report, worst news first."""
        lines: list[str] = []
        order = {"regression": 0, "warning": 1, "new": 2, "ok": 3}
        shown = sorted(
            self.diffs,
            key=lambda d: (order[d.status], d.workload, d.metric),
        )
        for diff in shown:
            if diff.status == "ok":
                continue
            base = "-" if diff.baseline is None else f"{diff.baseline:g}"
            cur = "-" if diff.current is None else f"{diff.current:g}"
            tag = diff.status.upper()
            line = (
                f"{tag:10s} {diff.workload}.{diff.metric} "
                f"[{diff.kind}]: baseline {base} -> current {cur}"
            )
            if diff.note:
                line += f"  ({diff.note})"
            lines.append(line)
        n_ok = sum(1 for d in self.diffs if d.status == "ok")
        lines.append(
            f"compared {len(self.diffs)} metrics: {n_ok} ok, "
            f"{len(self.regressions)} regressions, "
            f"{len(self.warnings)} warnings "
            f"(strict wall gating: {'on' if self.strict_wall else 'off'})"
        )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def load_baseline(path: str | Path) -> dict[str, Any]:
    """Load and sanity-check a committed baseline file."""
    source = Path(path)
    try:
        payload = json.loads(source.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read baseline {source}: {exc}") from exc
    if not isinstance(payload, dict) or "workloads" not in payload:
        raise BenchError(
            f"baseline {source} is malformed: missing 'workloads' table"
        )
    version = payload.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise BenchError(
            f"baseline {source} has schema_version {version!r}; this "
            f"build expects {MANIFEST_SCHEMA_VERSION} — regenerate it "
            "with `repro bench run --update-baseline`"
        )
    return payload


def _spec_for(workload_name: str, metric: str, kind: str) -> MetricSpec:
    """The declared spec for a metric, defaulting when unregistered."""
    try:
        return get_workload(workload_name).metric(metric)
    except BenchError:
        return MetricSpec(metric, kind=kind, direction="lower")


def _wall_status(
    spec: MetricSpec,
    baseline: float,
    current: float,
    tolerance: float,
    strict: bool,
) -> tuple[str, str]:
    bound = spec.tolerance if spec.tolerance is not None else tolerance
    if baseline == 0.0:
        return ("ok", "baseline is zero; ratio not gated")
    ratio = current / baseline
    worse = ratio > bound if spec.direction == "lower" else ratio < 1.0 / bound
    if not worse:
        return ("ok", "")
    note = (
        f"{ratio:.2f}x vs baseline exceeds the {bound:g}x band "
        f"(direction: {spec.direction} is better)"
    )
    return ("regression" if strict else "warning", note)


def compare_run(
    summary: Mapping[str, Any],
    baseline: Mapping[str, Any],
    *,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    strict_wall: bool | None = None,
) -> ComparisonResult:
    """Diff a run ``summary.json`` payload against a baseline payload.

    ``strict_wall=None`` defers to the ``REPRO_PERF_STRICT``
    environment variable.
    """
    if strict_wall is None:
        strict_wall = bool(read_env("REPRO_PERF_STRICT"))
    if wall_tolerance <= 1.0:
        raise BenchError(
            f"wall tolerance must be a ratio > 1.0, got {wall_tolerance!r}"
        )

    run_options = summary.get("config", {}).get("options", {})
    base_options = baseline.get("config", {}).get("options", {})
    mismatched = [
        axis
        for axis in _GATED_AXES
        if run_options.get(axis) != base_options.get(axis)
    ]
    if mismatched:
        detail = ", ".join(
            f"{axis}: baseline {base_options.get(axis)!r} vs "
            f"run {run_options.get(axis)!r}"
            for axis in mismatched
        )
        raise BenchError(
            "run and baseline come from different matrix cells — "
            f"comparison would be meaningless ({detail})"
        )

    notes: list[str] = []
    run_versions = summary.get("provenance", {})
    base_versions = baseline.get("provenance", {})
    for key in _VERSION_KEYS:
        if (
            key in base_versions
            and base_versions.get(key) != run_versions.get(key)
        ):
            notes.append(
                f"provenance drift: {key} {base_versions.get(key)!r} -> "
                f"{run_versions.get(key)!r}"
            )

    diffs: list[MetricDiff] = []
    run_workloads = summary.get("workloads", {})
    base_workloads = baseline.get("workloads", {})

    for workload_name in sorted(base_workloads):
        base_entry = base_workloads[workload_name]
        run_entry = run_workloads.get(workload_name)
        for kind in ("counted", "wall"):
            base_metrics = base_entry.get(kind, {})
            run_metrics = (
                {} if run_entry is None else run_entry.get(kind, {})
            )
            for metric in sorted(base_metrics):
                base_value = base_metrics[metric]
                if metric not in run_metrics:
                    diffs.append(
                        MetricDiff(
                            workload=workload_name,
                            metric=metric,
                            kind=kind,
                            baseline=base_value,
                            current=None,
                            status="regression",
                            note="metric missing from the run "
                            "(workload failed or was dropped)",
                        )
                    )
                    continue
                current = run_metrics[metric]
                if kind == "counted":
                    status = "ok" if current == base_value else "regression"
                    note = (
                        ""
                        if status == "ok"
                        else "counted metric must match the baseline exactly"
                    )
                else:
                    spec = _spec_for(workload_name, metric, kind)
                    status, note = _wall_status(
                        spec, base_value, current, wall_tolerance, strict_wall
                    )
                diffs.append(
                    MetricDiff(
                        workload=workload_name,
                        metric=metric,
                        kind=kind,
                        baseline=base_value,
                        current=current,
                        status=status,
                        note=note,
                    )
                )

    for workload_name in sorted(set(run_workloads) - set(base_workloads)):
        entry = run_workloads[workload_name]
        for kind in ("counted", "wall"):
            for metric in sorted(entry.get(kind, {})):
                diffs.append(
                    MetricDiff(
                        workload=workload_name,
                        metric=metric,
                        kind=kind,
                        baseline=None,
                        current=entry[kind][metric],
                        status="new",
                        note="not in baseline; run --update-baseline to adopt",
                    )
                )

    return ComparisonResult(
        diffs=tuple(diffs), notes=tuple(notes), strict_wall=strict_wall
    )


def update_baseline(
    summary: Mapping[str, Any], path: str | Path
) -> dict[str, Any]:
    """Write a new baseline from a run summary; returns the payload.

    Only workloads that completed are adopted — committing a baseline
    with holes would make every future run of the failing workload
    look clean.
    """
    workloads: dict[str, Any] = {}
    for name, entry in summary.get("workloads", {}).items():
        if entry.get("status") != "ok":
            continue
        workloads[name] = {
            "counted": dict(entry.get("counted", {})),
            "wall": dict(entry.get("wall", {})),
        }
    if not workloads:
        raise BenchError(
            "refusing to write a baseline: no workload completed"
        )
    provenance = summary.get("provenance", {})
    payload: dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "updated": summary.get("timestamp", ""),
        "config": dict(summary.get("config", {})),
        "provenance": {
            key: provenance.get(key) for key in _VERSION_KEYS
        },
        "workloads": workloads,
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    return payload
