"""Baseline gate: tolerance policies, regressions, readable diffs."""

from __future__ import annotations

import pytest

from repro.bench.compare import (
    compare_run,
    load_baseline,
    update_baseline,
)
from repro.bench.runner import MANIFEST_SCHEMA_VERSION
from repro.exceptions import BenchError

_OPTIONS = {
    "engine": None,
    "executor": None,
    "seed": 7,
    "n_random_starts": 2,
}


def _summary(**workloads) -> dict:
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "timestamp": "T0",
        "suite": "smoke",
        "config": {"options": dict(_OPTIONS)},
        "provenance": {"python": "3.11", "numpy": "2.4", "scipy": "1.17",
                       "repro": "1.1.0"},
        "workloads": {
            name: {"status": "ok", "script": None, "seconds": 1.0,
                   "error": None, **entry}
            for name, entry in workloads.items()
        },
        "failed": [],
    }


def _baseline(**workloads) -> dict:
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "updated": "T0",
        "config": {"options": dict(_OPTIONS)},
        "provenance": {"python": "3.11", "numpy": "2.4", "scipy": "1.17",
                       "repro": "1.1.0"},
        "workloads": dict(workloads),
    }


WL = "stub.cmp"


class TestCountedGate:
    def test_identical_run_is_ok(self):
        entry = {"counted": {"nfev": 100}, "wall": {"seconds": 1.0}}
        result = compare_run(
            _summary(**{WL: entry}), _baseline(**{WL: entry})
        )
        assert result.ok and not result.warnings

    def test_counted_drift_is_a_regression(self):
        result = compare_run(
            _summary(**{WL: {"counted": {"nfev": 101}, "wall": {}}}),
            _baseline(**{WL: {"counted": {"nfev": 100}, "wall": {}}}),
        )
        assert not result.ok
        (diff,) = result.regressions
        assert diff.metric == "nfev"
        assert diff.baseline == 100 and diff.current == 101
        rendered = result.render()
        assert "REGRESSION" in rendered
        assert f"{WL}.nfev" in rendered
        assert "100" in rendered and "101" in rendered

    def test_missing_counted_metric_is_a_regression(self):
        result = compare_run(
            _summary(**{WL: {"counted": {}, "wall": {}}}),
            _baseline(**{WL: {"counted": {"nfev": 100}, "wall": {}}}),
        )
        assert not result.ok
        assert "missing" in result.regressions[0].note

    def test_missing_workload_is_a_regression(self):
        result = compare_run(
            _summary(),
            _baseline(**{WL: {"counted": {"nfev": 100}, "wall": {}}}),
        )
        assert not result.ok


class TestWallGate:
    def _pair(self, base: float, current: float):
        return (
            _summary(**{WL: {"counted": {}, "wall": {"seconds": current}}}),
            _baseline(**{WL: {"counted": {}, "wall": {"seconds": base}}}),
        )

    def test_within_band_is_ok(self):
        summary, baseline = self._pair(1.0, 2.5)
        assert compare_run(summary, baseline, strict_wall=False).ok

    def test_out_of_band_warns_by_default(self):
        summary, baseline = self._pair(1.0, 4.0)
        result = compare_run(summary, baseline, strict_wall=False)
        assert result.ok, "wall drift must not gate without strict mode"
        (warning,) = result.warnings
        assert "3x band" in warning.note or "3x" in warning.note

    def test_out_of_band_regresses_in_strict_mode(self):
        summary, baseline = self._pair(1.0, 4.0)
        result = compare_run(summary, baseline, strict_wall=True)
        assert not result.ok

    def test_strict_mode_follows_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_STRICT", "1")
        summary, baseline = self._pair(1.0, 4.0)
        assert not compare_run(summary, baseline).ok
        monkeypatch.delenv("REPRO_PERF_STRICT")
        assert compare_run(summary, baseline).ok

    def test_improvement_is_ok(self):
        summary, baseline = self._pair(4.0, 1.0)
        assert compare_run(summary, baseline, strict_wall=True).ok

    def test_tolerance_must_be_a_ratio(self):
        summary, baseline = self._pair(1.0, 1.0)
        with pytest.raises(BenchError, match="> 1.0"):
            compare_run(summary, baseline, wall_tolerance=0.9)

    def test_registered_direction_is_respected(self):
        """For a higher-is-better wall metric (a speedup), falling below
        baseline/tolerance is the regression direction."""
        name = "smoke.fit_engine"  # registered: engine_speedup is higher-better
        summary = _summary(
            **{name: {"counted": {}, "wall": {"engine_speedup": 1.0}}}
        )
        baseline = _baseline(
            **{name: {"counted": {}, "wall": {"engine_speedup": 9.0}}}
        )
        result = compare_run(summary, baseline, strict_wall=True)
        assert not result.ok


class TestConfigAndProvenance:
    def test_mismatched_axes_raise(self):
        summary = _summary(**{WL: {"counted": {}, "wall": {}}})
        baseline = _baseline(**{WL: {"counted": {}, "wall": {}}})
        baseline["config"]["options"]["seed"] = 99
        with pytest.raises(BenchError, match="different matrix cells"):
            compare_run(summary, baseline)

    def test_provenance_drift_is_a_note_not_a_failure(self):
        entry = {"counted": {"nfev": 1}, "wall": {}}
        summary = _summary(**{WL: entry})
        summary["provenance"]["numpy"] = "3.0"
        result = compare_run(summary, _baseline(**{WL: entry}))
        assert result.ok
        assert any("numpy" in note for note in result.notes)
        assert "provenance drift" in result.render()

    def test_new_workload_is_not_a_regression(self):
        entry = {"counted": {"nfev": 1}, "wall": {}}
        result = compare_run(
            _summary(**{WL: entry, "stub.new": entry}),
            _baseline(**{WL: entry}),
        )
        assert result.ok
        assert any(d.status == "new" for d in result.diffs)


class TestBaselineIO:
    def test_update_and_load_roundtrip(self, tmp_path):
        summary = _summary(
            **{WL: {"counted": {"nfev": 10}, "wall": {"seconds": 1.5}}}
        )
        path = tmp_path / "baseline.json"
        payload = update_baseline(summary, path)
        loaded = load_baseline(path)
        assert loaded == payload
        assert loaded["workloads"][WL]["counted"] == {"nfev": 10}
        assert compare_run(summary, loaded).ok

    def test_update_skips_failed_workloads(self, tmp_path):
        summary = _summary(
            **{
                WL: {"counted": {"nfev": 10}, "wall": {}},
                "stub.broken": {"counted": {}, "wall": {}, "status": "error"},
            }
        )
        payload = update_baseline(summary, tmp_path / "baseline.json")
        assert "stub.broken" not in payload["workloads"]

    def test_update_refuses_all_failed(self, tmp_path):
        summary = _summary(
            **{WL: {"counted": {}, "wall": {}, "status": "error"}}
        )
        with pytest.raises(BenchError, match="no workload completed"):
            update_baseline(summary, tmp_path / "baseline.json")

    def test_load_rejects_garbage(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(BenchError, match="cannot read"):
            load_baseline(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(BenchError, match="malformed"):
            load_baseline(bad)
        stale = tmp_path / "stale.json"
        stale.write_text('{"schema_version": 0, "workloads": {}}')
        with pytest.raises(BenchError, match="schema_version"):
            load_baseline(stale)
