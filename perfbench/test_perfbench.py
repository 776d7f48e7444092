"""Fast self-test of the benchmark, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    CONFIG_PATH,
    ROOT,
    WorkDir,
    benchmark,
    emit_result,
    load_config,
    units,
    use_source_tree,
)

use_source_tree()

import common  # noqa: E402
import offline  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import tables_child  # noqa: E402

END_TO_END = units("end_to_end")
PER_LAYER = units("per_layer")


def _tiny_serve(workload: str) -> dict:
    config = copy.deepcopy(load_config(workload))
    config["fleet"]["streams"] = 4
    config["setup_repeats"] = 1
    config["traffic"]["nominal_rps"] = 40
    return config


def _result_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _end_to_end_names(text: str, label: str) -> list[str]:
    line = next(l for l in text.splitlines() if l.startswith(f"{label} end-to-end:"))
    return re.findall(r"(\w+) [-\d.]+ \S+(?:,|$)", line.split(":", 1)[1])


# ----------------------------------------------------------------------
# Metric names and units
# ----------------------------------------------------------------------
def test_every_declared_workload_has_a_config() -> None:
    declared = [workload["name"] for workload in benchmark()["workloads"]]
    assert declared == list(json.loads(CONFIG_PATH.read_text()))


def test_result_line_refuses_a_missing_metric() -> None:
    metrics = {name: 1.0 for name in END_TO_END}
    del metrics["cpu_ms_per_op"]
    with pytest.raises(Exception, match="cpu_ms_per_op"):
        emit_result(True, 1, 0, metrics, END_TO_END)


@pytest.mark.parametrize("workload", ["serve_read", "serve_ingest"])
def test_serve_untraced_and_traced_print_declared_metrics(workload: str) -> None:
    config = _tiny_serve(workload)
    allowed = os.sched_getaffinity(0)
    for trace, declared in ((False, END_TO_END), (True, PER_LAYER)):
        out = io.StringIO()
        with WorkDir() as workdir, contextlib.redirect_stdout(out):
            outcome = run.run_serve_workload(workload, config, 3, 1.0, trace, workdir)
            emit_result(not outcome.problems, outcome.attempted, outcome.failed, outcome.metrics, declared)
        text = out.getvalue()
        # Each launch pins the client, then gives its CPUs back, so the
        # traced run's server gets a CPU of its own again.
        assert os.sched_getaffinity(0) == allowed
        result = _result_line(text)
        assert result["correct"], text
        assert result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert _end_to_end_names(text, "untraced") == list(END_TO_END)
        # Only the plain run of a traced run climbs the rate ladder.
        assert len(re.findall(r" rung \d+/s:", text)) == (serve.LADDER_STEPS if trace else 0)
        if trace:
            assert _end_to_end_names(text, "traced") == list(END_TO_END)
            assert result["metrics"]["online.forecast.calls"]["value"] > 0
            assert result["metrics"]["loadgen.max_rate_rps"]["value"] > 0


def test_fleet_untraced_and_traced_print_declared_metrics() -> None:
    config = copy.deepcopy(load_config("fleet_fit"))
    config["store"]["episodes"] = 4
    config["fit"]["chunk_size"] = 2
    config["gate_sample_episodes"] = [0, 3]
    allowed = os.sched_getaffinity(0)
    for trace in (False, True):
        out = io.StringIO()
        with WorkDir() as workdir, contextlib.redirect_stdout(out):
            outcome = run.run_offline_workload("fleet_fit", config, 5, 0.01, trace, workdir)
        text = out.getvalue()
        assert not outcome.problems
        assert os.sched_getaffinity(0) == allowed
        assert set(outcome.metrics) == set(PER_LAYER if trace else END_TO_END)
        assert _end_to_end_names(text, "untraced") == list(END_TO_END)
        if trace:
            assert _end_to_end_names(text, "traced") == list(END_TO_END)
            assert outcome.metrics["batched.calls"] > 0
            assert outcome.metrics["store.chunks"] == 4  # two passes, one per CPU, of two chunks


def test_rounds_alternate_cpus_and_end_even() -> None:
    client, program = common.cpu_plan(0)
    assert common.cpu_plan(1) == (program, client)
    past, future = time.perf_counter() - 1.0, time.perf_counter() + 60.0
    assert [offline.enough_rounds(done, 2, past) for done in range(5)] == [
        False, False, True, False, True
    ]
    assert not offline.enough_rounds(4, 2, future)


# ----------------------------------------------------------------------
# Gates fire on doctored outputs
# ----------------------------------------------------------------------
def test_table_gate_fires_on_a_changed_digit() -> None:
    golden = (ROOT / "tests" / "golden" / "table1.txt").read_text()
    assert tables_child.golden_match("1", golden)
    digit = re.search(r"\d", golden.splitlines()[3]).start()
    line_start = sum(len(l) + 1 for l in golden.splitlines()[:3])
    position = line_start + digit
    changed = golden[:position] + str((int(golden[position]) + 1) % 10) + golden[position + 1 :]
    assert not tables_child.golden_match("1", changed)


def _request(op: str = "forecast", req_id: int = 7) -> serve.Request:
    return serve.Request(req_id, 0.0, op, b"")


def _forecast_body(req_id: int = 7, **result: object) -> bytes:
    body = {"n": 56, "n_fit": 48, "center": [0.9, 0.95], "recovery_time": None, **result}
    return json.dumps({"id": req_id, "ok": True, "op": "forecast", "result": body, "elapsed_ms": 0.3}).encode()


def test_response_gate_accepts_a_clean_forecast() -> None:
    request = _request()
    request.response = _forecast_body()
    assert serve.check_response(request)[:2] == (True, None)


def test_response_gate_fires_on_nan_in_a_forecast_body() -> None:
    request = _request()
    request.response = _forecast_body().replace(b"0.95", b"NaN")
    ok, problem, _ = serve.check_response(request)
    assert not ok and "non-finite" in problem


def test_response_gate_fires_on_a_dropped_response() -> None:
    requests = [_request(req_id=1), _request(req_id=2)]
    requests[0].response = _forecast_body(req_id=1)
    stats = serve.phase_stats(requests, 10.0, 0.0)
    assert stats.failed == 1
    assert any("never answered" in p for p in stats.problems)


def test_response_gate_fires_on_out_of_order_and_stale_fit() -> None:
    request = _request(req_id=3)
    request.response = _forecast_body(req_id=4)
    assert "out of order" in serve.check_response(request)[1]
    request = _request()
    request.response = _forecast_body(n=40, n_fit=48)
    assert serve.check_response(request)[1] == "n_fit > n"


def test_typed_error_fails_the_request_but_not_the_gate() -> None:
    request = _request()
    request.response = json.dumps(
        {"id": 7, "ok": False, "op": "forecast", "elapsed_ms": 0.1,
         "error": {"code": 429, "type": "AdmissionError", "message": "full"}}
    ).encode()
    assert serve.check_response(request)[:2] == (False, None)
    request.response = json.dumps({"id": 7, "ok": False, "error": {}}).encode()
    assert serve.check_response(request)[1] == "error without a typed code"


def test_fleet_gate_fires_on_a_changed_cell() -> None:
    import repro.fitting.fleet as fleet
    from repro.datasets.outage import generate_fleet

    config = load_config("fleet_fit")
    options = offline._engine_options(config["fit"]["options"])
    with WorkDir() as workdir:
        store = generate_fleet(3, workdir / "store", seed=2)
        fits = fleet.fit_fleet(store, config["fit"]["families"], options=options, chunk_size=2)
        sample = {"gate_sample_episodes": [0, 2]}
        assert offline.fleet_sample_gate(store, fits, sample, options) == []
        fits.sse["quadratic"][2] = np.nextafter(fits.sse["quadratic"][2], np.inf)
        problems = offline.fleet_sample_gate(store, fits, sample, options)
    assert len(problems) == 1 and "episode 2 quadratic" in problems[0]


def test_checkout_without_sources_exits_nonzero(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(common, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "use_source_tree", common.use_source_tree)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "fleet_fit", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert out.getvalue() == ""


def test_ladder_bisects_to_the_knee(monkeypatch: pytest.MonkeyPatch) -> None:
    knee = 1700.0

    def run_rung(rate: float, duration: float) -> serve.PhaseStats:
        latency = 1.0 if rate <= knee else 500.0
        return serve.PhaseStats(rate, latency_ms=[latency], late_ms=[0.0], answered_s=1.0 / rate)

    monkeypatch.setattr(serve, "_settle", lambda client, streams: None)
    result = serve.ServeResult(fit_age_limit=8.0)
    result.nominal_parts.append(run_rung(400.0, 1.0))
    phases = serve._Phases.__new__(serve._Phases)
    phases.client, phases.streams, phases.result, phases.run = None, [], result, run_rung
    phases.ladder(400.0, 1.0)
    assert len(result.ladder) == serve.LADDER_STEPS
    assert knee / serve.LADDER_SPAN ** (1 / 2**serve.LADDER_STEPS) < result.max_rate <= knee


def test_a_stale_fit_fails_the_rung() -> None:
    stats = serve.PhaseStats(100.0, latency_ms=[1.0], late_ms=[0.0], fit_ages=[8, 16])
    assert serve.rung_verdict(stats, 8.0) == "fit_age"
    assert serve.rung_verdict(stats, 16.0) == "pass"
