"""The per-stream read memo: repeated reads answer from the last result.

A ``forecast`` or ``report`` of an unchanged stream is answered with the
result its first answer made, whose JSON text is encoded once and
spliced into the response line. These tests hold the memo to fresh
computations (an oracle forecaster rebuilt from the stream's points and
fit), to a server whose memo is emptied before every request, and to
``json.dumps`` of the whole response.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.outage import episode_curve
from repro.exceptions import ServingError
from repro.fitting import fit_least_squares
from repro.fitting.options import EngineOptions
from repro.models.registry import make_model
from repro.observability.tracer import Tracer
from repro.serving import online
from repro.serving.online import OnlineForecaster
from repro.serving.server import ForecastServer, ServerConfig

CHEAP = dict(cache=False, n_random_starts=2, seed=0, executor="serial")

#: What a stream's read memo may hold: one result per read op and the
#: observed-curve metric report.
MEMO_ENTRIES = {"metrics", "forecast", "report"}


def config(**options):
    return ServerConfig(
        family="quadratic",
        refit_every_k=4,
        refit_interval=0.0,  # the tests drive refit_tick() themselves
        options=EngineOptions(**{**CHEAP, "trace": False, **options}),
    )


def points(scenario):
    curve = episode_curve(scenario, 0, n_points=20, horizon=19.0)
    return [[float(t), float(p)] for t, p in zip(curve.times, curve.performance)]


async def call(server, **request):
    """One request through the server; the response line it writes, parsed."""
    line = await server._handle_line(json.dumps(request).encode())
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    return json.loads(line)


def result_text(response):
    """The result as the JSON text the server spliced into its line."""
    return json.dumps(response["result"], allow_nan=False)


def without_timings(response):
    response = dict(response)
    response.pop("elapsed_ms")
    if response["op"] == "stats" and response["ok"]:
        response["result"] = {k: v for k, v in response["result"].items() if k != "slo"}
    return response


# ----------------------------------------------------------------------
# What is stored, and when it goes
# ----------------------------------------------------------------------
class TestStorage:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_result_that_is_not_json_is_not_kept(self):
        async def body():
            server = ForecastServer(config())
            await call(server, op="observe", key="s", points=points("V")[:8])
            for attempt in range(2):
                response = await call(server, id=attempt, op="forecast", key="s", horizon=1e300)
                assert response["ok"] is False
                assert response["error"]["code"] == 400
                assert response["error"]["type"] == "ServingError"
                assert "produced a result that is not valid JSON" in response["error"]["message"]
                # Nothing is kept: each ask computes and answers the same 400.
                assert "forecast" not in server.session["s"]._read_memo
            assert server.metrics.counter("serve.errors.400") == 2
            assert (await call(server, op="forecast", key="s", horizon=12))["ok"]

        asyncio.run(body())

    def test_the_memo_holds_the_metric_report_and_one_result_per_read_op(self):
        async def body():
            server = ForecastServer(config())
            await call(server, op="observe", key="s", points=points("U")[:10])
            for horizon in (3, 6, 9, 12):
                assert (await call(server, op="forecast", key="s", horizon=horizon))["ok"]
                assert (await call(server, op="report", key="s", horizon=horizon))["ok"]
            assert (await call(server, op="drift", key="s"))["ok"]
            memo = server.session["s"]._read_memo
            assert set(memo) == MEMO_ENTRIES
            assert memo["forecast"][0] == (12.0, 25, 0.95)
            assert memo["report"][0] == (12.0, 25, 0.95, 0.5)
            assert memo["metrics"][0] == (0.5,)

        asyncio.run(body())

    def test_every_state_write_empties_the_memo(self):
        stream = points("V")
        forecaster = OnlineForecaster(
            "quadratic", options=EngineOptions(**CHEAP, trace=False)
        )
        forecaster.observe_many(stream[:8])
        forecaster.refit()

        def fill():
            forecaster.report()
            forecaster.forecast(1.0)
            assert set(forecaster._read_memo) == MEMO_ENTRIES

        fill()
        forecaster.observe_many(stream[8:10])
        assert forecaster._read_memo == {}
        fill()
        plan = forecaster.refit_plan()
        forecaster.adopt_fit(forecaster.fit, plan)
        assert forecaster._read_memo == {}
        fill()
        forecaster.install_fit(forecaster.fit)
        assert forecaster._read_memo == {}
        fill()
        forecaster.finalize()
        assert forecaster._read_memo == {}

    def test_a_rejected_observation_keeps_the_memo(self):
        forecaster = OnlineForecaster(
            "quadratic", options=EngineOptions(**CHEAP, trace=False)
        )
        forecaster.observe_many(points("V")[:8])
        forecaster.refit()
        forecaster.report()
        memo = dict(forecaster._read_memo)
        with pytest.raises(ServingError):
            forecaster.observe(0.0, 1.0)  # not after the last time
        assert forecaster._read_memo == memo

    def test_the_metric_report_is_kept_per_alpha(self):
        forecaster = OnlineForecaster(
            "quadratic", options=EngineOptions(**CHEAP, trace=False)
        )
        forecaster.observe_many(points("U")[:10])
        forecaster.refit()
        for alpha in (0.5, 0.25, 0.5):
            twin = OnlineForecaster(
                "quadratic", options=EngineOptions(**CHEAP, trace=False)
            )
            twin.observe_many(points("U")[:10])
            twin.install_fit(forecaster.fit)
            got, want = (f.report(alpha=alpha).to_dict() for f in (forecaster, twin))
            assert json.dumps(got) == json.dumps(want)

    def test_a_report_at_a_new_horizon_reuses_the_metric_report(self, monkeypatch):
        forecaster = OnlineForecaster(
            "quadratic", options=EngineOptions(**CHEAP, trace=False)
        )
        forecaster.observe_many(points("U")[:10])
        forecaster.refit()
        first = forecaster.report(horizon=2.0)

        def computed(*args, **kwargs):
            raise AssertionError("the metric report was computed again")

        monkeypatch.setattr(online, "predictive_metric_report", computed)
        assert forecaster.report(horizon=5.0).metrics is first.metrics

    def test_a_repeat_evaluates_and_encodes_nothing(self, monkeypatch):
        async def body():
            server = ForecastServer(config())
            await call(server, op="observe", key="s", points=points("U")[:10])
            first = [await call(server, op=op, key="s") for op in ("forecast", "report")]
            forecaster = server.session["s"]
            for op in ("forecast", "report"):
                # Encoded once, and the text kept with the result.
                assert "json_text" in vars(forecaster._read_memo[op][1])

            def computed(*args, **kwargs):
                raise AssertionError("a repeated read was computed again")

            for name in ("confidence_band", "predictive_metric_report"):
                monkeypatch.setattr(online, name, computed)
            assert forecaster.forecast(12.0) is forecaster.forecast(12.0)
            with pytest.raises(ValueError, match="read-only"):
                forecaster.forecast(12.0).band.center[0] = 0.0
            for response in first:
                again = await call(server, op=response["op"], key="s")
                assert result_text(again) == result_text(response)

        asyncio.run(body())

    def test_the_memo_is_freed_with_its_stream(self):
        async def body():
            server = ForecastServer(config())
            await call(server, op="observe", key="s", points=points("L")[:8])
            assert (await call(server, op="report", key="s"))["ok"]
            assert server.session["s"]._read_memo
            stream = weakref.ref(server.session["s"])
            assert (await call(server, op="unregister", key="s"))["ok"]
            return stream

        stream = asyncio.run(body())
        gc.collect()
        assert stream() is None


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
class TestCounters:
    def test_a_hit_counts_what_the_read_it_replaces_counts(self):
        async def body():
            tracer = Tracer()
            server = ForecastServer(config(trace=tracer))
            await call(server, op="observe", key="s", points=points("W")[:10])
            for _ in range(3):
                assert (await call(server, op="forecast", key="s"))["ok"]
                assert (await call(server, op="report", key="s"))["ok"]
            metrics = tracer.metrics
            # Every report makes a forecast, hit or miss.
            assert server.session.stats()["forecasts"] == 6
            assert metrics.counter("serving.forecasts") == 6
            assert metrics.counter("serving.read_memo.misses") == 2
            assert metrics.counter("serving.read_memo.hits") == 4
            # The memo's counters are not on the wire.
            stats = (await call(server, op="stats"))["result"]
            assert not any("memo" in name for name in stats["server"])

        asyncio.run(body())


# ----------------------------------------------------------------------
# The memo against an oracle
# ----------------------------------------------------------------------
STREAMS = {
    # key: (family, nominal, scenario); "c" is registered by its first observe
    "a": ("quadratic", 1.0, "V"),
    "b": ("competing_risks", None, "U"),
    "c": (None, None, "L"),
}
STEP_WEIGHTS = {
    "observe": 22,
    "tick": 8,
    "install": 5,
    "reregister": 4,
    "forecast": 32,
    "report": 14,
    "drift": 8,
    "stats": 4,
}


class _Fleet:
    """The test's own record of each stream: its points and where it is."""

    def __init__(self):
        self.points = {key: points(scenario) for key, (_, _, scenario) in STREAMS.items()}
        self.sent = {key: 0 for key in STREAMS}

    def fresh_answer(self, forecaster: OnlineForecaster, key: str, request) -> str:
        """The result of a read *request* as JSON text, computed by a fresh
        forecaster in *forecaster*'s state: the same points, the same fit
        made at the same count, an empty memo."""
        _, nominal, _ = STREAMS[key]
        observed = self.points[key][: self.sent[key]]
        fit_n = forecaster.n_observations - forecaster.pending
        twin = OnlineForecaster(
            forecaster.family,
            key=key,
            nominal=nominal,
            options=EngineOptions(**CHEAP, trace=False),
        )
        twin.observe_many(observed[:fit_n])
        twin.install_fit(forecaster.fit)
        if fit_n < len(observed):
            twin.observe_many(observed[fit_n:])
        horizon = request.get("horizon")
        if request["op"] == "forecast":
            fresh = twin.forecast(
                12.0 if horizon is None else float(horizon),
                n_points=request.get("n_points", 25),
                confidence=float(request.get("confidence", 0.95)),
            )
        else:
            fresh = twin.report(horizon=None if horizon is None else float(horizon))
        return json.dumps(fresh.to_dict(), allow_nan=False)


def _register_request(key):
    family, nominal, _ = STREAMS[key]
    request = {"op": "register", "key": key}
    if family is not None:
        request["family"] = family
    if nominal is not None:
        request["nominal"] = nominal
    return request


def _read_request(rng, op, key):
    request = {"op": op, "key": key}
    if op == "forecast":
        for name, choices in (
            ("horizon", [None, 3, 6.5, 12]),
            ("n_points", [None, 3, 25]),
            ("confidence", [None, 0.8]),
        ):
            value = rng.choice(choices)
            if value is not None:
                request[name] = value
    elif op == "report":
        horizon = rng.choice([None, 2, 5])
        if horizon is not None:
            request["horizon"] = horizon
    return request


async def _drive_against_oracle(seed):
    """Serve one seeded script on a server with the memo and on one
    whose memo is emptied before every request; check every answer."""
    rng = random.Random(seed)
    tracers = Tracer(), Tracer()
    memo_server, plain_server = (ForecastServer(config(trace=t)) for t in tracers)
    servers = (memo_server, plain_server)
    fleet = _Fleet()
    last_reads: dict[tuple[str, str], dict] = {}
    checked = ticked = 0

    async def both(**request):
        for forecaster in plain_server.session.forecasters.values():
            forecaster._invalidate_reads()
        got, want = [await call(server, **request) for server in servers]
        assert without_timings(got) == without_timings(want), request
        return got

    for key in ("a", "b"):
        await both(**_register_request(key))
    ops, weights = zip(*STEP_WEIGHTS.items())
    for index in range(150):
        step = rng.choices(ops, weights)[0]
        key = rng.choice(sorted(STREAMS))
        known = key in memo_server.session
        fitted = known and memo_server.session[key].fit is not None
        if step == "observe" and fleet.sent[key] < len(fleet.points[key]):
            count = rng.randint(1, 3)
            chunk = fleet.points[key][fleet.sent[key] : fleet.sent[key] + count]
            await both(op="observe", key=key, points=chunk)
            fleet.sent[key] += len(chunk)
        elif step == "tick":
            adopted = [sorted(await server.refit_tick()) for server in servers]
            assert adopted[0] == adopted[1]
            ticked += bool(adopted[0])
        elif step == "install" and fitted:
            family = make_model(rng.choice(["quadratic", "competing_risks"]))
            curve = memo_server.session[key].curve
            if len(curve) < family.n_params + 2:
                continue
            fit = fit_least_squares(family, curve, options=EngineOptions(**CHEAP, trace=False))
            for server in servers:
                server.session[key].install_fit(fit, family=family)
        elif step == "reregister" and known:
            await both(op="unregister", key=key)
            if STREAMS[key][0] is not None:  # else its next observe registers it
                await both(**_register_request(key))
            fleet.sent[key] = 0
        elif step == "stats":
            await both(op="stats")
        elif step in ("forecast", "report", "drift"):
            # Reads come in runs of one to three, and half the runs
            # repeat the stream's last read of their op.
            last = last_reads.get((step, key))
            request = dict(last) if last and rng.random() < 0.5 else _read_request(rng, step, key)
            last_reads[step, key] = request
            for repeat in range(rng.randint(1, 3)):
                response = await both(**request, id=[index, repeat])
                if response["ok"] and step != "drift":
                    expected = fleet.fresh_answer(memo_server.session[key], key, request)
                    assert result_text(response) == expected
                    checked += 1
    assert memo_server.session.stats() == plain_server.session.stats()
    memo_metrics, plain_metrics = (t.metrics for t in tracers)
    assert memo_metrics.counter("serving.forecasts") == plain_metrics.counter(
        "serving.forecasts"
    )
    hits = memo_metrics.counter("serving.read_memo.hits")
    misses = memo_metrics.counter("serving.read_memo.misses")
    assert plain_metrics.counter("serving.read_memo.hits") == 0
    return checked, hits, misses, ticked


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_read_equals_a_fresh_computation(seed):
    checked, hits, misses, ticked = asyncio.run(_drive_against_oracle(seed))
    # The script exercised both sides of the memo, and refits.
    assert checked >= 20 and hits >= 10 and misses >= 10 and ticked >= 2


# ----------------------------------------------------------------------
# The spliced line is json.dumps of the response
# ----------------------------------------------------------------------
_ODD_STRINGS = ['"', "\\", "\n\t", "é", " ", "\U0001f600", '{"ok": false}, "result": 1']
IDS = st.one_of(
    st.none(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.sampled_from(_ODD_STRINGS),
    st.lists(
        st.one_of(st.none(), st.integers(), st.text(max_size=4), st.sampled_from(_ODD_STRINGS)),
        max_size=4,
    ),
)


@pytest.fixture(scope="module")
def fitted_server():
    loop = asyncio.new_event_loop()
    server = ForecastServer(config())
    loop.run_until_complete(call(server, op="observe", key="s", points=points("K")[:10]))
    loop.run_until_complete(call(server, op="forecast", key="s"))  # the first fit
    yield server, loop
    loop.run_until_complete(loop.shutdown_default_executor())
    loop.close()


@settings(max_examples=150, deadline=None)
@given(
    request_id=IDS,
    op=st.sampled_from(["forecast", "report"]),
    horizon=st.sampled_from([None, 4, 12.0]),
    deadline=st.one_of(
        st.none(),
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.0, max_value=1e6),
    ),
)
def test_the_spliced_line_is_json_dumps_of_the_response(
    fitted_server, request_id, op, horizon, deadline
):
    server, loop = fitted_server
    request = {"id": request_id, "op": op, "key": "s"}
    if horizon is not None:
        request["horizon"] = horizon
    if deadline is not None:
        request["deadline_ms"] = deadline
    line = loop.run_until_complete(server._handle_line(json.dumps(request).encode()))
    got = json.loads(line)
    forecaster = server.session["s"]
    if op == "forecast":
        result = forecaster.forecast(12.0 if horizon is None else float(horizon))
    else:
        result = forecaster.report(horizon=None if horizon is None else float(horizon))
    response = {
        "id": request_id,
        "ok": True,
        "op": op,
        "result": result.to_dict(),
        "elapsed_ms": got["elapsed_ms"],
    }
    if deadline is not None:
        response["deadline_exceeded"] = got["deadline_exceeded"]
    assert line == json.dumps(response, allow_nan=False).encode() + b"\n"
