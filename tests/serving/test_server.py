"""The asyncio JSONL server: protocol, admission, refits, SLO accounting."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.exceptions import ServingError
from repro.fitting.cache import FitCache
from repro.fitting.options import EngineOptions
from repro.serving.server import SERVER_OPS, ForecastServer, ServerConfig

CHEAP_OPTIONS = EngineOptions(
    cache=False, trace=False, n_random_starts=2, seed=0, executor="serial"
)

#: A curve shaped like a quadratic dip-and-recover episode.
DIP = [
    (0.0, 1.0), (1.0, 0.8), (2.0, 0.6), (3.0, 0.5), (4.0, 0.55),
    (5.0, 0.65), (6.0, 0.8), (7.0, 0.9), (8.0, 1.0),
]


def cheap_config(**overrides):
    settings = dict(
        family="quadratic",
        refit_every_k=4,
        refit_interval=0.0,  # tests drive refit_tick() explicitly
        options=CHEAP_OPTIONS,
    )
    settings.update(overrides)
    return ServerConfig(**settings)


class Client:
    """Minimal JSONL test client."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, server):
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def rpc(self, **request):
        await self.send_raw(json.dumps(request).encode("utf-8") + b"\n")
        return await self.read()

    async def send_raw(self, payload: bytes):
        self.writer.write(payload)
        await self.writer.drain()

    async def read(self):
        line = await self.reader.readline()
        assert line, "server closed the connection"
        return json.loads(line)

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionResetError:
            pass

    async def fill(self, key, points=DIP):
        return await self.rpc(
            op="observe", key=key, points=[[t, p] for t, p in points]
        )


def serve(coro_factory, config=None, **server_kwargs):
    """Run an async test body against a started server."""

    async def main():
        server = ForecastServer(
            config if config is not None else cheap_config(), **server_kwargs
        )
        await server.start()
        client = await Client.connect(server)
        try:
            return await coro_factory(server, client)
        finally:
            await client.close()
            await server.stop()

    return asyncio.run(main())


class TestServerConfig:
    def test_defaults_are_valid(self):
        config = ServerConfig()
        assert config.max_streams == 10_000
        assert config.port == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_streams": 0},
            {"max_inflight_refits": 0},
            {"refit_interval": -1.0},
            {"refit_timeout": 0.0},
            {"refit_batch_limit": -1},
            {"max_request_bytes": 10},
        ],
    )
    def test_invalid_knobs_raise(self, overrides):
        with pytest.raises(ServingError):
            ServerConfig(**overrides)

    def test_from_env_reads_registered_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_HOST", "0.0.0.0")
        monkeypatch.setenv("REPRO_SERVE_PORT", "7171")
        monkeypatch.setenv("REPRO_SERVE_MAX_STREAMS", "77")
        monkeypatch.setenv("REPRO_SERVE_MAX_INFLIGHT_REFITS", "3")
        monkeypatch.setenv("REPRO_SERVE_REFIT_INTERVAL", "1.5")
        monkeypatch.setenv("REPRO_SERVE_REFIT_TIMEOUT", "9.0")
        config = ServerConfig.from_env()
        assert config.host == "0.0.0.0"
        assert config.port == 7171
        assert config.max_streams == 77
        assert config.max_inflight_refits == 3
        assert config.refit_interval == 1.5
        assert config.refit_timeout == 9.0

    def test_from_env_overrides_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_STREAMS", "77")
        assert ServerConfig.from_env(max_streams=5).max_streams == 5

    def test_from_env_bad_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "not-a-port")
        with pytest.raises(ServingError, match="REPRO_SERVE_PORT"):
            ServerConfig.from_env()


class TestProtocol:
    def test_ping(self):
        async def body(server, client):
            response = await client.rpc(id=1, op="ping")
            assert response["ok"] and response["id"] == 1
            assert response["result"] == {"pong": True, "streams": 0}
            assert response["elapsed_ms"] >= 0.0

        serve(body)

    def test_observe_then_forecast(self):
        async def body(server, client):
            filled = await client.fill("s1")
            assert filled["result"]["n"] == len(DIP)
            assert filled["result"]["ready"]
            response = await client.rpc(id=2, op="forecast", key="s1", horizon=5)
            assert response["ok"]
            result = response["result"]
            assert result["model"] == "quadratic"
            assert len(result["center"]) == 25
            assert result["recovery_time"] is not None

        serve(body)

    def test_report_includes_metrics(self):
        async def body(server, client):
            await client.fill("s1")
            response = await client.rpc(op="report", key="s1")
            assert response["ok"]
            assert "performance_preserved" in response["result"]["metrics"]

        serve(body)

    def test_register_unregister_drift(self):
        async def body(server, client):
            assert (await client.rpc(op="register", key="s1"))["ok"]
            duplicate = await client.rpc(op="register", key="s1")
            assert not duplicate["ok"] and duplicate["error"]["code"] == 400
            drift = await client.rpc(op="drift", key="s1")
            assert drift["ok"] and drift["result"]["drift"] is None
            gone = await client.rpc(op="unregister", key="s1")
            assert gone["ok"] and gone["result"]["streams"] == 0
            missing = await client.rpc(op="drift", key="s1")
            assert missing["error"]["code"] == 404
            assert missing["error"]["type"] == "StreamNotFound"

        serve(body)

    def test_malformed_lines_are_protocol_errors(self):
        async def body(server, client):
            for payload in (b"not json\n", b"[1, 2]\n"):
                await client.send_raw(payload)
                response = await client.read()
                assert not response["ok"]
                assert response["error"]["type"] == "ProtocolError"
                assert response["error"]["code"] == 400
            unknown = await client.rpc(op="warp", key="s1")
            assert unknown["error"]["type"] == "ProtocolError"
            missing_key = await client.rpc(op="observe", t=0.0, p=1.0)
            assert missing_key["error"]["type"] == "ProtocolError"
            bad_points = await client.rpc(op="observe", key="s1", points=[["x", 1]])
            assert bad_points["error"]["type"] == "ProtocolError"
            assert server.metrics.counter("serve.protocol_errors") == 5

        serve(body)

    def test_oversize_line_errors_and_closes(self):
        async def body(server, client):
            huge = b'{"op": "ping", "pad": "' + b"x" * 3000 + b'"}\n'
            await client.send_raw(huge)
            response = await client.read()
            assert response["error"]["type"] == "ProtocolError"
            assert "exceeds" in response["error"]["message"]
            assert await client.reader.readline() == b""  # connection closed

        serve(body, config=cheap_config(max_request_bytes=2048))

    def test_deadline_tagging(self):
        async def body(server, client):
            fast = await client.rpc(op="ping", deadline_ms=60_000)
            assert fast["deadline_exceeded"] is False
            slow = await client.rpc(op="ping", deadline_ms=0.0)
            assert slow["deadline_exceeded"] is True
            untagged = await client.rpc(op="ping")
            assert "deadline_exceeded" not in untagged

        serve(body)

    def test_requests_pipeline_in_order(self):
        async def body(server, client):
            batch = b"".join(
                json.dumps({"id": n, "op": "ping"}).encode() + b"\n"
                for n in range(20)
            )
            await client.send_raw(batch)
            for n in range(20):
                assert (await client.read())["id"] == n

        serve(body)


#: Requests each once answered with a dropped connection, a 500 or a
#: NaN/Infinity on the wire: ``(prelude, request)``, where the prelude
#: lines must succeed on the fitted stream ``s1`` first.
FAR_OBSERVATION = b'{"op": "observe", "key": "s1", "t": 1e200, "p": 0.9}'
BAD_REQUESTS = [
    pytest.param((), b'{"op": "forecast", "key": "s1", "n_points": "abc"}', id="n_points-string"),
    pytest.param((), b'{"op": "forecast", "key": "s1", "n_points": null}', id="n_points-null"),
    pytest.param((), b'{"op": "forecast", "key": "s1", "confidence": "x"}', id="confidence-string"),
    pytest.param((), b'{"op": "forecast", "key": "s1", "horizon": NaN}', id="forecast-horizon-nan"),
    pytest.param((), b'{"op": "forecast", "key": "s1", "horizon": Infinity}', id="forecast-horizon-inf"),
    pytest.param((), b'{"op": "forecast", "key": "s1", "horizon": 1e400}', id="forecast-horizon-overflow"),
    pytest.param((), b'{"op": "report", "key": "s1", "horizon": NaN}', id="report-horizon-nan"),
    pytest.param((), b'{"op": "forecast", "key": "s1", "confidence": 1.0}', id="confidence-one"),
    pytest.param((), b'{"op": "forecast", "key": "s1", "confidence": -1}', id="confidence-negative"),
    pytest.param((), b'{"op": "register", "key": "s2", "nominal": NaN}', id="nominal-nan"),
    pytest.param((), b'{"op": "forecast", "key": "s1", "n_points": 200000}', id="n_points-huge"),
    pytest.param(
        (), b'{"op": "observe", "key": "s1", "t": 1' + b"0" * 400 + b', "p": 0.9}',
        id="observe-int-overflow",
    ),
    pytest.param((), b'{"id": ' + b"9" * 5000 + b', "op": "ping"}', id="int-past-digit-limit"),
    pytest.param((), b'{"op": "ping", "key": "\xc3\x28"}', id="invalid-utf8"),
    pytest.param((FAR_OBSERVATION,), b'{"op": "drift", "key": "s1"}', id="far-drift"),
    pytest.param((FAR_OBSERVATION,), b'{"op": "forecast", "key": "s1"}', id="far-forecast"),
    pytest.param((FAR_OBSERVATION,), b'{"op": "report", "key": "s1"}', id="far-report"),
]


class TestMalformedAndNonFinite:
    """Every bad request gets a typed 400 of strict JSON, and the
    connection goes on answering in order."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("prelude, request_line", BAD_REQUESTS)
    def test_typed_400_then_next_request_in_order(self, prelude, request_line):
        async def body(server, client):
            await client.fill("s1")
            assert (await client.rpc(op="forecast", key="s1"))["ok"]
            for line in prelude:
                await client.send_raw(line + b"\n")
                assert (await client.read())["ok"]
            await client.send_raw(request_line + b"\n" + b'{"id": "next", "op": "ping"}\n')
            raw = await client.reader.readline()
            assert b"NaN" not in raw and b"Infinity" not in raw
            response = json.loads(raw)
            assert response["ok"] is False
            assert response["error"]["code"] == 400
            assert response["error"]["type"] in ("ProtocolError", "ServingError")
            following = await client.read()
            assert following["id"] == "next" and following["ok"]
            assert server.metrics.counter("serve.errors.400") == 1

        serve(body)


class TestAdmission:
    def test_register_beyond_cap_is_429(self):
        async def body(server, client):
            for key in ("a", "b"):
                assert (await client.rpc(op="register", key=key))["ok"]
            rejected = await client.rpc(op="register", key="c")
            assert rejected["error"]["code"] == 429
            assert rejected["error"]["type"] == "AdmissionError"
            # observe auto-registration honors the same cap
            rejected = await client.rpc(op="observe", key="d", t=0.0, p=1.0)
            assert rejected["error"]["code"] == 429
            # existing streams still observe fine
            assert (await client.rpc(op="observe", key="a", t=0.0, p=1.0))["ok"]
            assert server.metrics.counter("serve.rejected_register") == 2

        serve(body, config=cheap_config(max_streams=2))

    def test_unregister_frees_a_slot(self):
        async def body(server, client):
            await client.rpc(op="register", key="a")
            assert not (await client.rpc(op="register", key="b"))["ok"]
            await client.rpc(op="unregister", key="a")
            assert (await client.rpc(op="register", key="b"))["ok"]

        serve(body, config=cheap_config(max_streams=1))


class SlowFitSession:
    """Patches a session so its refit solves (first fits included)
    block until released."""

    def __init__(self, session, release: asyncio.Event):
        self.release = release
        original = session.execute_refits

        def slow(planned):
            # runs on the executor thread; wait for the test to release
            while not release.is_set():
                import time as _time

                _time.sleep(0.005)
            return original(planned)

        session.execute_refits = slow


class TestFirstFitAdmission:
    def test_forecast_without_fit_cold_fits_once(self):
        async def body(server, client):
            await client.fill("s1")
            response = await client.rpc(op="forecast", key="s1")
            assert response["ok"]
            assert server.metrics.counter("serve.first_fits") == 1
            # incumbent reused: no second first-fit
            assert (await client.rpc(op="forecast", key="s1"))["ok"]
            assert server.metrics.counter("serve.first_fits") == 1

        serve(body)

    def test_not_ready_stream_is_a_400(self):
        async def body(server, client):
            await client.rpc(op="observe", key="s1", t=0.0, p=1.0)
            response = await client.rpc(op="forecast", key="s1")
            assert not response["ok"]
            assert response["error"]["code"] == 400
            assert "before the first fit" in response["error"]["message"]

        serve(body)

    def test_saturated_slots_reject_with_429(self):
        async def body(server, client):
            await client.fill("s1")
            await client.fill("s2", [(t, p * 0.9) for t, p in DIP])
            release = asyncio.Event()
            SlowFitSession(server.session, release)
            other = await Client.connect(server)
            try:
                # occupy the only slot with s1's (blocked) first fit
                blocked = asyncio.create_task(
                    other.rpc(op="forecast", key="s1")
                )
                await asyncio.sleep(0.05)
                rejected = await client.rpc(op="forecast", key="s2")
                assert rejected["error"]["code"] == 429
                assert rejected["error"]["type"] == "AdmissionError"
                assert server.metrics.counter("serve.rejected_refit") == 1
                release.set()
                assert (await blocked)["ok"]
                # slot free again: s2 fits now
                assert (await client.rpc(op="forecast", key="s2"))["ok"]
            finally:
                await other.close()

        serve(body, config=cheap_config(max_inflight_refits=1))

    def test_slow_first_fit_times_out_with_504(self):
        async def body(server, client):
            await client.fill("s1")
            release = asyncio.Event()
            SlowFitSession(server.session, release)
            response = await client.rpc(op="forecast", key="s1")
            assert response["error"]["code"] == 504
            assert response["error"]["type"] == "RefitTimeout"
            assert server.metrics.counter("serve.refit_timeouts") == 1
            release.set()
            # the solve finished in the background and installed
            await asyncio.sleep(0.1)
            assert (await client.rpc(op="forecast", key="s1"))["ok"]

        serve(body, config=cheap_config(refit_timeout=0.05))

    def test_concurrent_requests_share_one_first_fit(self):
        async def body(server, client):
            await client.fill("s1")
            release = asyncio.Event()
            SlowFitSession(server.session, release)
            other = await Client.connect(server)
            try:
                first = asyncio.create_task(other.rpc(op="forecast", key="s1"))
                await asyncio.sleep(0.05)
                second = asyncio.create_task(client.rpc(op="forecast", key="s1"))
                await asyncio.sleep(0.05)
                release.set()
                assert (await first)["ok"] and (await second)["ok"]
                assert server.metrics.counter("serve.first_fits") == 1
            finally:
                await other.close()

        serve(body, config=cheap_config(max_inflight_refits=1))


class TestRefitTicker:
    def test_refit_tick_batches_due_streams(self):
        async def body(server, client):
            for key in ("s1", "s2", "s3"):
                await client.fill(key)
            adopted = await server.refit_tick()
            assert sorted(adopted) == ["s1", "s2", "s3"]
            assert server.metrics.counter("serve.refit_ticks") == 1
            assert server.metrics.counter("serve.refits_adopted") == 3
            # nothing due anymore
            assert await server.refit_tick() == {}

        serve(body)

    def test_batch_limit_defers_worst_last(self):
        async def body(server, client):
            await client.fill("short", DIP[:6])
            await client.fill("long", DIP)  # more pending → higher priority
            adopted = await server.refit_tick()
            assert list(adopted) == ["long"]
            assert server.metrics.counter("serve.refits_deferred") == 1
            adopted = await server.refit_tick()
            assert list(adopted) == ["short"]

        serve(body, config=cheap_config(refit_batch_limit=1))

    def test_interval_ticker_runs_by_itself(self):
        async def body(server, client):
            await client.fill("s1")
            for _ in range(100):
                if server.metrics.counter("serve.refit_ticks"):
                    break
                await asyncio.sleep(0.02)
            assert server.metrics.counter("serve.refits_adopted") == 1
            # ticker-installed fit serves without a first fit
            response = await client.rpc(op="forecast", key="s1")
            assert response["ok"]
            assert server.metrics.counter("serve.first_fits") == 0

        serve(body, config=cheap_config(refit_interval=0.02))


class TestRefitFailureIsolation:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stream_that_cannot_converge_does_not_stall_the_ticker(self):
        async def body(server, client):
            await client.fill("healthy", DIP[:6])
            # Finite values no start can fit: its refit always fails.
            await client.fill("huge", [(t, p * 1e200) for t, p in DIP])
            await client.fill("healthy", DIP[6:])
            healthy = server.session["healthy"]
            for _ in range(250):
                if healthy.fit is not None and healthy.pending == 0:
                    break
                await asyncio.sleep(0.02)
            assert healthy.n_observations == len(DIP)
            assert healthy.fit is not None and healthy.pending == 0
            assert server.session["huge"].fit is None
            assert server.metrics.counter("serve.ticker_errors") == 0
            assert server.metrics.counter("serve.refits_failed") >= 1
            assert server.session.stats()["refits_failed"] >= 1

        serve(body, config=cheap_config(refit_interval=0.02))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_first_fit_answers_with_its_error_code(self):
        async def body(server, client):
            await client.fill("huge", [(t, p * 1e200) for t, p in DIP])
            response = await client.rpc(op="forecast", key="huge")
            assert response["error"]["code"] == 500
            assert response["error"]["type"] == "ConvergenceError"
            assert server.metrics.counter("serve.first_fits") == 0
            assert server.metrics.counter("serve.refits_failed") == 1

        serve(body)


class TestFirstFitCache:
    def test_identical_streams_share_a_cached_first_fit(self):
        cache = FitCache()

        async def body(server, client):
            await client.fill("s1")
            await client.fill("s2")
            assert (await client.rpc(op="forecast", key="s1"))["ok"]
            assert cache.stats()["hits"] == 0
            assert (await client.rpc(op="forecast", key="s2"))["ok"]
            assert server.metrics.counter("serve.first_fits") == 2
            assert cache.stats()["hits"] == 1
            assert server.session["s2"].fit.details["cache_hit"]

        serve(body, config=cheap_config(options=CHEAP_OPTIONS.replace(cache=cache)))


class TestEngineOption:
    """First fits and tick refits run on the session's engine."""

    def test_first_fit_and_tick_refit_use_the_session_engine(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIT_ENGINE", raising=False)

        async def body(server, client):
            await client.fill("s1", DIP[:5])
            assert (await client.rpc(op="forecast", key="s1"))["ok"]
            assert server.metrics.counter("serve.first_fits") == 1
            assert server.session["s1"].fit.engine == "batched"
            await client.fill("s1", DIP[5:])
            assert (await server.refit_tick())["s1"].engine == "batched"

        batched = CHEAP_OPTIONS.replace(engine="batched")
        serve(body, config=cheap_config(options=batched))


class TestStats:
    def test_stats_carry_session_server_and_slo(self):
        async def body(server, client):
            await client.fill("s1")
            await client.rpc(op="forecast", key="s1")
            stats = (await client.rpc(op="stats"))["result"]
            assert stats["session"]["streams"] == 1
            assert stats["server"]["serve.requests"] >= 2
            assert stats["slo"]["p50_ms"] > 0.0
            assert stats["slo"]["p99_ms"] >= stats["slo"]["p50_ms"]
            assert "observe_p99_ms" in stats["slo"]

        serve(body)

    def test_lifecycle_errors(self):
        async def main():
            server = ForecastServer(cheap_config())
            with pytest.raises(ServingError, match="not started"):
                server.address
            await server.start()
            with pytest.raises(ServingError, match="already started"):
                await server.start()
            await server.stop()
            await server.stop()  # idempotent

        asyncio.run(main())

    def test_server_ops_pin(self):
        assert SERVER_OPS == (
            "ping",
            "register",
            "unregister",
            "observe",
            "forecast",
            "report",
            "drift",
            "stats",
        )


class _ScriptedClock:
    """``time`` stand-in whose ``perf_counter`` steps by fixed deltas."""

    def __init__(self, *deltas):
        self._readings = []
        now = 100.0
        for delta in deltas:
            self._readings += [now, now + delta]
            now += delta + 1.0

    def perf_counter(self):
        return self._readings.pop(0)


class TestLatencyHistogramUnits:
    def test_latency_buckets_are_in_seconds(self, monkeypatch):
        import repro.serving.server as server_module
        from repro.observability.metrics import TIMER_BUCKETS

        monkeypatch.setattr(server_module, "time", _ScriptedClock(0.0005, 0.050))
        server = ForecastServer(cheap_config())

        async def body():
            await server._handle_line(b'{"op": "ping"}')
            await server._handle_line(b'{"op": "ping"}')

        asyncio.run(body())
        histograms = server.metrics.snapshot()["histograms"]
        assert "serve.latency_ms" not in histograms
        buckets = histograms["serve.latency_s"]["buckets"]
        assert buckets[TIMER_BUCKETS.index(0.001)] == 1  # 0.5 ms: <= 1 ms
        assert buckets[TIMER_BUCKETS.index(0.1)] == 1  # 50 ms: <= 0.1 s
        assert histograms["serve.latency_s.ping"]["buckets"] == buckets
        slo = server.slo()
        assert slo["p50_ms"] == pytest.approx(25.25)
        assert slo["ping_p99_ms"] == pytest.approx(49.505)
