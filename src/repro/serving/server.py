"""Async JSONL-over-TCP front end for a :class:`ForecastSession` fleet.

One :class:`ForecastServer` multiplexes thousands of concurrent streams
over a single :class:`~repro.serving.session.ForecastSession`. Clients
hold ordinary TCP connections and exchange newline-delimited JSON: one
request object per line in, one response object per line out, answered
in order per connection, so a client may pipeline freely.

Request/response schema (see docs/serving.md for the full protocol)::

    → {"id": 7, "op": "observe", "key": "s1", "t": 3.0, "p": 0.91}
    ← {"id": 7, "ok": true, "op": "observe", "result": {...},
       "elapsed_ms": 0.04}
    → {"id": 8, "op": "forecast", "key": "s1", "horizon": 12}
    ← {"id": 8, "ok": false, "op": "forecast", "elapsed_ms": 0.1,
       "error": {"code": 429, "type": "AdmissionError", "message": ...}}

Design rules, in order of importance:

* **The event loop never solves.** Forecasts and reports are served
  from the incumbent fit; staleness is repaid by the batched refit
  ticker, which runs the session's
  plan → execute → adopt split with the blocking solves on a worker
  thread, and by the optional remediation loop
  (:mod:`repro.serving.remediation`), run the same way. The only
  solve a request can trigger is a stream's *first* fit, which runs
  the same execute → adopt split for that one stream in the default
  executor under the inflight cap.
* **Admission control over queueing.** Registering beyond
  :attr:`ServerConfig.max_streams`, or needing a first fit while all
  :attr:`ServerConfig.max_inflight_refits` slots are busy, fails fast
  with a 429-style :class:`~repro.serving.errors.AdmissionError`
  rather than parking work on an unbounded queue.
* **Backpressure on slow consumers.** Every response write awaits
  ``drain()``, so a connection whose client stops reading suspends
  its own request processing instead of growing the write buffer.
* **Per-request SLO accounting.** Every response carries
  ``elapsed_ms`` (and honors a client ``deadline_ms`` tag); latencies
  land in a :class:`~repro.observability.metrics.MetricsRegistry`
  histogram per op, so ``stats`` answers p50/p99 straight from the
  sliding window.
* **Only finite JSON on the wire.** A request holding ``NaN``,
  ``Infinity`` or a number past the float range is a 400, and so is a
  number field that is present but not a number (a bool, a string or
  ``null``); a result that cannot be encoded as strict JSON is
  answered, in its place, with a typed 400 instead.
* **A repeated read costs what its answer costs.** A stream answers
  a repeat of its last ``forecast`` or ``report`` in the same state
  from its read memo (:class:`~repro.serving.online.OnlineForecaster`),
  and a result is encoded once
  (:attr:`~repro.serving.online.Forecast.json_text`); the response
  line splices that text in, byte for byte what encoding the whole
  response would write.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, NoReturn

from repro._env import read_env
from repro.exceptions import FitError, ParameterError, ReproError, ServingError
from repro.fitting.options import EngineOptions
from repro.fitting.result import FitResult
from repro.models.base import ResilienceModel
from repro.models.registry import available_models, make_model
from repro.observability.metrics import MetricsRegistry
from repro.serving.errors import (
    AdmissionError,
    ProtocolError,
    RefitTimeout,
    StreamNotFound,
    error_code,
)
from repro.serving.online import (
    _STRICT_JSON,
    Forecast,
    ForecastReport,
    OnlineForecaster,
    RefitPolicy,
)
from repro.serving.remediation import RemediationLoop
from repro.serving.session import ForecastSession, PlannedRefit

__all__ = ["ForecastServer", "ServerConfig"]

#: Ops the dispatcher accepts (the protocol surface).
SERVER_OPS: tuple[str, ...] = (
    "ping",
    "register",
    "unregister",
    "observe",
    "forecast",
    "report",
    "drift",
    "stats",
)

#: Most points a ``forecast`` may ask for; bounds one response line.
MAX_FORECAST_POINTS = 1000


@dataclass(frozen=True)
class ServerConfig:
    """Everything a :class:`ForecastServer` needs to bind and behave.

    Attributes
    ----------
    host, port:
        Bind address; port ``0`` asks the OS for an ephemeral port
        (read the real one from :attr:`ForecastServer.address`).
    max_streams:
        Admission cap on concurrently registered streams; registration
        (explicit or ``observe`` auto-registration) beyond it is
        rejected with a 429.
    max_inflight_refits:
        First-fit solves allowed in flight at once. A ``forecast`` or
        ``report`` that needs a first fit while every slot is busy is
        rejected with a 429 rather than queued.
    refit_interval:
        Seconds between batched refit ticks (``refit_stale`` with the
        solves on a worker thread). ``0`` disables the ticker — then
        only first fits and remediation update models.
    refit_timeout:
        Deadline in seconds for a request-triggered first fit; on
        expiry the request fails with a 504
        :class:`~repro.serving.errors.RefitTimeout` (the solve itself
        keeps running and installs when done).
    refit_batch_limit:
        Most plans one refit tick executes; the rest stay due and are
        picked up by later ticks. Bounds how long a tick occupies the
        worker thread at fleet scale (10k due streams would otherwise
        pin it for minutes). ``0`` removes the bound.
    remediation_interval:
        Seconds between remediation cycles; ``0`` disables the loop.
    refit_every_k:
        The fleet-wide :class:`~repro.serving.online.RefitPolicy`
        cadence (refit a stream after this many new observations).
    family:
        Default model family for auto-registered streams.
    default_horizon:
        Horizon (time units) used by ``forecast`` requests that omit
        one.
    max_request_bytes:
        Per-line read limit; longer request lines are a protocol
        error and close the connection.
    options:
        :class:`~repro.fitting.EngineOptions` for the underlying
        session — the serving layer's only engine-configuration input.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_streams: int = 10_000
    max_inflight_refits: int = 2
    refit_interval: float = 0.25
    refit_timeout: float = 30.0
    refit_batch_limit: int = 256
    remediation_interval: float = 0.0
    refit_every_k: int = 8
    family: str = "competing_risks"
    default_horizon: float = 12.0
    max_request_bytes: int = 1 << 20
    options: EngineOptions = field(default_factory=EngineOptions)

    def __post_init__(self) -> None:
        if self.max_streams < 1:
            raise ServingError(f"max_streams must be >= 1, got {self.max_streams}")
        if self.max_inflight_refits < 1:
            raise ServingError(
                f"max_inflight_refits must be >= 1, got {self.max_inflight_refits}"
            )
        for name in ("refit_interval", "remediation_interval"):
            if getattr(self, name) < 0.0:
                raise ServingError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.refit_timeout <= 0.0:
            raise ServingError(
                f"refit_timeout must be positive, got {self.refit_timeout}"
            )
        if self.refit_batch_limit < 0:
            raise ServingError(
                f"refit_batch_limit must be >= 0, got {self.refit_batch_limit}"
            )
        if self.max_request_bytes < 1024:
            raise ServingError(
                f"max_request_bytes must be >= 1024, got {self.max_request_bytes}"
            )

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServerConfig":
        """A config from the ``REPRO_SERVE_*`` environment, then *overrides*.

        Every variable is registered in
        :data:`repro._env.REGISTERED_ENV_VARS`; unset ones keep the
        dataclass defaults.
        """
        settings: dict[str, Any] = {}
        env_fields: tuple[tuple[str, str, Any], ...] = (
            ("REPRO_SERVE_HOST", "host", str),
            ("REPRO_SERVE_PORT", "port", int),
            ("REPRO_SERVE_MAX_STREAMS", "max_streams", int),
            ("REPRO_SERVE_MAX_INFLIGHT_REFITS", "max_inflight_refits", int),
            ("REPRO_SERVE_REFIT_INTERVAL", "refit_interval", float),
            ("REPRO_SERVE_REFIT_TIMEOUT", "refit_timeout", float),
        )
        for env_name, field_name, convert in env_fields:
            raw = read_env(env_name)
            if raw is None or raw == "":
                continue
            try:
                settings[field_name] = convert(raw)
            except ValueError as exc:
                raise ServingError(f"{env_name}={raw!r}: {exc}") from exc
        settings.update(overrides)
        return cls(**settings)

    def replace(self, **changes: Any) -> "ServerConfig":
        """A copy with *changes* applied."""
        return dataclasses.replace(self, **changes)


def _strict_json(op: str, result: Any) -> str:
    """*result* encoded as strict JSON; a forecast or report is encoded
    once per result object.

    A result that strict JSON cannot carry (``NaN`` or ``±inf``, as a
    model evaluated far outside its fit can produce) is answered in its
    place with a typed 400, like a non-finite observation.
    """
    try:
        if isinstance(result, (Forecast, ForecastReport)):
            return result.json_text
        return _STRICT_JSON.encode(result)
    except ValueError as exc:
        raise ServingError(
            f"op {op!r} produced a result that is not valid JSON: {exc}"
        ) from exc


def _response_line(
    head: dict[str, Any], result: str | None, tail: dict[str, Any]
) -> bytes:
    """``json.dumps({**head, "result": result, **tail})`` and a newline,
    as bytes, with *result* spliced in as the JSON text it already is
    (no ``result`` key when it is ``None``)."""
    text = _STRICT_JSON.encode(head)[:-1]
    if result is not None:
        text += ', "result": ' + result
    return (text + ", " + _STRICT_JSON.encode(tail)[1:] + "\n").encode()


def _error_body(exc: BaseException) -> dict[str, Any]:
    return {
        "code": error_code(exc),
        "type": type(exc).__name__,
        "message": str(exc),
    }


def _non_finite(text: str) -> NoReturn:
    raise ProtocolError(
        "request holds a non-finite number; the protocol carries only "
        "finite JSON numbers"
    )


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        _non_finite(text)
    return value


def _float_range_int(text: str) -> int:
    value = int(text)
    if abs(value) > sys.float_info.max:
        _non_finite(text)
    return value


#: One decoder for every request line: ``json.loads`` with hooks would
#: build a new decoder per call.
_REQUEST_DECODER = json.JSONDecoder(
    parse_constant=_non_finite,
    parse_float=_finite_float,
    parse_int=_float_range_int,
)


def _parse_request(line: bytes) -> Any:
    """The request line as JSON, holding only finite numbers."""
    try:
        # Decoded as json.loads decodes bytes.
        text = line.decode(json.detect_encoding(line), "surrogatepass")
        return _REQUEST_DECODER.decode(text)
    except ValueError as exc:  # bad JSON or UTF-8, or an int past the digit limit
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc


def _is_number(value: Any) -> bool:
    # JSON true/false decode to bool, a subclass of int.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(request: dict[str, Any], name: str, default: Any = None) -> Any:
    """The request's number field *name*, or *default* when it is absent.

    A present field must be an int or a float: a bool, a string or
    ``null`` is a :class:`~repro.serving.errors.ProtocolError`.
    """
    if name not in request:
        return default
    value = request[name]
    if not _is_number(value):
        raise ProtocolError(f"{name!r} must be a number, got {value!r}")
    return value


def _family(name: Any) -> ResilienceModel:
    """The model family a ``register`` request's ``family`` names."""
    error = ProtocolError(
        f"'family' must name a registered model "
        f"({', '.join(available_models())}), got {name!r}"
    )
    if not isinstance(name, str):
        raise error
    try:
        return make_model(name)
    except ParameterError as exc:
        raise error from exc


class ForecastServer:
    """The asyncio JSONL-over-TCP forecast service.

    Parameters
    ----------
    config:
        :class:`ServerConfig`; defaults serve on an ephemeral local
        port.
    session:
        An existing :class:`~repro.serving.session.ForecastSession` to
        serve (tests inject pre-populated fleets); by default one is
        built from the config's options, family, and refit cadence.
    remediation:
        An existing :class:`~repro.serving.remediation.RemediationLoop`
        over the same session; by default one is built (sharing this
        server's metrics registry) whenever
        :attr:`ServerConfig.remediation_interval` is positive.

    Usage::

        server = ForecastServer(ServerConfig(port=0))
        await server.start()
        host, port = server.address
        ...
        await server.stop()
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        *,
        session: ForecastSession | None = None,
        remediation: RemediationLoop | None = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.session = (
            session
            if session is not None
            else ForecastSession(
                options=self.config.options,
                family=self.config.family,
                policy=RefitPolicy(every_k=self.config.refit_every_k),
            )
        )
        self.metrics = MetricsRegistry()
        self.remediation = remediation
        if self.remediation is None and self.config.remediation_interval > 0:
            self.remediation = RemediationLoop(
                self.session, metrics=self.metrics
            )
        self._server: asyncio.AbstractServer | None = None
        #: Open connection → its handler task, so :meth:`stop` can close
        #: every connection and wait for its handler.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._tickers: list[asyncio.Task] = []
        self._first_fits: dict[str, asyncio.Task] = {}
        self._inflight_refits = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (requires :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServingError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> tuple[str, int]:
        """Bind, start the refit/remediation tickers, return the address."""
        if self._server is not None:
            raise ServingError("server is already started")
        self._server = await asyncio.start_server(
            self._accept,
            self.config.host,
            self.config.port,
            limit=self.config.max_request_bytes,
        )
        if self.config.refit_interval > 0:
            self._tickers.append(
                asyncio.create_task(
                    self._ticker(self.config.refit_interval, self.refit_tick)
                )
            )
        if self.remediation is not None and self.config.remediation_interval > 0:
            self._tickers.append(
                asyncio.create_task(
                    self._ticker(
                        self.config.remediation_interval, self.remediation_tick
                    )
                )
            )
        return self.address

    async def serve_forever(self) -> None:
        """Block until cancelled (pair with :meth:`start`)."""
        if self._server is None:
            raise ServingError("server is not started")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop tickers, close the listener, then every open connection.

        A closed connection's handler reads end-of-file and returns once
        any request it is answering is done; ``stop`` waits for every
        handler, so no connection outlives the server.
        """
        for task in self._tickers:
            task.cancel()
        for task in self._tickers:
            try:
                await task
            except asyncio.CancelledError:  # repro-lint: disable=R6
                pass  # the cancellation we just requested
        self._tickers.clear()
        if self._server is not None:
            self._server.close()
            while self._connections:
                handlers = list(self._connections.items())
                for writer, _ in handlers:
                    writer.close()
                await asyncio.wait([task for _, task in handlers])
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Background tickers
    # ------------------------------------------------------------------
    async def _ticker(self, interval: float, tick: Any) -> None:
        while True:
            await asyncio.sleep(interval)
            try:
                await tick()
            except asyncio.CancelledError:
                raise
            except ReproError:
                # A failed batch must not kill the ticker; the next
                # tick retries with fresh plans.
                self.metrics.inc("serve.ticker_errors")

    async def refit_tick(self) -> dict[str, FitResult]:
        """One batched-refit pass: plan on the loop, solve off-thread,
        adopt on the loop. Returns the adopted fits by stream."""
        planned = self.session.refit_plans()
        if not planned:
            return {}
        limit = self.config.refit_batch_limit
        if limit and len(planned) > limit:
            # Worst-staleness first: oldest pending observations win the
            # bounded batch; the rest stay due for the next tick.
            planned.sort(key=lambda entry: entry.forecaster.pending, reverse=True)
            self.metrics.inc("serve.refits_deferred", len(planned) - limit)
            planned = planned[:limit]
        loop = asyncio.get_running_loop()
        with self.metrics.timer("serve.refit_tick_seconds"):
            fits = await loop.run_in_executor(
                None, self.session.execute_refits, planned
            )
        adopted = self._adopt_refits(planned, fits)
        self.metrics.inc("serve.refit_ticks")
        self.metrics.inc("serve.refits_adopted", len(adopted))
        return adopted

    def _adopt_refits(
        self, planned: list[PlannedRefit], fits: list[FitResult | FitError]
    ) -> dict[str, FitResult]:
        """Adopt solved refits on the loop, counting the failed ones."""
        failed = sum(isinstance(fit, FitError) for fit in fits)
        self.metrics.inc("serve.refits_failed", failed)
        return self.session.adopt_refits(planned, fits)

    async def remediation_tick(self) -> dict[str, int]:
        """One remediation cycle with the solves on a worker thread."""
        assert self.remediation is not None
        plans = self.remediation.plan()
        if not plans:
            return {"detected": 0, "executed": 0, "adopted": 0}
        loop = asyncio.get_running_loop()
        outcomes = await loop.run_in_executor(
            None, self.remediation.execute, plans
        )
        report = self.remediation.adopt(plans, outcomes)
        return report.to_dict()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Start and track the handler of a new connection.

        The single mutation funnel for additions to ``_connections``;
        the handler's completion removes it again.
        """
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer)
        )
        self._connections[writer] = task
        task.add_done_callback(lambda _t: self._forget_connection(writer))

    def _forget_connection(self, writer: asyncio.StreamWriter) -> None:
        """Drop a finished connection (see :meth:`_accept`)."""
        self._connections.pop(writer, None)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.inc("serve.connections")
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Request line exceeded max_request_bytes: answer
                    # with a protocol error, then drop the connection —
                    # the stream is no longer line-synchronized.
                    oversize = ProtocolError(
                        "request line exceeds "
                        f"{self.config.max_request_bytes} bytes"
                    )
                    self._count_error(oversize)
                    body = {"id": None, "ok": False, "error": _error_body(oversize)}
                    await self._write(writer, json.dumps(body).encode() + b"\n")
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._handle_line(line)
                await self._write(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            self.metrics.inc("serve.connection_resets")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # repro-lint: disable=R6
                pass  # benign teardown race: the client closed first

    async def _write(self, writer: asyncio.StreamWriter, line: bytes) -> None:
        writer.write(line)
        # Backpressure: a consumer that stops reading suspends this
        # connection's processing here instead of growing the buffer.
        await writer.drain()

    async def _handle_line(self, line: bytes) -> bytes:
        """The response line to one request line: strict JSON and a newline.

        The result is encoded inside the timed span, so ``elapsed_ms``
        covers it; a ``forecast`` or ``report`` the stream's read memo
        answers is not encoded again.
        """
        start = time.perf_counter()
        request_id: Any = None
        deadline: float | None = None
        op = "?"
        result: str | None = None
        try:
            request = _parse_request(line)
            if not isinstance(request, dict):
                raise ProtocolError(
                    f"request must be a JSON object, got {type(request).__name__}"
                )
            request_id = request.get("id")
            op = request.get("op")
            tag = _number(request, "deadline_ms")
            deadline = None if tag is None else float(tag)
            if op not in SERVER_OPS:
                raise ProtocolError(
                    f"unknown op {op!r}; supported: {', '.join(SERVER_OPS)}"
                )
            result = _strict_json(op, await self._dispatch(op, request))
            head: dict[str, Any] = {"id": request_id, "ok": True, "op": op}
        except ReproError as exc:
            self._count_error(exc)
            head = {
                "id": request_id,
                "ok": False,
                "op": op,
                "error": _error_body(exc),
            }
        elapsed_s = time.perf_counter() - start
        elapsed_ms = elapsed_s * 1e3
        tail: dict[str, Any] = {"elapsed_ms": round(elapsed_ms, 4)}
        if deadline is not None:
            tail["deadline_exceeded"] = elapsed_ms > deadline
        self.metrics.inc("serve.requests")
        # Seconds, like every timer: the registry's buckets are in s.
        self.metrics.observe("serve.latency_s", elapsed_s)
        self.metrics.observe(f"serve.latency_s.{op}", elapsed_s)
        return _response_line(head, result, tail)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, op: str, request: dict[str, Any]) -> Any:
        if op == "ping":
            return {"pong": True, "streams": len(self.session)}
        if op == "stats":
            return self.stats()
        key = request.get("key")
        if not isinstance(key, str) or not key:
            raise ProtocolError(f"op {op!r} requires a string 'key'")
        if op == "register":
            return self._op_register(key, request)
        if op == "unregister":
            self.session.unregister(key)
            self._forget_first_fit(key)
            return {"key": key, "streams": len(self.session)}
        if op == "observe":
            return self._op_observe(key, request)
        if op == "drift":
            forecaster = self.session[key]
            return {"key": key, "drift": forecaster.drift()}
        if op == "forecast":
            return await self._op_forecast(key, request)
        if op == "report":
            return await self._op_report(key, request)
        raise ProtocolError(f"unknown op {op!r}")  # pragma: no cover

    def _admit_stream(self, key: str) -> None:
        if key not in self.session and len(self.session) >= self.config.max_streams:
            self.metrics.inc("serve.rejected_register")
            raise AdmissionError(
                f"stream fleet is full ({self.config.max_streams} streams); "
                f"cannot admit {key!r}"
            )

    def _op_register(self, key: str, request: dict[str, Any]) -> dict[str, Any]:
        family = _family(request["family"]) if "family" in request else None
        nominal = _number(request, "nominal")
        self._admit_stream(key)
        self.session.register(
            key,
            family=family,
            nominal=None if nominal is None else float(nominal),
        )
        return {"key": key, "streams": len(self.session)}

    def _op_observe(self, key: str, request: dict[str, Any]) -> dict[str, Any]:
        points = request.get("points")
        if points is None:
            if "t" not in request or "p" not in request:
                raise ProtocolError(
                    "op 'observe' requires 't' and 'p' (or a 'points' list)"
                )
            points = [[_number(request, "t"), _number(request, "p")]]
        if not isinstance(points, list) or not points:
            raise ProtocolError("'points' must be a non-empty list of [t, p] pairs")
        self._admit_stream(key)
        for pair in points:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(_is_number(v) for v in pair)
            ):
                raise ProtocolError(
                    f"'points' entries must be [t, p] number pairs, got {pair!r}"
                )
        # Every pair is checked before any is applied: a rejected request
        # leaves the stream, and the registry, as they were.
        self.session.observe_many(key, points)
        forecaster = self.session[key]
        return {
            "key": key,
            "n": forecaster.n_observations,
            "pending": forecaster.pending,
            "ready": forecaster.ready,
        }

    async def _op_forecast(self, key: str, request: dict[str, Any]) -> Forecast:
        horizon = _number(request, "horizon", self.config.default_horizon)
        n_points = request.get("n_points", 25)
        # JSON true/false arrive as the ints 1 and 0: the range rejects them.
        if not (isinstance(n_points, int) and 2 <= n_points <= MAX_FORECAST_POINTS):
            raise ProtocolError(
                f"'n_points' must be an integer from 2 to {MAX_FORECAST_POINTS}, "
                f"got {n_points!r}"
            )
        confidence = request.get("confidence", 0.95)
        if not (isinstance(confidence, (int, float)) and 0.0 < confidence < 1.0):
            raise ProtocolError(
                f"'confidence' must be a number in (0, 1), got {confidence!r}"
            )
        forecaster = await self._ensure_first_fit(key)
        return forecaster.forecast(
            float(horizon), n_points=n_points, confidence=float(confidence)
        )

    async def _op_report(self, key: str, request: dict[str, Any]) -> ForecastReport:
        horizon = _number(request, "horizon")
        forecaster = await self._ensure_first_fit(key)
        return forecaster.report(horizon=None if horizon is None else float(horizon))

    # ------------------------------------------------------------------
    # First-fit admission
    # ------------------------------------------------------------------
    async def _ensure_first_fit(self, key: str) -> OnlineForecaster:
        """The stream's forecaster, cold-fitting it first if needed.

        The solve runs in the loop's default executor under the
        inflight cap; concurrent requests for the same stream share one
        solve. Over-cap demand is rejected (429), and a solve that
        outlives :attr:`ServerConfig.refit_timeout` fails the *request*
        with a 504 while the fit itself keeps cooking.
        """
        forecaster = self.session[key]
        if forecaster.fit is not None:
            return forecaster
        if not forecaster.ready:
            raise ServingError(
                f"stream {key!r} has {forecaster.n_observations} observation(s); "
                f"needs {forecaster.min_points} before the first fit"
            )
        task = self._first_fits.get(key)
        if task is None:
            if self._inflight_refits >= self.config.max_inflight_refits:
                self.metrics.inc("serve.rejected_refit")
                raise AdmissionError(
                    f"all {self.config.max_inflight_refits} first-fit slots "
                    f"are busy; retry stream {key!r} shortly"
                )
            task = asyncio.create_task(self._run_first_fit(key, forecaster))
            self._first_fits[key] = task
            task.add_done_callback(lambda _t: self._forget_first_fit(key))
        try:
            # shield: one waiter timing out must not cancel the shared
            # solve other waiters (and the stream itself) rely on.
            await asyncio.wait_for(
                asyncio.shield(task), timeout=self.config.refit_timeout
            )
        except asyncio.TimeoutError:
            self.metrics.inc("serve.refit_timeouts")
            raise RefitTimeout(
                f"first fit of stream {key!r} exceeded "
                f"{self.config.refit_timeout:.1f}s; it continues in the "
                f"background — retry shortly"
            ) from None
        return forecaster

    def _forget_first_fit(self, key: str) -> None:
        """Drop the stream's in-flight first-fit entry (if any).

        The single mutation funnel for removals from ``_first_fits`` —
        unregister and task-completion callbacks both route through it.
        """
        self._first_fits.pop(key, None)

    async def _run_first_fit(
        self, key: str, forecaster: OnlineForecaster
    ) -> None:
        self._inflight_refits += 1
        try:
            plan = forecaster.refit_plan()
            if plan is None:  # raced with the refit ticker
                return
            planned = [PlannedRefit(key, forecaster, plan)]
            loop = asyncio.get_running_loop()
            fits = await loop.run_in_executor(
                None, self.session.execute_refits, planned
            )
            if self._adopt_refits(planned, fits):
                self.metrics.inc("serve.first_fits")
            (fit,) = fits
            if isinstance(fit, FitError):
                raise fit
        finally:
            self._inflight_refits -= 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _count_error(self, exc: BaseException) -> None:
        self.metrics.inc("serve.errors")
        self.metrics.inc(f"serve.errors.{error_code(exc)}")
        if isinstance(exc, ProtocolError):
            self.metrics.inc("serve.protocol_errors")

    def slo(self) -> dict[str, float]:
        """Current p50/p99 per-request latency (ms), overall and per op."""

        def ms(name: str, q: float) -> float:
            return self.metrics.percentile(name, q) * 1e3

        payload: dict[str, float] = {
            "p50_ms": ms("serve.latency_s", 50),
            "p99_ms": ms("serve.latency_s", 99),
        }
        for op in SERVER_OPS:
            p99 = ms(f"serve.latency_s.{op}", 99)
            if p99 > 0.0:
                payload[f"{op}_p50_ms"] = ms(f"serve.latency_s.{op}", 50)
                payload[f"{op}_p99_ms"] = p99
        return payload

    def stats(self) -> dict[str, Any]:
        """Session totals + server counters + SLO percentiles."""
        counters = self.metrics.snapshot()["counters"]
        return {
            "session": self.session.stats(),
            "server": {
                name: value
                for name, value in sorted(counters.items())
                if name.startswith(("serve.", "remediation."))
            },
            "slo": self.slo(),
        }
