"""The serve workloads: the forecast server in its own process, driven
open-loop over TCP by one client process with at most two connections.

Arrivals are Poisson at fixed, seeded rates and every latency is timed
from the request's scheduled send time, so a stall in the server delays
the requests due after it. The client never reads the server's own
latency percentiles; it times every request itself and keeps the
server-reported ``elapsed_ms`` only to split latency into handler time
and everything else (socket, encode/write, event-loop queue).
"""

from __future__ import annotations

import collections
import gc
import itertools
import json
import math
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from common import (
    HERE,
    BenchError,
    child_env,
    cpu_plan,
    median,
    percentile,
    pinned,
    proc_cpu_s,
    proc_status_kb,
    steal_s,
)

LAUNCHER = HERE / "serve_launcher.py"

#: Client connections; the server is the second process of a 2-CPU box.
CONNECTIONS = 2

#: Seconds of nominal traffic each launch runs before the measured
#: nominal phase, so the phase starts with refits already in flight, as
#: it ends, and not from an idle server.
WARMUP_S = 1.0

#: The rate ladder bisects the offered rate, on a log scale, between the
#: nominal rate and LADDER_SPAN times it, in LADDER_STEPS rungs: the
#: last passing and first failing rung end up LADDER_SPAN ** (1 / 2 **
#: LADDER_STEPS) apart (9%).
LADDER_SPAN = 16.0
LADDER_STEPS = 5

#: A rung passes when its p99 latency is at most P99_LIMIT_MS, the
#: generator's lateness p99 at most LATE_LIMIT_MS, no request failed and
#: the served fits are on average at most ``refit_every_k`` observations
#: old (the refit backlog is not growing).
P99_LIMIT_MS = 100.0
LATE_LIMIT_MS = 25.0

#: Seconds to wait for the responses of a phase before counting the
#: rest as never answered.
DRAIN_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Stream:
    """One stream: its warm-up episode and a seeded continuation."""

    key: str
    times: list[float]
    values: list[float]
    level: float
    rng: np.random.Generator
    step: float
    last_t: float = field(init=False)

    def __post_init__(self) -> None:
        self.last_t = self.times[-1]

    def next_points(self, count: int) -> list[list[float]]:
        """The stream's next *count* observations: the recovered level
        plus measurement noise, one time step apart."""
        points = []
        for noise in self.rng.normal(0.0, 0.001, count):
            self.last_t += self.step
            points.append([self.last_t, float(self.level + noise)])
        return points


def build_streams(fleet: dict[str, Any], seed: int) -> list[Stream]:
    """The warm fleet: one synthetic outage episode per stream, the
    scenarios taken in turn from the V/U/W/L/K templates."""
    from repro.datasets.outage import SCENARIOS, episode_curve

    labels = sorted(SCENARIOS)
    streams = []
    for index in range(int(fleet["streams"])):
        curve = episode_curve(
            labels[index % len(labels)],
            index,
            seed=seed,
            n_points=int(fleet["episode_points"]),
            horizon=float(fleet["horizon"]),
        )
        times = [float(t) for t in curve.times]
        values = [float(p) for p in curve.performance]
        streams.append(
            Stream(
                key=f"s{index:04d}",
                times=times,
                values=values,
                level=float(np.mean(values[-4:])),
                rng=np.random.default_rng((seed, 1, index)),
                step=times[1] - times[0],
            )
        )
    return streams


@dataclass
class Request:
    """One scheduled request and what the client learned about it."""

    req_id: int
    due: float  # offset from the phase start until built, then absolute
    op: str
    line: bytes
    points: int = 0
    sent: float = 0.0
    received: float = 0.0
    response: bytes | None = None


def build_phase(
    traffic: dict[str, Any],
    streams: list[Stream],
    observe_order: Iterator[Stream],
    rate: float,
    duration: float,
    rng: np.random.Generator,
    first_id: int,
) -> list[Request]:
    """Poisson arrivals at *rate* for *duration* seconds, with the op mix
    of *traffic*: ``rate * duration`` requests at independent uniform
    times, a Poisson process conditioned on its count, so every run
    offers the same load. Forecast/report keys are uniform over the
    fleet; each observe carries the next points of the next stream of
    *observe_order*."""
    offsets = np.sort(rng.uniform(0.0, duration, int(round(rate * duration))))
    mix = traffic["mix"]
    ops = list(mix)
    op_draws = rng.choice(len(ops), size=offsets.size, p=[mix[o] for o in ops])
    key_draws = rng.integers(len(streams), size=offsets.size)
    per_observe = int(traffic.get("points_per_observe", 0))
    horizon = traffic["horizon"]
    requests = []
    for offset, op_index, key_index in zip(offsets, op_draws, key_draws):
        op = ops[int(op_index)]
        req_id = first_id + len(requests)
        payload: dict[str, Any] = {"id": req_id, "op": op}
        points = 0
        if op == "observe":
            stream = next(observe_order)
            payload["key"] = stream.key
            payload["points"] = stream.next_points(per_observe)
            points = per_observe
        else:
            payload["key"] = streams[int(key_index)].key
            if op == "forecast":
                payload["horizon"] = horizon
        requests.append(
            Request(req_id, float(offset), op, json.dumps(payload).encode() + b"\n", points)
        )
    return requests


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``repro serve`` started through the benchmark's launcher."""

    def __init__(
        self, server_args: list[str], workdir: Path, tag: str, ledger: bool, cpu: int | None
    ) -> None:
        self.stderr_path = workdir / f"server-{tag}.err"
        self.ledger_path = workdir / f"server-{tag}.ledger.json" if ledger else None
        command = [sys.executable, str(LAUNCHER)]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        if self.ledger_path is not None:
            command += ["--ledger", str(self.ledger_path)]
        command += ["--", "serve", "--host", "127.0.0.1", "--port", "0", *server_args]
        self._stderr = open(self.stderr_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._stderr,
            env=child_env(),
        )

    def address(self, timeout: float = 120.0) -> tuple[str, int]:
        """Host and port, read from the server's ``serving on`` line."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            text = self.stderr_path.read_text(errors="replace")
            for line in text.splitlines():
                if line.startswith("serving on "):
                    host, port = line.split()[2].rsplit(":", 1)
                    return host, int(port)
            if self.proc.poll() is not None:
                raise BenchError(f"server exited early:\n{text[-2000:]}")
            time.sleep(0.01)
        raise BenchError("server did not report its address in time")

    def peak_rss_mb(self) -> float:
        return proc_status_kb(self.proc.pid, "VmHWM") / 1024.0

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def stop(self) -> dict[str, Any] | None:
        """SIGINT (the Ctrl-C path of ``repro serve``), wait, and return
        the exported ledger when one was recorded."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    raise BenchError("server did not stop on SIGINT")
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise BenchError(f"server exited with {self.proc.returncode}")
        if self.ledger_path is None:
            return None
        with open(self.ledger_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self._stderr.closed:
            self._stderr.close()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class Client:
    """:data:`CONNECTIONS` pipelined JSONL connections, driven by one loop.

    During a phase the loop never blocks: it sends each request when it
    is due and stamps each response as it arrives (the client has a CPU
    of its own). Responses are matched to requests in order, per
    connection.
    """

    def __init__(self, host: str, port: int) -> None:
        self.socks: list[socket.socket] = []
        for _ in range(CONNECTIONS):
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self.socks.append(sock)
        self.pending: list[collections.deque[Request]] = [collections.deque() for _ in self.socks]
        self._inbox = [bytearray() for _ in self.socks]
        self._outbox = [bytearray() for _ in self.socks]
        self.unexpected = 0  # responses with no request waiting for them
        self.next_id = 0

    def send(self, request: Request, index: int) -> None:
        request.sent = time.perf_counter()
        self.pending[index].append(request)
        self._outbox[index] += request.line
        self._flush(index)

    def _flush(self, index: int) -> None:
        outbox = self._outbox[index]
        if outbox:
            try:
                sent = self.socks[index].send(outbox)
            except BlockingIOError:
                return
            del outbox[:sent]

    def poll(self) -> None:
        """Read whatever has arrived and match complete lines."""
        for index, sock in enumerate(self.socks):
            self._flush(index)
            try:
                data = sock.recv(1 << 20)
            except BlockingIOError:
                continue
            if not data:
                raise BenchError("server closed a connection")
            now = time.perf_counter()
            inbox = self._inbox[index]
            inbox += data
            queue = self.pending[index]
            while True:
                cut = inbox.find(b"\n")
                if cut < 0:
                    break
                line = bytes(inbox[: cut + 1])
                del inbox[: cut + 1]
                if not queue:
                    self.unexpected += 1
                    continue
                request = queue.popleft()
                request.received = now
                request.response = line

    def call(self, op: str, **fields: Any) -> dict[str, Any]:
        """One closed-loop request on the first connection."""
        payload = {"id": self.next_id, "op": op, **fields}
        request = Request(self.next_id, 0.0, op, json.dumps(payload).encode() + b"\n")
        self.next_id += 1
        self.send(request, 0)
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while request.response is None:
            if time.perf_counter() > deadline:
                raise BenchError(f"no answer to {op}")
            select.select(self.socks, [], [], 0.05)
            self.poll()
        body = json.loads(request.response)
        if not body.get("ok"):
            raise BenchError(f"{op} failed: {body.get('error')}")
        return body["result"]

    def run_phase(self, requests: list[Request], lead: float = 0.02) -> float:
        """Send *requests* on schedule, round-robin over the connections,
        then wait for every response (or the drain timeout).

        Returns the hypervisor steal over the phase, for the report. The
        client's own garbage collector is paused for the phase so its
        pauses do not make the generator late.
        """
        gc.collect()
        gc.disable()
        try:
            steal0 = steal_s()
            start = time.perf_counter() + lead
            for request in requests:
                request.due += start
            n = len(self.socks)
            position = 0
            while position < len(requests):
                now = time.perf_counter()
                while position < len(requests) and requests[position].due <= now:
                    self.send(requests[position], position % n)
                    position += 1
                self.poll()
            deadline = time.perf_counter() + DRAIN_TIMEOUT_S
            while any(self.pending) and time.perf_counter() < deadline:
                self.poll()
        finally:
            gc.enable()
        return steal_s() - steal0

    def close(self) -> None:
        for sock in self.socks:
            sock.close()


# ----------------------------------------------------------------------
# Response checks
# ----------------------------------------------------------------------
def check_response(request: Request) -> tuple[bool, str | None, dict[str, Any] | None]:
    """``(ok, problem, body)`` for one request.

    *problem* names a broken gate: no answer, an answer out of order, an
    error without a typed code, a non-finite number, or ``n_fit > n``.
    A typed error is not a problem, but the request is not ok.
    """
    if request.response is None:
        return False, "never answered", None
    nonfinite: list[str] = []

    def constant(token: str) -> float:
        nonfinite.append(token)
        return float(token.replace("Infinity", "inf"))

    try:
        body = json.loads(request.response, parse_constant=constant)
    except json.JSONDecodeError:
        return False, "unparseable response", None
    if nonfinite:
        return False, f"non-finite number {nonfinite[0]} on the wire", body
    if body.get("id") != request.req_id:
        return False, f"response id {body.get('id')} out of order", body
    if not body.get("ok"):
        error = body.get("error") or {}
        if not isinstance(error.get("code"), int) or not error.get("type"):
            return False, "error without a typed code", body
        return False, None, body
    result = body.get("result") or {}
    if request.op in ("forecast", "report") and not result.get("n_fit", 0) <= result.get("n", -1):
        return False, "n_fit > n", body
    return True, None, body


@dataclass
class PhaseStats:
    """What the client measured over one phase; per-request samples of
    the ok requests are kept in parallel lists."""

    rate: float
    steal_s: float = 0.0  # hypervisor steal during the phase, for the report
    server_cpu_s: float = 0.0  # server process CPU over the phase
    sent: int = 0
    failed: int = 0
    points_ok: int = 0
    answered_s: float = 0.0  # first scheduled send to last answer
    problems: list[str] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    latency_ms: list[float] = field(default_factory=list)
    handler_ms: list[float] = field(default_factory=list)
    wait_ms: list[float] = field(default_factory=list)
    fit_ages: list[int] = field(default_factory=list)

    @property
    def p50_ms(self) -> float:
        return percentile(self.latency_ms, 50)

    @property
    def p99_ms(self) -> float:
        return percentile(self.latency_ms, 99)

    @property
    def late_p99_ms(self) -> float:
        return percentile(self.late_ms, 99)

    @property
    def fit_age_obs(self) -> float:
        return sum(self.fit_ages) / len(self.fit_ages) if self.fit_ages else 0.0

    @property
    def served_rate(self) -> float:
        """Answered requests per second."""
        return len(self.latency_ms) / self.answered_s if self.answered_s > 0 else 0.0


def phase_stats(requests: list[Request], rate: float, steal: float) -> PhaseStats:
    stats = PhaseStats(rate, steal, sent=len(requests))
    for request in requests:
        ok, problem, body = check_response(request)
        stats.late_ms.append((request.sent - request.due) * 1e3)
        if problem is not None:
            stats.problems.append(f"request {request.req_id} ({request.op}): {problem}")
        if not ok:
            stats.failed += 1
            continue
        stats.points_ok += request.points
        latency = (request.received - request.due) * 1e3
        handler = float(body["elapsed_ms"])
        stats.latency_ms.append(latency)
        stats.handler_ms.append(handler)
        stats.wait_ms.append(latency - handler)
        if request.op == "forecast":
            result = body["result"]
            stats.fit_ages.append(int(result["n"]) - int(result["n_fit"]))
    if requests:
        last_answer = max((r.received for r in requests if r.response is not None), default=0.0)
        stats.answered_s = max(last_answer - requests[0].due, 0.0)
    return stats


def merge_phases(parts: list[PhaseStats]) -> PhaseStats:
    """One phase from the parts of it run on different launches."""
    merged = PhaseStats(parts[0].rate)
    for part in parts:
        for name in ("problems", "late_ms", "latency_ms", "handler_ms", "wait_ms", "fit_ages"):
            getattr(merged, name).extend(getattr(part, name))
        for name in ("steal_s", "server_cpu_s", "sent", "failed", "points_ok", "answered_s"):
            setattr(merged, name, getattr(merged, name) + getattr(part, name))
    return merged


def rung_verdict(stats: PhaseStats, fit_age_limit: float) -> str:
    """``pass``, ``late`` (the generator fell behind, so the phase is no
    capacity result) or the first limit the phase missed."""
    if stats.late_p99_ms > LATE_LIMIT_MS:
        return "late"
    if stats.failed:
        return "failed"
    if stats.p99_ms > P99_LIMIT_MS:
        return "p99"
    if stats.fit_age_obs > fit_age_limit:
        return "fit_age"
    return "pass"


# ----------------------------------------------------------------------
# One serve run
# ----------------------------------------------------------------------
def server_args(server: dict[str, Any], workdir: Path) -> list[str]:
    """``repro serve`` flags for the recorded server configuration."""
    options_file = workdir / "server-options.json"
    options_file.write_text(json.dumps(server["options"]))
    return [
        "--family", server["family"],
        "--options-file", str(options_file),
        "--refit-interval", str(server["refit_interval"]),
        "--refit-every", str(server["refit_every_k"]),
        "--remediation-interval", str(server["remediation_interval"]),
        "--max-streams", str(server["max_streams"]),
    ]


@dataclass
class ServeResult:
    """Everything the launches of one run measured."""

    fit_age_limit: float
    setup_s: list[float] = field(default_factory=list)
    nominal_parts: list[PhaseStats] = field(default_factory=list)  # one per launch
    ladder: list[tuple[PhaseStats, str]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    stats: dict[str, Any] = field(default_factory=dict)  # last launch's final stats
    ledger: dict[str, Any] | None = None
    window: tuple[float, float] = (0.0, 0.0)  # the last launch's measured phases
    cpu_s: float = 0.0  # server CPU over the last launch's measured phases
    handler_s: float = 0.0  # server-reported handler time, last launch's measured phases

    @property
    def nominal(self) -> PhaseStats:
        """The nominal phases of every launch as one phase."""
        return merge_phases(self.nominal_parts)

    @property
    def max_rate(self) -> float:
        """Requests answered per second on the highest passing phase:
        the last passing ladder rung, else the nominal phase if it
        passes, else 0."""
        passed = [stats.served_rate for stats, verdict in self.ladder if verdict == "pass"]
        nominal = self.nominal
        if rung_verdict(nominal, self.fit_age_limit) == "pass":
            passed.append(nominal.served_rate)
        return max(passed, default=0.0)


def _warm(server: ServerProcess, streams: list[Stream]) -> tuple[Client, int]:
    """Connect, send every stream its episode, and wait until every
    stream has its first fit. Returns the client and points sent."""
    host, port = server.address()
    client = Client(host, port)
    for stream in streams:
        client.call(
            "observe",
            key=stream.key,
            points=[[t, p] for t, p in zip(stream.times, stream.values)],
        )
    while client.call("stats")["session"].get("refits_cold", 0) < len(streams):
        time.sleep(0.02)
    return client, sum(len(s.times) for s in streams)


def _settle(client: Client, streams: list[Stream], timeout: float = 20.0) -> None:
    """Wait until every stream's served fit has seen all its points, so
    a rung does not inherit the refit backlog of the phase before it."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if all(
            (result := client.call("forecast", key=stream.key, horizon=1))["n_fit"] == result["n"]
            for stream in streams
        ):
            return
        time.sleep(0.05)


def serve_run(
    config: dict[str, Any],
    seed: int,
    workdir: Path,
    *,
    nominal_s: float,
    ladder_s: float,
    launches: int,
    ledger: bool,
    tag: str,
) -> ServeResult:
    """Launch the server *launches* times. Each launch is timed from
    start to a warm fleet, runs :data:`WARMUP_S` seconds and then an
    equal share of the *nominal_s* seconds at the nominal rate, and is
    stopped; the last one then runs the rate ladder for *ladder_s*
    seconds when that is positive. Spreading the nominal phase over
    launches averages out what differs between server processes and,
    as launches alternate CPUs (:func:`cpu_plan`), between the CPUs."""
    traffic = config["traffic"]
    args = server_args(config["server"], workdir)
    result = ServeResult(fit_age_limit=float(config["server"]["refit_every_k"]))
    plans = [cpu_plan(attempt) for attempt in range(launches)]
    server = None
    client = None
    try:
        for attempt, (client_cpu, server_cpu) in enumerate(plans):
            with pinned(client_cpu):
                last = attempt == launches - 1
                streams = build_streams(config["fleet"], seed)
                server = ServerProcess(args, workdir, f"{tag}{attempt}", ledger and last, server_cpu)
                client, points_sent = _warm(server, streams)
                result.setup_s.append(time.perf_counter() - server.started)
                phases = _Phases(client, server, streams, traffic, (seed, attempt), result)
                phases.run(float(traffic["nominal_rps"]), WARMUP_S)
                result.handler_s = 0.0
                cpu0, t0 = server.cpu_s(), time.perf_counter()
                result.nominal_parts.append(phases.run(float(traffic["nominal_rps"]), nominal_s / launches))
                if last and ladder_s > 0:
                    phases.ladder(float(traffic["nominal_rps"]), ladder_s / LADDER_STEPS)
                points_sent += phases.points
                result.window = (t0, time.perf_counter())
                result.stats = client.call("stats")
                observed = result.stats["session"].get("observations")
                if observed != points_sent:
                    result.problems.append(
                        f"launch {attempt}: server counted {observed} observations, client sent {points_sent}"
                    )
                if client.unexpected:
                    result.problems.append(f"launch {attempt}: {client.unexpected} responses matched no request")
                client.close()
                client = None
                result.peak_rss_mb = max(result.peak_rss_mb, server.peak_rss_mb())
                result.cpu_s = server.cpu_s() - cpu0
                result.ledger = server.stop()
                server = None
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.kill()
    return result


class _Phases:
    """The open-loop phases of one launch, each with its own seeded
    schedule; observes continue the streams across phases."""

    def __init__(
        self,
        client: Client,
        server: ServerProcess,
        streams: list[Stream],
        traffic: dict[str, Any],
        seed: tuple[int, int],
        result: ServeResult,
    ) -> None:
        self.client, self.server, self.streams = client, server, streams
        self.traffic, self.seed, self.result = traffic, seed, result
        self.observe_order = itertools.cycle(streams)
        self.points = 0  # observed by ok requests
        self.index = 0

    def run(self, rate: float, duration: float) -> PhaseStats:
        rng = np.random.default_rng((*self.seed, 2, self.index))
        self.index += 1
        requests = build_phase(
            self.traffic, self.streams, self.observe_order, rate, duration, rng, self.client.next_id
        )
        self.client.next_id += len(requests)
        cpu0 = self.server.cpu_s()
        steal = self.client.run_phase(requests)
        stats = phase_stats(requests, rate, steal)
        stats.server_cpu_s = self.server.cpu_s() - cpu0
        self.result.attempted += stats.sent
        self.result.failed += stats.failed
        self.result.handler_s += sum(stats.handler_ms) / 1e3
        self.result.problems += stats.problems
        self.points += stats.points_ok
        return stats

    def ladder(self, nominal: float, duration: float) -> None:
        """Bisect the log of the offered rate between *nominal* and
        :data:`LADDER_SPAN` times it, each rung *duration* seconds long;
        a rung that passes raises the lower end, any other the upper
        end."""
        low, high = math.log(nominal), math.log(nominal * LADDER_SPAN)
        for _ in range(LADDER_STEPS):
            rate = math.exp((low + high) / 2)
            _settle(self.client, self.streams)
            stats = self.run(rate, duration)
            verdict = rung_verdict(stats, self.result.fit_age_limit)
            self.result.ladder.append((stats, verdict))
            if verdict == "pass":
                low = math.log(rate)
            else:
                high = math.log(rate)


def end_to_end(result: ServeResult) -> dict[str, float]:
    """The end-to-end metrics of one serve run."""
    nominal = result.nominal
    return {
        "setup_s": median(result.setup_s),
        "cpu_ms_per_op": nominal.server_cpu_s / nominal.sent * 1e3,
        "peak_rss_mb": result.peak_rss_mb,
    }
