"""Span-based tracing for the fit engine.

A :class:`Tracer` records **spans** — named, timed, attributed slices of
work (one model fit, one multi-start solve, one executor dispatch, one
table grid) — into memory and, optionally, a JSON-lines file. Tracing
is **disabled by default**: every instrumentation point resolves to the
module-level :data:`NULL_TRACER` whose methods are no-ops, so the hot
path pays only a guard check (< 2% on the Table III workload — measured
by ``benchmarks/bench_trace_overhead.py``).

Enabling it
-----------
* the ``trace`` field of the ``options=``
  :class:`~repro.fitting.options.EngineOptions` bundle on the
  fit/experiment APIs: a :class:`Tracer` instance, ``True``
  (process-global tracer), ``False`` (force off), or ``None``
  (environment default — the usual default).
* ``REPRO_TRACE=1`` environment variable: traces every instrumented
  call in the process; ``REPRO_TRACE_FILE=path`` additionally streams
  each span as one JSON line (and by itself also implies tracing).
* ``--trace`` / ``--trace-file`` on the ``fit``, ``episodes``,
  ``table`` and ``report`` CLI subcommands, which also print an
  end-of-run summary table.

Span records are JSON objects::

    {"type": "span", "name": "fit", "ts": 1722945600.123,
     "dur_s": 0.84, "id": 7, "parent": 3,
     "attrs": {"family": "wei-exp", "nfev": 1893, "cache_hit": false}}

``parent`` links spans into a per-thread tree (a per-start span's
parent is its fit span; a fit span's parent is the table grid it ran
under). Spans created by worker *processes* are dropped by design — a
:class:`Tracer` unpickles to :data:`NULL_TRACER` — so the process
backend loses per-start attribution but keeps every parent-side span.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from types import TracebackType
from typing import Any, Iterator, Union

import numpy as np

from repro._env import read_env
from repro.observability.metrics import MetricsRegistry
from repro.utils.tables import format_table

__all__ = [
    "TRACE_ENV_VAR",
    "TRACE_FILE_ENV_VAR",
    "Span",
    "Tracer",
    "TracerLike",
    "NULL_TRACER",
    "activate",
    "current_tracer",
    "deactivate",
    "default_tracer",
    "enable_tracing",
    "disable_tracing",
    "resolve_tracer",
]

#: Environment variable enabling the process-default tracer.
TRACE_ENV_VAR = "REPRO_TRACE"

#: Environment variable naming the JSON-lines span file. Setting it
#: implies tracing even when :data:`TRACE_ENV_VAR` is unset.
TRACE_FILE_ENV_VAR = "REPRO_TRACE_FILE"

#: Values of :data:`TRACE_ENV_VAR` that keep tracing disabled.
_OFF_WORDS = frozenset({"", "0", "off", "no", "none", "false", "disabled"})

#: In-memory span cap; a backstop for long-lived traced processes. The
#: JSON-lines stream is unbounded — only the in-memory list is capped,
#: and :attr:`Tracer.dropped_spans` counts what fell off.
DEFAULT_MAX_SPANS = 100_000


def _json_safe(value: Any) -> Any:
    """Attribute values coerced to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.ravel().tolist()]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


class Span:
    """One named, timed slice of work; use as a context manager.

    Attributes set before or during the block (via :meth:`set`) land in
    the emitted record; an exception escaping the block adds an
    ``error`` attribute with the exception type name.
    """

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "_t0", "_wall")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: int | None = None
        self.parent_id: int | None = None
        self._t0 = 0.0
        self._wall = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.span_id = self._tracer._next_id()
        self.parent_id = self._tracer._stack_push(self.span_id)
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._stack_pop()
        self._tracer._emit(
            self.name, self._wall, duration, self.attrs, self.span_id, self.parent_id
        )
        return False


class _NullSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


class _NullMetrics:
    """Do-nothing stand-in for :class:`MetricsRegistry`."""

    __slots__ = ()

    def inc(self, name: str, n: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        yield

    def counter(self, name: str) -> int:
        return 0

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "histograms": {}}

    def to_table(self) -> str:
        return ""


_NULL_SPAN = _NullSpan()


class _NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented code only ever checks :attr:`enabled` and calls
    :meth:`span` / :meth:`record` / ``metrics.inc`` — all free here.
    """

    __slots__ = ()

    enabled = False
    metrics = _NullMetrics()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, seconds: float, **attrs: Any) -> None:
        pass

    @property
    def spans(self) -> list[dict[str, Any]]:
        return []

    def summary(self) -> str:
        return ""

    def close(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


#: The process-wide disabled tracer every no-op path resolves to.
NULL_TRACER = _NullTracer()


def _unpickle_as_null() -> _NullTracer:
    """Tracers degrade to the null tracer across process boundaries."""
    return NULL_TRACER


class Tracer:
    """Collects spans in memory and optionally streams them as JSONL.

    Parameters
    ----------
    path:
        Optional JSON-lines file; every finished span is appended as
        one line (flushed immediately, so a crashed run keeps its
        trace). ``None`` keeps spans in memory only.
    max_spans:
        In-memory retention cap; excess spans are dropped (counted in
        :attr:`dropped_spans`) but still written to *path*.

    Thread-safe: span emission and metrics share internal locks, and
    parent/child nesting is tracked per thread. Pickling a tracer (the
    process executor ships work units through pickle) yields
    :data:`NULL_TRACER` on the far side — child-process spans are
    dropped rather than silently recorded into a dead object.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.max_spans = int(max_spans)
        self.enabled = True
        self.metrics = MetricsRegistry()
        self.dropped_spans = 0
        self._spans: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._id = 0
        self._local = threading.local()
        self._file = None

    # -- span creation --------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """A new span; enter it with ``with`` to time the block."""
        return Span(self, name, attrs)

    def record(self, name: str, seconds: float, **attrs: Any) -> None:
        """Emit an already-measured span (e.g. a per-start solve timed
        inside a picklable work unit), parented to the innermost open
        span on this thread."""
        self._emit(
            name,
            time.time() - float(seconds),
            float(seconds),
            attrs,
            self._next_id(),
            self._stack_top(),
        )

    # -- introspection --------------------------------------------------
    @property
    def spans(self) -> list[dict[str, Any]]:
        """Copy of the retained span records (emission order)."""
        with self._lock:
            return list(self._spans)

    def spans_named(self, name: str) -> list[dict[str, Any]]:
        """Retained spans with the given name."""
        return [span for span in self.spans if span["name"] == name]

    def summary(self) -> str:
        """End-of-run text summary: spans aggregated by name, then the
        metrics registry."""
        aggregates: dict[str, list[float]] = {}
        for span in self.spans:
            aggregates.setdefault(span["name"], []).append(span["dur_s"])
        blocks = []
        if aggregates:
            rows = [
                [name, len(durs), sum(durs), sum(durs) / len(durs), max(durs)]
                for name, durs in sorted(
                    aggregates.items(), key=lambda kv: -sum(kv[1])
                )
            ]
            blocks.append(
                format_table(
                    ["Span", "Count", "Total s", "Mean s", "Max s"],
                    rows,
                    title=f"Trace summary — {sum(len(d) for d in aggregates.values())} spans",
                    float_digits=6,
                )
            )
        metrics_table = self.metrics.to_table()
        if metrics_table:
            blocks.append(metrics_table)
        if self.dropped_spans:
            blocks.append(f"({self.dropped_spans} spans dropped from memory)")
        return "\n\n".join(blocks)

    def close(self) -> None:
        """Flush and close the JSON-lines stream (idempotent)."""
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                finally:
                    self._file = None

    # -- internals ------------------------------------------------------
    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _stack_push(self, span_id: int) -> int | None:
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return parent

    def _stack_pop(self) -> None:
        stack = self._stack()
        if stack:
            stack.pop()

    def _stack_top(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _emit(
        self,
        name: str,
        wall_start: float,
        duration: float,
        attrs: dict[str, Any],
        span_id: int | None,
        parent_id: int | None,
    ) -> None:
        record = {
            "type": "span",
            "name": name,
            "ts": wall_start,
            "dur_s": duration,
            "id": span_id,
            "parent": parent_id,
            "attrs": {str(k): _json_safe(v) for k, v in attrs.items()},
        }
        with self._lock:
            if len(self._spans) < self.max_spans:
                self._spans.append(record)
            else:
                self.dropped_spans += 1
            if self.path is not None:
                if self._file is None:
                    self._file = open(self.path, "a", encoding="utf-8")
                self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
                self._file.flush()

    def __reduce__(self) -> "tuple[Any, tuple[()]]":
        return (_unpickle_as_null, ())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(path={self.path!r}, spans={len(self._spans)})"


#: Anything accepted wherever tracing is configurable.
TracerLike = Union[bool, Tracer, _NullTracer, None]


# ----------------------------------------------------------------------
# Ambient tracer: contextvar + environment default
# ----------------------------------------------------------------------
_ACTIVE: ContextVar["Tracer | None"] = ContextVar("repro_active_tracer", default=None)

_default_lock = threading.Lock()
_default_tracer: Tracer | None = None
_default_signature: tuple[str, str] | None = None
_forced_tracer: Tracer | None = None


def default_tracer() -> Tracer | None:
    """The environment-configured process tracer, or None.

    A tracer force-enabled by :func:`enable_tracing` wins; otherwise
    ``REPRO_TRACE`` / ``REPRO_TRACE_FILE`` govern. The instance is
    rebuilt when the environment changes between calls (tests
    monkeypatch it).
    """
    global _default_tracer, _default_signature
    if _forced_tracer is not None:
        return _forced_tracer
    signature = (
        read_env(TRACE_ENV_VAR, "") or "",
        read_env(TRACE_FILE_ENV_VAR, "") or "",
    )
    if signature == _default_signature:
        return _default_tracer
    with _default_lock:
        if signature != _default_signature:
            _default_signature = signature
            flag = signature[0].strip().lower()
            path = signature[1].strip()
            if flag not in _OFF_WORDS or path:
                _default_tracer = Tracer(
                    path=os.path.expanduser(path) if path else None
                )
            else:
                _default_tracer = None
    return _default_tracer


def enable_tracing(path: str | os.PathLike | None = None) -> Tracer:
    """Force-enable the process-global tracer (``trace=True`` target).

    Returns the tracer so callers can read spans and the summary.
    Repeated calls reuse the existing forced tracer unless a new *path*
    is given.
    """
    global _forced_tracer
    with _default_lock:
        if _forced_tracer is None or path is not None:
            _forced_tracer = Tracer(path=path)
        return _forced_tracer


def disable_tracing() -> None:
    """Drop the force-enabled process tracer (environment still applies)."""
    global _forced_tracer
    with _default_lock:
        if _forced_tracer is not None:
            _forced_tracer.close()
        _forced_tracer = None


def resolve_tracer(trace: TracerLike) -> "Tracer | _NullTracer":
    """Map a ``trace=`` argument onto a concrete tracer.

    ``None`` → environment default (usually :data:`NULL_TRACER`);
    ``False`` → :data:`NULL_TRACER`; ``True`` → the process-global
    tracer (created on demand); a :class:`Tracer` → itself.
    """
    if trace is None:
        tracer = default_tracer()
        return tracer if tracer is not None else NULL_TRACER
    if trace is False:
        return NULL_TRACER
    if trace is True:
        tracer = default_tracer()
        return tracer if tracer is not None else enable_tracing()
    if isinstance(trace, (Tracer, _NullTracer)):
        return trace
    raise TypeError(
        f"trace must be a bool, None, or Tracer, got {type(trace).__name__}"
    )


def current_tracer() -> "Tracer | _NullTracer":
    """The ambient tracer: the innermost :func:`activate` context on
    this execution context, else the environment default, else
    :data:`NULL_TRACER`. Used by layers (the executor backends) that
    have no ``trace=`` argument of their own."""
    active = _ACTIVE.get()
    if active is not None:
        return active
    tracer = default_tracer()
    return tracer if tracer is not None else NULL_TRACER


@contextmanager
def activate(tracer: "Tracer | _NullTracer") -> Iterator[None]:
    """Make *tracer* the ambient tracer for the duration of the block.

    Activating :data:`NULL_TRACER` is a no-op (it does not mask an
    enabled ambient tracer installed by an outer frame) — use
    :func:`deactivate` to suppress tracing explicitly."""
    if not tracer.enabled:
        yield
        return
    token = _ACTIVE.set(tracer)  # type: ignore[arg-type]
    try:
        yield
    finally:
        _ACTIVE.reset(token)


@contextmanager
def deactivate() -> Iterator[None]:
    """Mask any ambient (or environment-default) tracer for the block.

    The ``trace=False`` escape hatch: instrumented layers below the
    block — including the executor backends, which read the ambient
    tracer — see :data:`NULL_TRACER` regardless of outer activations."""
    token = _ACTIVE.set(NULL_TRACER)  # type: ignore[arg-type]
    try:
        yield
    finally:
        _ACTIVE.reset(token)
