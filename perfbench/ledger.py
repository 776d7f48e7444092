"""Span ledger: the benchmark's own tracing of the program's layers.

The program under test is not modified. Instead :func:`install` replaces
the public functions of each layer (``fit_least_squares``,
``solve_batched``, ``ForecastSession.execute_refits``, ...) with thin
wrappers that record one span per call: name, start, end and self time
(the span's duration minus the part covered by its direct child spans
on the same thread). Spans are kept in memory in flat columns, which the
garbage collector does not scan, and exported once when the run ends.

A ``gc.callbacks`` hook records every collector pause.

Times come from ``time.perf_counter``, which on Linux reads
``CLOCK_MONOTONIC``. That clock is shared by all processes, so the
client can cut a server's spans into the phase windows it timed itself.
"""

from __future__ import annotations

import array
import functools
import gc
import inspect
import sys
import threading
import time
from typing import Any, Callable, Iterable

# Span flags.
TOP = 1  # no enclosing span on the same thread
NESTED = 2  # an enclosing span has the same recursion key
ASYNC = 4  # a coroutine span: wall time across awaits, outside the stacks
ERROR = 8  # the wrapped call raised


class Ledger:
    """In-memory span store plus the per-thread stacks that nest spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.self_s = array.array("d")
        self.flags = array.array("b")
        #: Span index -> small dict of counts recorded with the span.
        self.extra: dict[int, dict[str, float]] = {}
        self.gc_start = array.array("d")
        self.gc_end = array.array("d")
        self._gc_t0 = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(
        self,
        name: str,
        start: float,
        end: float,
        self_s: float,
        flags: int,
        extra: dict[str, float] | None,
    ) -> None:
        with self._lock:
            name_id = self._ids.get(name)
            if name_id is None:
                name_id = self._ids[name] = len(self.names)
                self.names.append(name)
            if extra:
                self.extra[len(self.start)] = extra
            self.name_id.append(name_id)
            self.start.append(start)
            self.end.append(end)
            self.self_s.append(self_s)
            self.flags.append(flags)

    def call(
        self,
        name: str,
        key: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        measure: Callable[[tuple, dict, Any], dict[str, float]] | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called *name*.

        *key* groups wrappers for recursion: a span whose key is already
        on this thread's stack is flagged ``NESTED`` so layer totals
        count the outermost call only. *measure* turns the call and its
        result into counts stored with the span (outside the timing).
        """
        stack = self._stack()
        flags = 0 if stack else TOP
        if any(frame[0] == key for frame in stack):
            flags |= NESTED
        frame = [key, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        result: Any = None
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            flags |= ERROR
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            extra = None
            if measure is not None and not flags & ERROR:
                extra = measure(args, kwargs, result)
            self._record(name, start, end, duration - frame[1], flags, extra)
        return result

    def on_gc(self, phase: str, info: dict[str, Any]) -> None:
        """``gc.callbacks`` hook: one pause per collection."""
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_start.append(self._gc_t0)
            self.gc_end.append(time.perf_counter())

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        name: str | Callable[[tuple, dict], str],
        *,
        key: str | None = None,
        measure: Callable[[tuple, dict, Any], dict[str, float]] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper recording a span per call of *fn*.

        *name* may be a function of the call's arguments (cold vs warm
        fits). Coroutine functions get an ``ASYNC`` span and generator
        functions one span per ``next()``.
        """
        ledger = self
        recursion_key = key or (name if isinstance(name, str) else fn.__qualname__)

        def span_name(args: tuple, kwargs: dict) -> str:
            return name if isinstance(name, str) else name(args, kwargs)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                start = time.perf_counter()
                result = await fn(*args, **kwargs)
                end = time.perf_counter()
                extra = measure(args, kwargs, result) if measure else None
                ledger._record(
                    span_name(args, kwargs), start, end, end - start, ASYNC, extra
                )
                return result

            return async_wrapper

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args: Any, **kwargs: Any) -> Any:
                iterator = fn(*args, **kwargs)
                label = span_name(args, kwargs)
                while True:
                    try:
                        item = ledger.call(
                            label, recursion_key, next, (iterator,), {}, measure
                        )
                    except StopIteration:
                        return
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return ledger.call(
                span_name(args, kwargs), recursion_key, fn, args, kwargs, measure
            )

        return wrapper

    def patch_function(self, module: Any, attr: str, name: Any, **options: Any) -> None:
        """Wrap ``module.attr`` and rebind every ``repro`` module-level
        alias of the same function object (``from x import f`` copies)."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, **options)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, alias, wrapper)
        setattr(module, attr, wrapper)

    def patch_method(self, cls: type, attr: str, name: Any, **options: Any) -> None:
        """Wrap the method *attr* defined on *cls* itself."""
        setattr(cls, attr, self.wrap(cls.__dict__[attr], name, **options))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self) -> dict[str, Any]:
        """Every span and GC pause as plain JSON-ready columns."""
        with self._lock:
            return {
                "names": list(self.names),
                "name_id": self.name_id.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "self_s": self.self_s.tolist(),
                "flags": self.flags.tolist(),
                "extra": {str(k): v for k, v in self.extra.items()},
                "gc_start": self.gc_start.tolist(),
                "gc_end": self.gc_end.tolist(),
            }


# ----------------------------------------------------------------------
# Layer installation
# ----------------------------------------------------------------------
def _fit_kind(args: tuple, kwargs: dict) -> str:
    # A warm refit plan pins the previous optimum as its only start.
    return "least_squares.warm" if "starts" in kwargs else "least_squares.cold"


def _fit_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    details = getattr(result, "details", None) or {}
    return {"nfev": float(details.get("nfev", 0)), "njev": float(details.get("njev", 0))}


def _count_arg(position: int, label: str) -> Callable[[tuple, dict, Any], dict[str, float]]:
    def measure(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
        return {label: float(len(args[position]))}

    return measure


def _adopted(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"planned": float(len(args[1])), "adopted": float(len(result))}


def _tick_adopted(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"adopted": float(len(result))}


def _chunk_bytes(args: tuple, kwargs: dict, chunk: Any) -> dict[str, float]:
    nbytes = sum(
        getattr(chunk, column).nbytes
        for column in ("lengths", "labels", "nominal", "times", "values")
    )
    return {"bytes": float(nbytes)}


def _fleet_failed(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"failed_cells": float(sum(int(v.sum()) for v in result.failed.values()))}


def install(ledger: Ledger, *, server: bool = False) -> None:
    """Wrap the public functions of every layer the workloads reach.

    Imports each layer first so every ``from x import f`` alias exists
    when :meth:`Ledger.patch_function` rebinds it. With *server*, the
    serving layers' methods are wrapped too.
    """
    import scipy.optimize

    import repro.analysis.experiments  # noqa: F401 - binds aliases
    import repro.datasets.store as store
    import repro.fitting.batched as batched
    import repro.fitting.fleet as fleet
    import repro.fitting.least_squares as least_squares
    import repro.metrics.predictive as predictive
    import repro.models.registry  # noqa: F401 - defines every family
    import repro.parallel.executor as executor
    import repro.serving.online as online
    import repro.serving.server as server_module
    import repro.serving.session as session
    import repro.validation.crossval  # noqa: F401 - binds aliases
    import repro.validation.intervals as intervals
    from repro.models.base import ResilienceModel

    ledger.patch_function(
        least_squares, "fit_least_squares", _fit_kind, key="fit", measure=_fit_counts
    )
    ledger.patch_function(scipy.optimize, "least_squares", "least_squares.scipy")
    ledger.patch_function(
        batched, "solve_batched", "batched.solve", measure=_count_arg(0, "problems")
    )
    ledger.patch_function(fleet, "fit_fleet", "fleet.fit_fleet", measure=_fleet_failed)
    ledger.patch_method(
        store.EpisodeStore, "iter_chunks", "store.iter_chunks", measure=_chunk_bytes
    )
    ledger.patch_function(intervals, "confidence_band", "intervals.confidence_band")
    ledger.patch_function(
        predictive, "predictive_metric_report", "predictive.metric_report"
    )
    pending: list[type] = [ResilienceModel]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr in ("recovery_time", "minimum", "area_under_curve"):
            if attr in cls.__dict__:
                ledger.patch_method(cls, attr, "models.derived", key="models.derived")
    for cls in (executor.SerialExecutor, executor.ThreadExecutor, executor.ProcessExecutor):
        ledger.patch_method(cls, "map", "parallel.map", key="parallel.map")
    if server:
        ledger.patch_method(online.OnlineForecaster, "forecast", "online.forecast")
        ledger.patch_method(online.OnlineForecaster, "report", "online.report")
        ledger.patch_method(session.ForecastSession, "refit_plans", "session.refit_plans")
        ledger.patch_method(
            session.ForecastSession,
            "execute_refits",
            "session.execute_refits",
            measure=_count_arg(1, "plans"),
        )
        ledger.patch_method(
            session.ForecastSession, "adopt_refits", "session.adopt_refits", measure=_adopted
        )
        ledger.patch_method(
            server_module.ForecastServer,
            "refit_tick",
            "server.refit_tick",
            measure=_tick_adopted,
        )
    gc.callbacks.append(ledger.on_gc)


def iter_spans(
    data: dict[str, Any], window: tuple[float, float] | None = None
) -> Iterable[tuple[str, float, float, float, int, dict[str, float]]]:
    """``(name, start, end, self_s, flags, extra)`` per exported span,
    keeping those that start inside *window*."""
    names = data["names"]
    extra = data["extra"]
    for index, (name_id, start, end, self_s, flags) in enumerate(
        zip(data["name_id"], data["start"], data["end"], data["self_s"], data["flags"])
    ):
        if window is not None and not window[0] <= start < window[1]:
            continue
        yield names[name_id], start, end, self_s, flags, extra.get(str(index), {})
