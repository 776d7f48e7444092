"""The :class:`EngineOptions` bundle — one object for every fit-engine knob.

:class:`EngineOptions` freezes the engine configuration (``engine``,
``cache``, ``trace``, ``executor``, ``n_workers``, ``seed``,
``n_random_starts``, ``max_nfev``) into a single immutable
value that is built once and handed to
:func:`~repro.fitting.fit_least_squares`, :func:`~repro.fitting.fit_many`,
:func:`~repro.fitting.fleet.fit_fleet`, the table grids,
:func:`~repro.analysis.experiments.truncation_grid`,
:func:`~repro.analysis.fleet.episode_scorecard`,
:func:`~repro.analysis.pipeline.run_full_reproduction`, and the whole
:mod:`repro.serving` subsystem.

The bundle is the only way to pass the process-level plumbing
(``cache``, ``trace``, ``executor``, ``n_workers``). The per-fit
science knobs (``engine``, ``seed``, ``n_random_starts``, ``max_nfev``)
are also first-class keyword arguments of the fit entry points, where
they vary per call.

Merge semantics (uniform across every entry point):

* an explicit science kwarg always overrides the same field of
  ``options=``;
* an options field left at its default defers to the entry point's own
  default, so ``EngineOptions()`` is a no-op everywhere;
* environment defaults (``REPRO_FIT_EXECUTOR``, ``REPRO_FIT_WORKERS``,
  ``REPRO_FIT_CACHE``, ``REPRO_TRACE``/``REPRO_TRACE_FILE``) are applied
  in exactly one place — :meth:`EngineOptions.resolve` — which maps the
  ``None`` placeholders onto concrete cache/tracer/executor instances.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple

from repro.fitting.cache import FitCache, resolve_cache
from repro.observability.tracer import TracerLike, resolve_tracer
from repro.parallel import ExecutorLike, FitExecutor, get_executor

__all__ = [
    "DEFAULT_ENGINE_OPTIONS",
    "EngineOptions",
    "ResolvedEngine",
]

_NULL = type(None)

#: The JSON value types :meth:`EngineOptions.from_dict` accepts per
#: field. A JSON ``true``/``false`` is never an integer here.
_JSON_TYPES: dict[str, tuple[type, ...]] = {
    "engine": (str, _NULL),
    "cache": (bool, _NULL),
    "trace": (bool, _NULL),
    "executor": (str, _NULL),
    "n_workers": (int, _NULL),
    "seed": (int, _NULL),
    "n_random_starts": (int,),
    "max_nfev": (int,),
}


class ResolvedEngine(NamedTuple):
    """Concrete engine plumbing produced by :meth:`EngineOptions.resolve`.

    ``cache`` is a live :class:`~repro.fitting.cache.FitCache` or None
    (caching disabled), ``tracer`` is an enabled
    :class:`~repro.observability.Tracer` or the null tracer, and
    ``executor`` is a ready :class:`~repro.parallel.FitExecutor`.
    """

    cache: FitCache | None
    tracer: Any
    executor: FitExecutor


@dataclass(frozen=True)
class EngineOptions:
    """Immutable bundle of fit-engine configuration.

    Attributes
    ----------
    engine:
        Solver engine (``"scipy"`` or ``"batched"``); ``None`` defers
        to the ``REPRO_FIT_ENGINE`` environment default (resolved in
        :func:`repro.fitting.batched.resolve_engine`, the engine's
        single env funnel).
    cache:
        Fit memoization: ``None`` (environment default), ``False``
        (off), ``True`` (environment default cache), or a
        :class:`~repro.fitting.cache.FitCache` instance.
    trace:
        Observability: ``None`` (environment default), ``False`` (off),
        ``True`` (process-global tracer), or a
        :class:`~repro.observability.Tracer` instance.
    executor:
        Backend name/instance that maps the fit starts the stacked trf
        kernel does not solve (``segmented``'s finite-difference starts
        and the kernel's fallbacks), ``None`` for the
        ``REPRO_FIT_EXECUTOR`` default.
    n_workers:
        Worker count for pooled backends (``None`` →
        ``REPRO_FIT_WORKERS`` or the CPU count).
    seed:
        Random-stream seed for multi-start generation (``None`` → the
        library default; fits are deterministic either way).
    n_random_starts:
        Random multi-start budget per fit.
    max_nfev:
        Residual-evaluation budget per start.
    """

    engine: str | None = None
    cache: "bool | FitCache | None" = None
    trace: TracerLike = None
    executor: ExecutorLike = None
    n_workers: int | None = None
    seed: int | None = None
    n_random_starts: int = 8
    max_nfev: int = 2000

    def replace(self, **changes: Any) -> "EngineOptions":
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    def override(self, **explicit: Any) -> "EngineOptions":
        """A copy where every non-``None`` entry of *explicit* wins.

        This is the "explicit kwarg overrides ``options=``" rule:
        entry points funnel their individual keyword arguments through
        here, and ``None`` (the universal "not given" default) leaves
        the options field untouched.
        """
        changes = {k: v for k, v in explicit.items() if v is not None}
        return dataclasses.replace(self, **changes) if changes else self

    def to_dict(self) -> dict[str, Any]:
        """Every field as a JSON-serializable mapping (lossless).

        Default-valued fields are kept, so the payload reconstructs
        this exact bundle via :meth:`from_dict` even if the library's
        defaults change between writing and reading. Fields holding live
        component instances (a :class:`~repro.fitting.cache.FitCache`,
        a tracer, an executor object) cannot survive a JSON trip and
        raise — config files should name backends (``"thread"``) and use
        booleans for cache/trace.

        Raises
        ------
        ValueError
            If ``cache``/``trace``/``executor`` hold component
            instances rather than names, booleans, or ``None``.
        """
        payload: dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not (
                value is None
                or isinstance(value, (bool, int, float, str))
            ):
                raise ValueError(
                    f"EngineOptions.{field.name} holds a "
                    f"{type(value).__name__} instance, which cannot be "
                    f"serialized to JSON; use a backend name, a boolean, "
                    f"or None in config files"
                )
            payload[field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EngineOptions":
        """Rebuild a bundle from :meth:`to_dict` output.

        Unknown keys and values of the wrong JSON type raise (a
        config-file typo must not silently become a default, nor crash
        deep inside a fit), missing keys keep their defaults (old config
        files stay readable when the bundle grows a field).
        """
        field_names = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - field_names)
        if unknown:
            raise ValueError(
                f"unknown EngineOptions field(s) {unknown}; "
                f"expected a subset of {sorted(field_names)}"
            )
        for name, value in payload.items():
            allowed = _JSON_TYPES[name]
            if not isinstance(value, allowed) or (
                isinstance(value, bool) and bool not in allowed
            ):
                expected = " or ".join(
                    "null" if kind is _NULL else kind.__name__ for kind in allowed
                )
                raise ValueError(
                    f"EngineOptions field {name!r} must be {expected}, "
                    f"got {type(value).__name__} {value!r}"
                )
        return cls(**dict(payload))

    def to_json(self) -> str:
        """Canonical JSON rendering of :meth:`to_dict` (one line)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EngineOptions":
        """Inverse of :meth:`to_json`; also accepts any JSON object
        with a subset of the field names (hand-written config files)."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(
                f"EngineOptions JSON must be an object, got "
                f"{type(payload).__name__}"
            )
        return cls.from_dict(payload)

    def resolve(self) -> ResolvedEngine:
        """Concrete cache/tracer/executor with environment defaults applied.

        The single funnel for ``REPRO_FIT_CACHE``, ``REPRO_TRACE`` /
        ``REPRO_TRACE_FILE``, and ``REPRO_FIT_EXECUTOR`` /
        ``REPRO_FIT_WORKERS``: explicit fields win, ``None`` fields fall
        back to the environment. Long-lived components (the serving
        layer) call this once and share the resolved instances.
        """
        return ResolvedEngine(
            cache=resolve_cache(self.cache),
            tracer=resolve_tracer(self.trace),
            executor=get_executor(self.executor, max_workers=self.n_workers),
        )


#: The all-defaults instance every merge compares against.
DEFAULT_ENGINE_OPTIONS = EngineOptions()
