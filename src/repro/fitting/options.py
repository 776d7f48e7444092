"""The :class:`EngineOptions` bundle — one object for every fit-engine knob.

Every entry point that drives the fit engine historically grew the same
tail of keyword arguments (``jac=``, ``engine=``, ``cache=``,
``trace=``, ``executor=``, ``n_workers=``, ``seed=``,
``n_random_starts=``, ``max_nfev=``). :class:`EngineOptions` freezes that tail into a single
immutable value that can be built once and handed to
:func:`~repro.fitting.fit_least_squares`, :func:`~repro.fitting.fit_many`,
the table grids, :func:`~repro.analysis.experiments.truncation_grid`,
:func:`~repro.validation.crossval.rolling_origin`,
:func:`~repro.analysis.fleet.episode_scorecard`,
:func:`~repro.analysis.pipeline.run_full_reproduction`, and the whole
:mod:`repro.serving` subsystem (which accepts *only* options).

Merge semantics (uniform across every entry point):

* an explicit individual kwarg always overrides the same field of
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
import warnings
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple

from repro.fitting.cache import FitCache, resolve_cache
from repro.observability.tracer import TracerLike, resolve_tracer
from repro.parallel import ExecutorLike, FitExecutor, get_executor

__all__ = [
    "DEFAULT_ENGINE_OPTIONS",
    "DEPRECATED_ENGINE_KWARGS",
    "EngineOptions",
    "ResolvedEngine",
    "grid_engine_kwargs",
    "split_engine_kwargs",
    "warn_deprecated_engine_kwargs",
]

#: The engine-plumbing keyword arguments deprecated on every fit entry
#: point in favor of ``options=``. The per-fit science knobs (``jac``,
#: ``engine``, ``seed``, ``n_random_starts``, ``max_nfev``) are *not*
#: deprecated — they vary per call; the plumbing below configures a
#: process and belongs in one bundle.
DEPRECATED_ENGINE_KWARGS: tuple[str, ...] = (
    "cache",
    "trace",
    "executor",
    "n_workers",
)


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
    jac:
        Jacobian strategy (``"auto"``, ``"analytic"``, ``"2-point"``).
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
        Backend name/instance for parallel work, ``None`` for the
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

    jac: str = "auto"
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

    def to_kwargs(self) -> dict[str, Any]:
        """Fields that differ from the defaults, as a kwargs dict.

        Default-valued fields are omitted so each entry point's own
        defaults (and internal heuristics such as warm-start budget
        shrinking) still apply when the caller did not opt in.
        """
        kwargs: dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is not DEFAULT_ENGINE_OPTIONS and value != getattr(
                DEFAULT_ENGINE_OPTIONS, field.name
            ):
                kwargs[field.name] = value
        return kwargs

    def to_dict(self) -> dict[str, Any]:
        """Every field as a JSON-serializable mapping (lossless).

        Unlike :meth:`to_kwargs` this does **not** drop default-valued
        fields: the payload reconstructs this exact bundle via
        :meth:`from_dict` even if the library's defaults change between
        writing and reading. Fields holding live component instances
        (a :class:`~repro.fitting.cache.FitCache`, a tracer, an
        executor object) cannot survive a JSON trip and raise — config
        files should name backends (``"thread"``) and use booleans for
        cache/trace.

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

        Unknown keys raise (a config-file typo must not silently become
        a default), missing keys keep their defaults (old config files
        stay readable when the bundle grows a field).
        """
        field_names = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - field_names)
        if unknown:
            raise ValueError(
                f"unknown EngineOptions field(s) {unknown}; "
                f"expected a subset of {sorted(field_names)}"
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


def warn_deprecated_engine_kwargs(entry: str, names: Any) -> None:
    """Emit the one DeprecationWarning for loose engine-plumbing kwargs.

    *names* is any iterable of kwarg names; only those listed in
    :data:`DEPRECATED_ENGINE_KWARGS` are reported (in canonical order),
    and nothing is emitted when none match. ``stacklevel=3`` points the
    warning at the caller of the entry point, not at the entry point's
    own merge plumbing.
    """
    given = [name for name in DEPRECATED_ENGINE_KWARGS if name in set(names)]
    if not given:
        return
    rendered = ", ".join(f"{name}=..." for name in given)
    warnings.warn(
        f"{entry}: passing {', '.join(given)} as loose keyword "
        f"argument(s) is deprecated; pass "
        f"options=EngineOptions({rendered}) instead",
        DeprecationWarning,
        stacklevel=3,
    )


def split_engine_kwargs(
    entry: str,
    options: EngineOptions | None,
    fit_kwargs: Mapping[str, Any],
) -> tuple[EngineOptions | None, dict[str, Any]]:
    """Pop deprecated plumbing knobs out of a loose ``**fit_kwargs``.

    For entry points that forward ``**fit_kwargs`` opaquely (the
    cross-validation helpers): the four deprecated names are removed
    from the mapping, any non-``None`` values are folded into *options*
    via :meth:`EngineOptions.override` (creating a bundle when the
    caller passed none) with a single DeprecationWarning naming
    *entry*, and the remaining science kwargs are returned untouched.
    """
    remaining = dict(fit_kwargs)
    plumbing = {
        name: remaining.pop(name)
        for name in DEPRECATED_ENGINE_KWARGS
        if name in remaining
    }
    given = {name: value for name, value in plumbing.items() if value is not None}
    if given:
        warn_deprecated_engine_kwargs(entry, given)
        base = options if options is not None else DEFAULT_ENGINE_OPTIONS
        options = base.override(**given)
    return options, remaining


def grid_engine_kwargs(
    options: EngineOptions | None,
    executor: ExecutorLike,
    n_workers: int | None,
    fit_kwargs: Mapping[str, Any],
    *,
    entry: str | None = None,
) -> tuple[ExecutorLike, int | None, dict[str, Any]]:
    """Merge *options* into a grid-style entry point's arguments.

    Grid entry points (the table sweeps, :func:`truncation_grid`,
    :func:`episode_scorecard`, :func:`fit_many`) consume ``executor`` /
    ``n_workers`` themselves — they parallelize the grid cells (a table
    sweep: every start of every cell, in one stacked solve), and the
    per-cell fits run serially — while forwarding the remaining engine
    knobs into each cell's fit. This helper applies the same split to an
    options bundle: its executor fields fill the grid-level arguments
    (when those were not given explicitly), its science fields
    (``jac``/``engine``/``seed``/``n_random_starts``/``max_nfev``) are
    folded *under* the explicit per-fit kwargs, and its plumbing fields
    (``cache``/``trace``) travel to each cell as a per-cell
    ``options=`` bundle in the returned kwargs rather than as the
    deprecated loose knobs.

    When *entry* is given, explicitly passed deprecated knobs — a
    non-``None`` grid-level ``executor``/``n_workers`` or a non-``None``
    ``cache``/``trace`` inside *fit_kwargs* — draw one
    DeprecationWarning naming that entry point (they keep working; the
    values are honored exactly as before).
    """
    merged = dict(fit_kwargs)
    explicit = {
        name: merged.pop(name) for name in ("cache", "trace") if name in merged
    }
    if entry is not None:
        given = [name for name, value in explicit.items() if value is not None]
        if executor is not None:
            given.append("executor")
        if n_workers is not None:
            given.append("n_workers")
        warn_deprecated_engine_kwargs(entry, given)
    base_options = options if options is not None else DEFAULT_ENGINE_OPTIONS
    if executor is None:
        executor = base_options.executor
    if n_workers is None:
        n_workers = base_options.n_workers
    science = {
        name: value
        for name, value in base_options.to_kwargs().items()
        if name not in DEPRECATED_ENGINE_KWARGS
    }
    science.update(merged)
    # Per-cell plumbing: cache/trace from the bundle, overridden by the
    # explicit loose knobs; executor/n_workers stay None so each cell
    # keeps its historical serial/env-default resolution.
    cell_options = DEFAULT_ENGINE_OPTIONS.override(
        cache=base_options.cache, trace=base_options.trace
    ).override(**{k: v for k, v in explicit.items() if v is not None})
    science["options"] = cell_options
    return executor, n_workers, science
