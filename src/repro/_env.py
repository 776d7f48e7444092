"""The process-environment boundary for the whole package.

Every environment variable the library responds to is registered here,
and every read goes through :func:`read_env`. This is the **only**
module in ``src/repro`` allowed to touch ``os.environ`` — the
``repro.devtools.lint`` rule R1 (``env-boundary``) enforces it, with
this file as the sole allowlist entry. Confining reads to one funnel
keeps the env-resolution story auditable: :meth:`EngineOptions.resolve`
and the handful of default-component factories (the default tracer,
cache, and executor) call in here, and nothing else consults the
environment at all.

Reads are intentionally *not* cached: the default-component factories
(`default_tracer`, `default_fit_cache`) compare successive raw values
to decide when to rebuild their instances, and the test suite
monkeypatches ``os.environ`` freely between calls.
"""

from __future__ import annotations

import os

__all__ = ["REGISTERED_ENV_VARS", "read_env", "spawn_env"]

#: Every environment variable the library reads, with the reason it
#: exists. Reading an unregistered name is a programming error — add
#: the variable here (and document it) before using it.
REGISTERED_ENV_VARS: dict[str, str] = {
    "REPRO_FIT_EXECUTOR": "default parallel backend name (serial/thread/process)",
    "REPRO_FIT_WORKERS": "default worker count for the pooled backends",
    "REPRO_FIT_ENGINE": "default fit solver engine (scipy/batched)",
    "REPRO_FIT_CACHE": "default fit-cache mode: empty (in-memory LRU) or an off word",
    "REPRO_FIT_CACHE_MAXSIZE": "default fit-cache LRU capacity (positive int)",
    "REPRO_TRACE": "enable the process-default tracer",
    "REPRO_TRACE_FILE": "JSON-lines span file (implies tracing)",
    "REPRO_SERVE_HOST": "forecast server bind host (repro serve)",
    "REPRO_SERVE_PORT": "forecast server bind port (0 = ephemeral)",
    "REPRO_SERVE_MAX_STREAMS": "admission cap on concurrently registered streams",
    "REPRO_SERVE_MAX_INFLIGHT_REFITS": (
        "first-fit solves allowed in flight before 429 rejections"
    ),
    "REPRO_SERVE_REFIT_INTERVAL": "seconds between batched refit ticks (0 = off)",
    "REPRO_SERVE_REFIT_TIMEOUT": "deadline (s) for request-triggered first fits",
    "REPRO_PERF_STRICT": (
        "enable the pure wall-clock assertions in the tier-1 perf "
        "guards and strict wall gating in `repro bench compare` "
        "(counters are always asserted; wall bounds flake on loaded "
        "CI boxes, so they are opt-in)"
    ),
}


def read_env(name: str, default: str | None = None) -> str | None:
    """The registered environment variable *name*, or *default*.

    Raises
    ------
    KeyError
        If *name* was never registered in :data:`REGISTERED_ENV_VARS` —
        new knobs must be declared before they can be read.
    """
    if name not in REGISTERED_ENV_VARS:
        raise KeyError(
            f"environment variable {name!r} is not registered in "
            "repro._env.REGISTERED_ENV_VARS; declare it there first"
        )
    return os.environ.get(name, default)


def spawn_env(**overrides: str | None) -> dict[str, str]:
    """The process environment for a child process, with *overrides*.

    The benchmark runner launches workload scripts in subprocesses and
    must hand them the full parent environment (PATH, PYTHONPATH, …)
    plus engine-axis overrides. This is the one sanctioned way to do
    that without reading ``os.environ`` outside this module: every
    override key must be a registered variable, and a ``None`` value
    removes the variable from the child environment.
    """
    env = dict(os.environ)
    for name, value in overrides.items():
        if name not in REGISTERED_ENV_VARS:
            raise KeyError(
                f"environment variable {name!r} is not registered in "
                "repro._env.REGISTERED_ENV_VARS; declare it there first"
            )
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env
