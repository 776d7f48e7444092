"""Shared provenance block for benchmark artifacts and run manifests.

Benchmark numbers are meaningless without the machine and configuration
that produced them. :func:`provenance_block` captures both once, in one
canonical shape, so every ``BENCH_*.json`` artifact and every
``repro bench`` run manifest embeds the same ``"provenance"`` key and
artifacts from different machines or library versions can be compared
(or discarded) honestly. The benchmark scripts and the
:mod:`repro.bench` runner both import it from here.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import sys
from typing import Any

__all__ = ["REQUIRED_PROVENANCE_KEYS", "provenance_block"]

#: Keys every provenance block must carry; the artifact schema
#: validator (:mod:`repro.bench.artifact`) enforces their presence.
REQUIRED_PROVENANCE_KEYS: tuple[str, ...] = (
    "cpu_count",
    "platform",
    "machine",
    "python",
    "numpy",
    "scipy",
    "repro",
    "engine_options",
    "env",
)


def provenance_block() -> dict[str, Any]:
    """Machine + configuration snapshot embedded in BENCH payloads.

    Everything here is JSON-serializable and cheap to collect: CPU
    count, platform triple, interpreter and core numeric-library
    versions, the repro package version, and the default
    :class:`~repro.fitting.options.EngineOptions` fields (the knobs
    that change fit cost). Engine-affecting environment variables are
    recorded only when set.
    """
    import numpy
    import scipy

    import repro
    from repro._env import REGISTERED_ENV_VARS, read_env
    from repro.fitting.options import DEFAULT_ENGINE_OPTIONS

    env: dict[str, str] = {}
    for name in sorted(REGISTERED_ENV_VARS):
        value = read_env(name)
        if value is not None:
            env[name] = value
    options = {
        key: value
        for key, value in dataclasses.asdict(DEFAULT_ENGINE_OPTIONS).items()
        if value is None or isinstance(value, (bool, int, float, str))
    }
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "engine_options": options,
        "env": env,
    }
