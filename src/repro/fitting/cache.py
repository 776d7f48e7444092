"""Content-addressed fit cache.

Fitting is pure: the optimum is a deterministic function of the model
family, the curve, and the fit configuration. The experiment grids
(Tables I–IV, truncation sweeps, report pipelines) nevertheless re-solve
identical ``(family, curve, config)`` triples over and over. This module
memoizes those solves behind a content address:

* **family fingerprint** — :meth:`ResilienceModel.fingerprint` (class,
  name, parameter metadata, bounds);
* **curve hash** — SHA-256 over the exact time/performance bytes and
  the nominal level;
* **fit config** — every knob that can change the optimum (engine,
  starts, seeds, budgets).

Because the key covers *everything* that determines the result, a cache
hit is bit-identical to a recompute — the cache is a performance knob,
never a correctness knob.

The default cache is a per-process in-memory LRU; callers that want
their own store pass one :class:`FitCache` instance through
``EngineOptions(cache=...)``. Setting ``REPRO_FIT_CACHE`` to an off
word disables the default cache::

    export REPRO_FIT_CACHE=off

(CLI equivalents: ``--cache`` / ``--no-cache``.)
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Mapping, Sequence

import numpy as np

from repro._env import read_env
from repro.core.curve import ResilienceCurve
from repro.exceptions import FitError
from repro.models.base import ResilienceModel

__all__ = [
    "FitCache",
    "fit_cache_key",
    "curve_content_hash",
    "default_fit_cache",
    "default_cache_maxsize",
    "resolve_cache",
    "sequence_of_vectors",
]

#: Environment variable controlling the default cache: unset or empty →
#: in-memory LRU; one of the off-words → caching disabled. Any other
#: value is an error.
CACHE_ENV_VAR = "REPRO_FIT_CACHE"

#: Values of :data:`CACHE_ENV_VAR` that disable the default cache.
_OFF_WORDS = frozenset({"0", "off", "no", "none", "false", "disabled"})

#: Environment variable overriding the default cache's LRU capacity.
MAXSIZE_ENV_VAR = "REPRO_FIT_CACHE_MAXSIZE"

#: Default in-memory capacity. Every entry is a handful of floats, so
#: this comfortably covers the full reproduction pipeline several times
#: over while bounding long-lived processes.
DEFAULT_MAX_ENTRIES = 4096


def default_cache_maxsize() -> int:
    """The default cache capacity per :data:`MAXSIZE_ENV_VAR`.

    Unset or empty → :data:`DEFAULT_MAX_ENTRIES`. Anything else must
    parse as a positive integer.

    Raises
    ------
    FitError
        If the variable is set but is not a positive integer.
    """
    raw = read_env(MAXSIZE_ENV_VAR, "") or ""
    value = raw.strip()
    if not value:
        return DEFAULT_MAX_ENTRIES
    try:
        size = int(value)
    except ValueError as exc:
        raise FitError(
            f"{MAXSIZE_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from exc
    if size < 1:
        raise FitError(
            f"{MAXSIZE_ENV_VAR} must be a positive integer, got {raw!r}"
        )
    return size


def curve_content_hash(curve: ResilienceCurve) -> str:
    """SHA-256 content address of a curve's numeric payload.

    Hashes the exact float64 bytes of times and performance plus the
    nominal level — name and metadata are provenance, not content, and
    are deliberately excluded so renamed copies of the same data share
    cache entries.
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(curve.times, dtype=np.float64).tobytes())
    digest.update(
        np.ascontiguousarray(curve.performance, dtype=np.float64).tobytes()
    )
    digest.update(repr(float(curve.nominal)).encode())
    return digest.hexdigest()


def fit_cache_key(
    family: ResilienceModel,
    curve: ResilienceCurve,
    config: Mapping[str, Any],
) -> str:
    """Content address of one fit: family fingerprint ⊕ curve hash ⊕
    canonicalized fit config."""
    config_blob = json.dumps(
        {k: _canonical(v) for k, v in sorted(config.items())},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256()
    digest.update(family.fingerprint().encode())
    digest.update(b"\x00")
    digest.update(curve_content_hash(curve).encode())
    digest.update(b"\x00")
    digest.update(config_blob.encode())
    return digest.hexdigest()


def _canonical(value: Any) -> Any:
    """JSON-stable form of a config value (tuples → lists, floats via
    repr so -0.0/precision round-trip exactly)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_canonical(float(v)) for v in value.ravel()]
    return repr(value)


class FitCache:
    """Thread-safe in-memory LRU of fit outcomes.

    Parameters
    ----------
    max_entries:
        Capacity; least-recently-used entries are evicted.

    Entries are plain dicts (parameter vector, SSE, convergence
    bookkeeping) rather than :class:`~repro.fitting.result.FitResult`
    objects; the caller re-binds the family on a hit.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Core mapping operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The stored record for *key*, or None; refreshes LRU order."""
        with self._lock:
            record = self._entries.get(key)
            if record is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return dict(record)

    def put(self, key: str, record: Mapping[str, Any]) -> None:
        """Store *record* under *key*, evicting LRU overflow."""
        with self._lock:
            self._entries[key] = dict(record)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction/size counters (for benchmarks, traces, and
        debugging). Taken under the cache lock, so ``hits + misses``
        equals the total number of :meth:`get` calls even while other
        threads are mid-lookup."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
            }


# ----------------------------------------------------------------------
# Default-cache resolution
# ----------------------------------------------------------------------
_default_cache: FitCache | None = None
_default_signature: tuple[str, str] | None = None
_default_lock = threading.Lock()


def default_fit_cache() -> FitCache | None:
    """The process-wide default cache per :data:`CACHE_ENV_VAR` and
    :data:`MAXSIZE_ENV_VAR`.

    Returns None when the environment disables caching. The instance is
    rebuilt if either environment variable changes between calls (tests
    monkeypatch them).

    Raises
    ------
    FitError
        If :data:`CACHE_ENV_VAR` is neither empty nor an off word.
    """
    global _default_cache, _default_signature
    raw = read_env(CACHE_ENV_VAR, "") or ""
    raw_maxsize = read_env(MAXSIZE_ENV_VAR, "") or ""
    with _default_lock:
        if (raw, raw_maxsize) == _default_signature and (
            _default_cache is not None or raw.strip().lower() in _OFF_WORDS
        ):
            return _default_cache
        value = raw.strip()
        if value.lower() in _OFF_WORDS:
            cache = None
        elif value:
            raise FitError(
                f"{CACHE_ENV_VAR} must be empty or one of "
                f"{sorted(_OFF_WORDS)}, got {raw!r}"
            )
        else:
            cache = FitCache(max_entries=default_cache_maxsize())
        _default_cache, _default_signature = cache, (raw, raw_maxsize)
        return _default_cache


def resolve_cache(  # repro-lint: disable=R3 — this *is* the cache resolver options= delegates to
    cache: "bool | FitCache | None",
) -> FitCache | None:
    """Map a ``cache=`` argument onto a concrete cache (or None).

    ``None``/``True`` → the environment-configured default; ``False`` →
    no caching; a :class:`FitCache` instance → itself.
    """
    if cache is False:
        return None
    if cache is None or cache is True:
        return default_fit_cache()
    if isinstance(cache, FitCache):
        return cache
    raise TypeError(
        f"cache must be a bool, None, or FitCache, got {type(cache).__name__}"
    )


def sequence_of_vectors(
    starts: Sequence[Sequence[float]] | None,
) -> list[list[float]] | None:
    """Canonical nested-list form of start vectors for cache keys."""
    if starts is None:
        return None
    return [[float(v) for v in vector] for vector in starts]
