"""Content-addressed fit cache: keys, LRU, disk persistence, wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.curve import ResilienceCurve
from repro.datasets.recessions import load_recession
from repro.fitting.cache import (
    CACHE_ENV_VAR,
    FitCache,
    curve_content_hash,
    default_fit_cache,
    fit_cache_key,
    resolve_cache,
)
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.options import EngineOptions
from repro.models.registry import make_model


@pytest.fixture
def curve():
    return load_recession("1990-93")


class TestCacheKey:
    def test_key_is_stable_across_calls(self, curve):
        family = make_model("quadratic")
        config = {"seed": 0, "n_random_starts": 4}
        assert fit_cache_key(family, curve, config) == fit_cache_key(
            family, curve, config
        )

    def test_key_differs_by_family(self, curve):
        config = {"seed": 0}
        assert fit_cache_key(make_model("quadratic"), curve, config) != fit_cache_key(
            make_model("competing_risks"), curve, config
        )

    def test_key_differs_by_config(self, curve):
        family = make_model("quadratic")
        assert fit_cache_key(family, curve, {"seed": 0}) != fit_cache_key(
            family, curve, {"seed": 1}
        )

    def test_key_differs_by_curve_content(self, curve):
        family = make_model("quadratic")
        perturbed = ResilienceCurve(
            curve.times,
            curve.performance + 1e-12,
            nominal=curve.nominal,
        )
        assert fit_cache_key(family, curve, {}) != fit_cache_key(
            family, perturbed, {}
        )

    def test_curve_hash_ignores_name(self, curve):
        renamed = ResilienceCurve(
            curve.times, curve.performance, nominal=curve.nominal, name="copy"
        )
        assert curve_content_hash(curve) == curve_content_hash(renamed)


class TestFitCacheLru:
    def test_put_get_roundtrip(self):
        cache = FitCache()
        cache.put("k1", {"params": [1.0]})
        assert cache.get("k1") == {"params": [1.0]}
        assert cache.get("missing") is None

    def test_lru_eviction_order(self):
        cache = FitCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")  # refresh a → b becomes LRU
        cache.put("c", {"v": 3})
        assert "a" in cache and "c" in cache
        assert "b" not in cache

    def test_stats_track_hits_and_misses(self):
        cache = FitCache()
        cache.put("k", {})
        cache.get("k")
        cache.get("nope")
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
        }

    def test_stats_track_evictions(self):
        cache = FitCache(max_entries=2)
        for key in ("a", "b", "c", "d"):
            cache.put(key, {"v": key})
        assert cache.stats()["evictions"] == 2
        cache.clear()
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "entries": 0,
        }


class TestConcurrency:
    def test_stats_consistent_under_thread_hammering(self):
        """hits + misses must equal the total number of get() calls even
        when many threads hammer one cache — the single internal lock
        makes each lookup's count-and-answer atomic."""
        from concurrent.futures import ThreadPoolExecutor

        cache = FitCache(max_entries=64)
        n_threads, lookups_per_thread = 8, 500

        def hammer(worker: int) -> int:
            performed = 0
            for i in range(lookups_per_thread):
                key = f"k{(worker * 7 + i) % 100}"
                if cache.get(key) is None:
                    cache.put(key, {"worker": worker, "i": i})
                performed += 1
            return performed

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            totals = list(pool.map(hammer, range(n_threads)))

        stats = cache.stats()
        assert sum(totals) == n_threads * lookups_per_thread
        assert stats["hits"] + stats["misses"] == sum(totals)
        assert stats["entries"] <= 64
        assert stats["evictions"] >= 100 - 64  # 100 distinct keys, 64 slots


class TestDiskStore:
    def test_roundtrip_across_instances(self, tmp_path):
        path = tmp_path / "fits.json"
        first = FitCache(path=path)
        first.put("k", {"params": [1.0, 2.0], "sse": 0.5})
        second = FitCache(path=path)
        assert second.get("k") == {"params": [1.0, 2.0], "sse": 0.5}

    def test_corrupt_store_is_ignored(self, tmp_path):
        path = tmp_path / "fits.json"
        path.write_text("{not json")
        cache = FitCache(path=path)
        assert cache.get("k") is None
        cache.put("k", {"v": 1})  # and writes still succeed
        assert json.loads(path.read_text())["entries"]["k"] == {"v": 1}


class TestResolution:
    def test_false_disables(self):
        assert resolve_cache(False) is None

    def test_instance_passthrough(self):
        cache = FitCache()
        assert resolve_cache(cache) is cache

    def test_env_off_words_disable_default(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "off")
        assert default_fit_cache() is None
        monkeypatch.setenv(CACHE_ENV_VAR, "")
        assert default_fit_cache() is not None

    def test_env_path_persists(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "fits.json"))
        cache = default_fit_cache()
        assert cache is not None and cache.path == tmp_path / "fits.json"

    def test_env_maxsize_overrides_default(self, monkeypatch):
        from repro.fitting.cache import (
            DEFAULT_MAX_ENTRIES,
            MAXSIZE_ENV_VAR,
            default_cache_maxsize,
        )

        monkeypatch.delenv(MAXSIZE_ENV_VAR, raising=False)
        monkeypatch.setenv(CACHE_ENV_VAR, "")
        assert default_cache_maxsize() == DEFAULT_MAX_ENTRIES
        assert default_fit_cache().max_entries == DEFAULT_MAX_ENTRIES
        monkeypatch.setenv(MAXSIZE_ENV_VAR, "3")
        assert default_cache_maxsize() == 3
        # the default instance is rebuilt when the env var changes
        cache = default_fit_cache()
        assert cache.max_entries == 3
        for i in range(5):
            cache.put(f"k{i}", {"v": i})
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 2

    @pytest.mark.parametrize("raw", ["zero", "0", "-4", "1.5"])
    def test_env_maxsize_invalid_raises(self, monkeypatch, raw):
        from repro.exceptions import FitError
        from repro.fitting.cache import MAXSIZE_ENV_VAR, default_cache_maxsize

        monkeypatch.setenv(MAXSIZE_ENV_VAR, raw)
        with pytest.raises(FitError, match="positive integer"):
            default_cache_maxsize()

    def test_env_maxsize_registered(self):
        from repro._env import REGISTERED_ENV_VARS
        from repro.fitting.cache import MAXSIZE_ENV_VAR

        assert MAXSIZE_ENV_VAR in REGISTERED_ENV_VARS

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            resolve_cache("yes")  # type: ignore[arg-type]


class TestEngineIntegration:
    def test_hit_returns_equivalent_result(self, curve):
        cache = FitCache()
        family = make_model("quadratic")
        options = EngineOptions(cache=cache)
        cold = fit_least_squares(family, curve, options=options)
        warm = fit_least_squares(family, curve, options=options)
        assert cold.details["cache_hit"] is False
        assert warm.details["cache_hit"] is True
        assert warm.model.params == cold.model.params
        assert warm.sse == cold.sse
        assert warm.converged == cold.converged
        assert warm.n_starts == cold.n_starts
        assert cache.stats()["hits"] == 1

    def test_cache_false_bypasses(self, curve):
        cache = FitCache()
        family = make_model("quadratic")
        fit_least_squares(family, curve, options=EngineOptions(cache=cache))
        bypass = fit_least_squares(
            family, curve, options=EngineOptions(cache=False)
        )
        assert bypass.details["cache_hit"] is False
        assert cache.stats()["hits"] == 0

    def test_different_jac_modes_do_not_collide(self, curve):
        cache = FitCache()
        family = make_model("quadratic")
        options = EngineOptions(cache=cache)
        fit_least_squares(family, curve, options=options, jac="analytic")
        second = fit_least_squares(family, curve, options=options, jac="2-point")
        assert second.details["cache_hit"] is False
        assert len(cache) == 2

    def test_disk_cache_survives_process_boundary(self, curve, tmp_path):
        path = tmp_path / "fits.json"
        family = make_model("quadratic")
        cold = fit_least_squares(
            family, curve, options=EngineOptions(cache=FitCache(path=path))
        )
        warm = fit_least_squares(
            family, curve, options=EngineOptions(cache=FitCache(path=path))
        )
        assert warm.details["cache_hit"] is True
        np.testing.assert_array_equal(warm.model.params, cold.model.params)
