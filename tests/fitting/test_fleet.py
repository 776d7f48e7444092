"""Tests for cross-episode fleet fitting.

The load-bearing contract: ``fit_fleet`` is a *performance* knob. On
either engine, every (episode, family) cell must be **bit-identical**
to calling :func:`repro.fitting.fit_least_squares` on that episode
alone with the same options — stacking episodes into one kernel solve,
zero-weight length padding, and chunking must never change a result.
"""

import numpy as np
import pytest

from repro.datasets.outage import generate_fleet
from repro.fitting.cache import FitCache, default_fit_cache
from repro.fitting.fleet import (
    DEFAULT_FLEET_FAMILIES,
    FleetFitResult,
    fit_fleet,
)
from repro.fitting.least_squares import fit_least_squares
from repro.exceptions import FitError
from repro.fitting.options import EngineOptions
from repro.models.registry import make_model

FAMILIES = ("quadratic", "competing_risks")
N_STARTS = 2  # small start budget keeps the loop reference affordable


@pytest.fixture(scope="module")
def ragged_store(tmp_path_factory):
    """A small ragged fleet exercising the length-padding path."""
    root = tmp_path_factory.mktemp("fleet") / "ragged"
    return generate_fleet(
        18, root, seed=29, n_points_choices=(40, 44, 48), chunk_size=7
    )


@pytest.fixture(scope="module")
def loop_reference(ragged_store):
    """Per-episode fit_least_squares results, per engine."""
    families = [make_model(name) for name in FAMILIES]
    reference = {}
    for engine in ("batched", "scipy"):
        cells = {}
        for i, curve in enumerate(ragged_store):
            for family in families:
                cells[i, family.name] = fit_least_squares(
                    family,
                    curve,
                    engine=engine,
                    n_random_starts=N_STARTS,
                    options=EngineOptions(cache=False, executor="serial"),
                )
        reference[engine] = cells
    return reference


def _assert_matches_loop(result, cells):
    assert result.n_episodes == 18
    for (i, name), looped in cells.items():
        cell = result.fit(i, name)
        assert tuple(cell.params) == tuple(looped.params), (i, name)
        assert cell.sse == looped.sse, (i, name)
        assert cell.converged == looped.converged


class TestBitIdentity:
    @pytest.mark.parametrize("length_bucket", [1, 8])
    def test_batched_matches_loop(
        self, ragged_store, loop_reference, length_bucket
    ):
        result = fit_fleet(
            ragged_store,
            FAMILIES,
            engine="batched",
            n_random_starts=N_STARTS,
            length_bucket=length_bucket,
            chunk_size=7,
        )
        _assert_matches_loop(result, loop_reference["batched"])

    def test_scipy_matches_loop(self, ragged_store, loop_reference):
        result = fit_fleet(
            ragged_store,
            FAMILIES,
            engine="scipy",
            n_random_starts=N_STARTS,
            chunk_size=5,
        )
        _assert_matches_loop(result, loop_reference["scipy"])

    def test_chunk_size_invariant(self, ragged_store):
        a = fit_fleet(
            ragged_store, FAMILIES, engine="batched",
            n_random_starts=N_STARTS, chunk_size=18,
        )
        b = fit_fleet(
            ragged_store, FAMILIES, engine="batched",
            n_random_starts=N_STARTS, chunk_size=4,
        )
        for name in FAMILIES:
            np.testing.assert_array_equal(a.params[name], b.params[name])
            np.testing.assert_array_equal(a.sse[name], b.sse[name])

    def test_curve_list_matches_store(self, ragged_store):
        a = fit_fleet(
            ragged_store, FAMILIES, engine="batched", n_random_starts=N_STARTS
        )
        b = fit_fleet(
            list(ragged_store), FAMILIES, engine="batched",
            n_random_starts=N_STARTS,
        )
        for name in FAMILIES:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_screen_only_close_but_cheaper(self, ragged_store):
        confirmed = fit_fleet(
            ragged_store, ("quadratic",), engine="batched",
            n_random_starts=N_STARTS,
        )
        screened = fit_fleet(
            ragged_store, ("quadratic",), engine="batched",
            n_random_starts=N_STARTS, confirm=False,
        )
        np.testing.assert_allclose(
            screened.sse["quadratic"], confirmed.sse["quadratic"], rtol=1e-6
        )
        assert screened.nfev["quadratic"].sum() < confirmed.nfev["quadratic"].sum()


class TestResultSurface:
    @pytest.fixture(scope="class")
    def result(self, ragged_store):
        return fit_fleet(
            ragged_store, FAMILIES, engine="batched", n_random_starts=N_STARTS
        )

    def test_columnar_shapes(self, result):
        assert isinstance(result, FleetFitResult)
        for name in FAMILIES:
            assert result.params[name].shape[0] == 18
            assert result.sse[name].shape == (18,)
            assert result.converged[name].dtype == bool
        assert result.episodes_per_sec > 0

    def test_cell_accessor(self, result):
        cell = result.fit(0, "quadratic")
        assert cell.episode == 0
        assert cell.family == "quadratic"
        assert np.isfinite(cell.sse)
        assert not cell.failed
        with pytest.raises(FitError, match="was not fitted"):
            result.fit(0, "transformer")
        with pytest.raises(FitError, match="out of range"):
            result.fit(99, "quadratic")

    def test_best_family(self, result):
        for i in range(result.n_episodes):
            best = result.best_family(i)
            assert best in FAMILIES
            assert result.fit(i, best).sse == min(
                result.fit(i, name).sse for name in FAMILIES
            )

    def test_summary_serializable(self, result):
        import json

        summary = result.summary()
        payload = json.loads(json.dumps(summary))
        assert payload["n_episodes"] == 18
        assert payload["engine"] == "batched"
        assert set(payload["per_family"]) == set(FAMILIES)
        wins = sum(f["wins"] for f in payload["per_family"].values())
        assert wins == 18


class TestOptions:
    def test_cache_defaults_off(self, ragged_store, monkeypatch):
        """Fleet fits must not populate the process default cache."""
        monkeypatch.delenv("REPRO_FIT_CACHE", raising=False)
        default = default_fit_cache()
        default.clear()
        fit_fleet(
            ragged_store, ("quadratic",), engine="scipy",
            n_random_starts=N_STARTS, chunk_size=18,
        )
        assert len(default) == 0

    def test_explicit_cache_used(self, ragged_store):
        cache = FitCache()
        fit_fleet(
            ragged_store, ("quadratic",), engine="scipy",
            n_random_starts=N_STARTS, options=EngineOptions(cache=cache),
        )
        assert len(cache) == 18
        stats = cache.stats()
        fit_fleet(
            ragged_store, ("quadratic",), engine="scipy",
            n_random_starts=N_STARTS, options=EngineOptions(cache=cache),
        )
        assert cache.stats()["hits"] >= stats["hits"] + 18

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"chunk_size": 0}, "chunk_size"),
            ({"length_bucket": 0}, "length_bucket"),
        ],
    )
    def test_validation(self, ragged_store, kwargs, match):
        with pytest.raises(FitError, match=match):
            fit_fleet(ragged_store, FAMILIES, **kwargs)

    def test_no_families(self, ragged_store):
        with pytest.raises(FitError, match="at least one"):
            fit_fleet(ragged_store, ())

    def test_duplicate_families(self, ragged_store):
        with pytest.raises(FitError, match="duplicate"):
            fit_fleet(ragged_store, ("quadratic", "quadratic"))

    def test_default_grid(self):
        assert DEFAULT_FLEET_FAMILIES == ("quadratic", "competing_risks")
