"""Degenerate inputs through the fleet/batched fitting stack.

Fleet fits must *degrade*, never crash: an episode that is too short
for a family, or a problem where every start blows up, leaves a
``failed=True`` cell with NaN params while the rest of the fleet fits
normally. The columnar store guards the other end — episodes that
could never be fitted (one sample) or stores whose columns disagree
are rejected with a clear :class:`~repro.exceptions.DataError` instead
of surfacing later as a shape error.
"""

import numpy as np
import pytest

from repro._typing import FloatArray
from repro.core.curve import ResilienceCurve
from repro.datasets.store import EpisodeStore, EpisodeStoreWriter
from repro.exceptions import ConvergenceError, DataError
from repro.fitting.fleet import fit_fleet
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.options import EngineOptions
from repro.models.quadratic import QuadraticResilienceModel

ENGINES = ("scipy", "batched")


def _bathtub_curve(name: str = "ok", n_points: int = 12) -> ResilienceCurve:
    """A clean quadratic bathtub any engine fits without drama."""
    times = np.arange(n_points, dtype=float)
    values = 1.0 - 0.08 * times + 0.008 * times * times
    return ResilienceCurve(times, values, name=name)


def _short_curve(name: str = "short") -> ResilienceCurve:
    """3 points: a valid curve, but not enough for a 3-param family."""
    return ResilienceCurve([0.0, 1.0, 2.0], [1.0, 0.9, 0.85], name=name)


class ExplodingModel(QuadraticResilienceModel):
    """Predictions of ~1e200 make every start's SSE overflow to inf."""

    name = "exploding"

    def evaluate_batch(self, times: FloatArray, params: FloatArray) -> FloatArray:
        t = np.asarray(times, dtype=np.float64)
        p = np.asarray(params, dtype=np.float64)
        return np.full((p.shape[0], t.shape[-1]), 1e200)


class TestTooShortEpisodes:
    """Episodes with ``len(curve) <= n_params`` become failed cells."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_short_episode_fails_cleanly_in_fleet(self, engine):
        curves = [_bathtub_curve("a"), _short_curve(), _bathtub_curve("b")]
        result = fit_fleet(
            curves,
            ("quadratic",),
            engine=engine,
            n_random_starts=2,
            seed=5,
            options=EngineOptions(executor="serial"),
        )
        failed = result.failed["quadratic"]
        assert list(failed) == [False, True, False]
        cell = result.fit(1, "quadratic")
        assert cell.failed and not cell.converged
        assert all(np.isnan(p) for p in cell.params)
        assert np.isnan(cell.sse)
        # The healthy neighbours still fitted.
        for episode in (0, 2):
            assert np.all(np.isfinite(result.params["quadratic"][episode]))

    def test_all_short_fleet_returns_all_failed(self):
        result = fit_fleet(
            [_short_curve("s1"), _short_curve("s2")],
            ("quadratic",),
            n_random_starts=2,
            seed=5,
            options=EngineOptions(executor="serial"),
        )
        assert result.n_episodes == 2
        assert np.all(result.failed["quadratic"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestAllStartsPenalized:
    """When every start fails, single fits raise and fleet cells fail.

    The 1e200 predictions overflow inside scipy's TRF loop by design;
    the resulting RuntimeWarnings are the mechanism, not a defect.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_fit_raises_convergence_error(self, engine):
        with pytest.raises(ConvergenceError):
            fit_least_squares(
                ExplodingModel(),
                _bathtub_curve(),
                engine=engine,
                n_random_starts=2,
                seed=5,
                options=EngineOptions(cache=False, executor="serial"),
            )

    @staticmethod
    def _exploding_fleet(engine):
        return fit_fleet(
            [_bathtub_curve("a"), _bathtub_curve("b")],
            (ExplodingModel(),),
            engine=engine,
            n_random_starts=2,
            seed=5,
            options=EngineOptions(executor="serial"),
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fleet_cell_fails_without_crashing(self, engine):
        result = self._exploding_fleet(engine)
        assert np.all(result.failed["exploding"])
        assert np.all(np.isnan(result.sse["exploding"]))
        # Every attempted start failed; failed cells never report a win.
        assert np.array_equal(
            result.n_failures["exploding"], result.n_starts["exploding"]
        )
        assert not np.any(result.converged["exploding"])
        # The starts actually tried, the same on both engines.
        assert np.all(result.n_starts["exploding"] > 0)
        other = self._exploding_fleet("batched" if engine == "scipy" else "scipy")
        assert np.array_equal(
            result.n_starts["exploding"], other.n_starts["exploding"]
        )

    def test_mixed_families_keep_good_results(self):
        """An exploding family must not poison a healthy one."""
        result = fit_fleet(
            [_bathtub_curve()],
            (QuadraticResilienceModel(), ExplodingModel()),
            n_random_starts=2,
            seed=5,
            options=EngineOptions(executor="serial"),
        )
        assert not result.failed["quadratic"][0]
        assert result.failed["exploding"][0]
        assert result.best_family(0) == "quadratic"


class TestStoreGuards:
    """The columnar store rejects unusable episodes and torn columns."""

    def test_writer_rejects_single_sample_episode(self, tmp_path):
        with EpisodeStoreWriter(tmp_path / "store") as writer:
            with pytest.raises(DataError, match="at least 2 samples"):
                writer.append(
                    np.array([0.0, 0.0, 1.0]),
                    np.array([1.0, 1.0, 0.9]),
                    np.array([1, 2]),
                )

    def _write_store(self, root):
        with EpisodeStoreWriter(root) as writer:
            writer.append(
                np.array([0.0, 1.0, 2.0, 0.0, 1.0]),
                np.array([1.0, 0.9, 0.95, 1.0, 0.8]),
                np.array([3, 2]),
            )

    def test_tampered_lengths_column_raises_clearly(self, tmp_path):
        """A lengths column that no longer sums to the manifest's sample
        count must fail on open, not as a slice error mid-iteration."""
        root = tmp_path / "store"
        self._write_store(root)
        lengths_path = root / "lengths.bin"
        lengths = np.fromfile(lengths_path, dtype=np.int64)
        lengths[-1] += 1  # file size is still right; the sum is not
        lengths.tofile(lengths_path)
        with pytest.raises(DataError, match="inconsistent"):
            EpisodeStore(root)

    def test_truncated_sample_column_raises_clearly(self, tmp_path):
        root = tmp_path / "store"
        self._write_store(root)
        times_path = root / "times.bin"
        times_path.write_bytes(times_path.read_bytes()[:-8])
        with pytest.raises(DataError, match="manifest expects"):
            EpisodeStore(root)
