"""Backend-invariance of the fitting stack.

The executor must be a pure performance knob: the same fit (bit for
bit) must come back from the serial, thread, and process backends, at
any worker count. That hinges on two properties tested here — random
starts are a pure function of ``(seed, index)``, and the multi-start
reduction happens in input order.
"""

import logging

import pytest

from repro.exceptions import ConvergenceError
from repro.fitting.least_squares import fit_least_squares, fit_many
from repro.fitting.multistart import generate_starts
from repro.fitting.options import EngineOptions
from repro.models.registry import make_model

BACKENDS = ("serial", "thread", "process")


class TestBackendBitIdentity:
    @pytest.mark.parametrize("family_name", ["quadratic", "competing_risks"])
    def test_serial_thread_process_identical(self, family_name, recession_1990):
        fits = {
            backend: fit_least_squares(
                make_model(family_name),
                recession_1990,
                n_random_starts=4,
                options=EngineOptions(executor=backend, n_workers=2),
            )
            for backend in BACKENDS
        }
        reference = fits["serial"]
        for backend in BACKENDS[1:]:
            fit = fits[backend]
            assert fit.model.params == reference.model.params, backend
            assert fit.sse == reference.sse, backend
            assert (
                fit.details["per_start_sse"] == reference.details["per_start_sse"]
            ), backend

    def test_worker_count_does_not_change_result(self, recession_1990):
        one = fit_least_squares(
            make_model("quadratic"), recession_1990, n_random_starts=4,
            options=EngineOptions(executor="thread", n_workers=1),
        )
        four = fit_least_squares(
            make_model("quadratic"), recession_1990, n_random_starts=4,
            options=EngineOptions(executor="thread", n_workers=4),
        )
        assert one.model.params == four.model.params


class TestStartStreamInvariance:
    def test_start_i_depends_only_on_seed_and_index(self, recession_1990):
        """Growing n_random extends the start list without disturbing
        the earlier entries — the property that makes start generation
        independent of batching and backend."""
        family = make_model("competing_risks")
        few = generate_starts(family, recession_1990, n_random=3)
        many = generate_starts(family, recession_1990, n_random=8)
        assert many[: len(few)] == few

    def test_generation_is_reproducible(self, recession_1990):
        family = make_model("wei-exp")
        assert generate_starts(family, recession_1990) == generate_starts(
            family, recession_1990
        )

    def test_seed_changes_the_random_starts(self, recession_1990):
        family = make_model("competing_risks")
        default = generate_starts(family, recession_1990, n_random=4)
        reseeded = generate_starts(family, recession_1990, n_random=4, seed=7)
        assert default != reseeded


class TestFitManyFailures:
    def test_failures_recorded_and_logged(self, recession_1990, monkeypatch, caplog):
        """A family that fails to converge lands in .failures with its
        error message (and a warning log) instead of vanishing."""
        import repro.fitting.least_squares as ls

        real = ls._fit_pairs

        def flaky(pairs, **kwargs):
            return [
                ls._FailedPair(ConvergenceError("forced failure"), 0)
                if pair.family.name == "competing_risks"
                else fit
                for pair, fit in zip(pairs, real(pairs, **kwargs))
            ]

        monkeypatch.setattr(ls, "_fit_pairs", flaky)
        with caplog.at_level(logging.WARNING, logger="repro.fitting"):
            result = fit_many(
                [make_model("quadratic"), make_model("competing_risks")],
                recession_1990,
                n_random_starts=0,
            )
        assert set(result) == {"quadratic"}
        assert result.failures == {"competing_risks": "forced failure"}
        assert result.converged_names == ("quadratic",)
        assert result.failed_names == ("competing_risks",)
        assert "failed to converge" in caplog.text

    def test_no_failures_means_empty_mapping(self, recession_1990):
        result = fit_many(
            [make_model("quadratic")], recession_1990, n_random_starts=0
        )
        assert result.failures == {}
        assert result.failed_names == ()
        # Still behaves like the plain dict it used to be.
        assert isinstance(result, dict)
        assert list(result) == ["quadratic"]
