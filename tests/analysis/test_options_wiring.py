"""Every grid/pipeline entry point accepts ``options=EngineOptions(...)``;
science kwargs passed loose behave exactly like the same fields inside
the bundle."""

from __future__ import annotations

import inspect

import pytest

import repro.analysis.experiments as experiments
import repro.analysis.fleet as analysis_fleet
import repro.fitting.least_squares as least_squares
import repro.validation.bootstrap as bootstrap
import repro.validation.crossval as crossval
from repro.analysis.experiments import (
    table1,
    table2,
    table3,
    table4,
    truncation_grid,
)
from repro.analysis.fleet import episode_scorecard
from repro.analysis.pipeline import run_full_reproduction
from repro.fitting import EngineOptions
from repro.fitting.least_squares import fit_least_squares, fit_many
from repro.models.registry import make_model
from repro.validation.bootstrap import residual_bootstrap
from repro.validation.crossval import rolling_origin

#: Hermetic engine plumbing used on both sides of each comparison.
PLUMBING = EngineOptions(cache=False, trace=False)
#: Cheap science knobs, passed loose on one side and inside the bundle
#: on the other.
SCIENCE = dict(seed=5, n_random_starts=2)
CHEAP_OPTIONS = PLUMBING.replace(**SCIENCE)


class TestSignatures:
    """Every consolidated entry point exposes ``options=``.

    The expensive grids (the four tables, the full pipeline) are
    covered behaviorally through their shared stacked-solve path by the
    cheap cases below; this pins the public signature for all of them.
    """

    @pytest.mark.parametrize(
        "entry_point",
        [
            table1,
            table2,
            table3,
            table4,
            truncation_grid,
            rolling_origin,
            episode_scorecard,
            run_full_reproduction,
        ],
    )
    def test_accepts_options_keyword(self, entry_point):
        parameters = inspect.signature(entry_point).parameters
        assert "options" in parameters
        assert parameters["options"].default is None


class TestRollingOrigin:
    def test_options_bundle_matches_kwargs(self, recession_1990):
        family = make_model("quadratic")
        via_kwargs = rolling_origin(
            family, recession_1990, min_train=12, step=12,
            options=PLUMBING, **SCIENCE,
        )
        via_options = rolling_origin(
            family, recession_1990, min_train=12, step=12,
            options=CHEAP_OPTIONS,
        )
        assert via_options == via_kwargs

    def test_explicit_kwarg_overrides_options_field(self, recession_1990):
        family = make_model("quadratic")
        reference = rolling_origin(
            family, recession_1990, min_train=12, step=12,
            options=PLUMBING, **SCIENCE,
        )
        overridden = rolling_origin(
            family, recession_1990, min_train=12, step=12,
            options=CHEAP_OPTIONS.replace(seed=99), seed=5,
        )
        assert overridden == reference


class TestTruncationGrid:
    def test_options_bundle_matches_kwargs(self):
        common = dict(
            model_names=("quadratic",),
            fractions=(0.9,),
            datasets=("1980",),
        )
        via_kwargs = truncation_grid(**common, options=PLUMBING, **SCIENCE)
        via_options = truncation_grid(**common, options=CHEAP_OPTIONS)
        assert via_options.to_table() == via_kwargs.to_table()
        assert (
            via_options.cells["1980"]["quadratic"][0.9].measures
            == via_kwargs.cells["1980"]["quadratic"][0.9].measures
        )

    def test_options_executor_field_selects_grid_backend(self):
        via_options = truncation_grid(
            model_names=("quadratic",),
            fractions=(0.9,),
            datasets=("1980",),
            options=CHEAP_OPTIONS.replace(executor="thread", n_workers=2),
        )
        via_kwargs = truncation_grid(
            model_names=("quadratic",),
            fractions=(0.9,),
            datasets=("1980",),
            options=PLUMBING,
            **SCIENCE,
        )
        assert via_options.to_table() == via_kwargs.to_table()


class TestEpisodeScorecard:
    def test_options_bundle_matches_kwargs(self, recession_1990):
        common = dict(model="quadratic", tolerance=0.005)
        via_kwargs = episode_scorecard(
            recession_1990, **common, options=PLUMBING, **SCIENCE
        )
        via_options = episode_scorecard(
            recession_1990, **common, options=CHEAP_OPTIONS
        )
        assert via_options.n_episodes == via_kwargs.n_episodes
        for ours, theirs in zip(via_options.scores, via_kwargs.scores):
            assert ours.fit.model.params == theirs.fit.model.params
            assert ours.fit.sse == theirs.fit.sse


class TestValidationSweep:
    def test_table1_options_bundle_matches_kwargs(self):
        # One full sweep each way is the costliest comparison here, so it
        # runs with the trimmed multi-start budget on the serial backend.
        via_kwargs = table1(options=PLUMBING, **SCIENCE)
        via_options = table1(options=CHEAP_OPTIONS)
        assert via_options.to_table() == via_kwargs.to_table()


def _spy_calls(monkeypatch, module, name):
    """Record the keyword arguments of every call to ``module.name``."""
    calls: list[dict] = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def _budgets(calls):
    """The multi-start budget of each recorded fit: the loose
    ``n_random_starts`` if given, else the bundle's."""
    return [
        kwargs.get("n_random_starts", kwargs["options"].n_random_starts)
        for kwargs in calls
    ]


class TestWarmBudget:
    """A warm-started sweep shrinks the random-start budget after its
    first fit, unless the caller chose a budget — loose or inside a
    non-default bundle."""

    CHOSEN = [
        pytest.param({"options": PLUMBING.replace(n_random_starts=3)}, id="bundle"),
        pytest.param({"options": PLUMBING, "n_random_starts": 3}, id="loose"),
    ]

    @pytest.mark.parametrize("budget", CHOSEN)
    def test_rolling_origin_keeps_a_chosen_budget(
        self, recession_1990, monkeypatch, budget
    ):
        calls = _spy_calls(monkeypatch, crossval, "fit_least_squares")
        rolling_origin(
            make_model("quadratic"), recession_1990, min_train=12, step=12, **budget
        )
        assert len(calls) > 1 and set(_budgets(calls)) == {3}

    def test_rolling_origin_shrinks_the_default_budget(
        self, recession_1990, monkeypatch
    ):
        calls = _spy_calls(monkeypatch, crossval, "fit_least_squares")
        rolling_origin(
            make_model("quadratic"), recession_1990, min_train=12, step=12,
            options=PLUMBING,
        )
        budgets = _budgets(calls)
        assert budgets[0] == 8 and set(budgets[1:]) == {2}

    @pytest.mark.parametrize("budget", CHOSEN)
    def test_truncation_grid_keeps_a_chosen_budget(self, monkeypatch, budget):
        calls = _spy_calls(monkeypatch, experiments, "evaluate_predictive")
        truncation_grid(
            ("quadratic",), fractions=(0.8, 0.9), datasets=("1980",), **budget
        )
        assert _budgets(calls) == [3, 3]

    def test_truncation_grid_shrinks_the_default_budget(self, monkeypatch):
        calls = _spy_calls(monkeypatch, experiments, "evaluate_predictive")
        truncation_grid(
            ("quadratic",), fractions=(0.8, 0.9), datasets=("1980",),
            options=PLUMBING,
        )
        assert _budgets(calls) == [8, 2]


class TestCellFitsRunSerially:
    """Entry points that map independent cells over ``options.executor``
    run each cell's own fit on the serial executor."""

    POOLED = PLUMBING.replace(executor="thread", n_workers=2, n_random_starts=2)

    @staticmethod
    def _executors(calls):
        return [kwargs["options"].executor for kwargs in calls]

    def test_fit_many(self, recession_1990, monkeypatch):
        calls = _spy_calls(monkeypatch, least_squares, "fit_least_squares")
        fit_many(
            [make_model("quadratic"), make_model("competing_risks")],
            recession_1990,
            options=self.POOLED,
        )
        assert self._executors(calls) == ["serial", "serial"]

    def test_truncation_grid(self, monkeypatch):
        calls = _spy_calls(monkeypatch, experiments, "evaluate_predictive")
        truncation_grid(
            ("quadratic",), fractions=(0.8, 0.9), datasets=("1980",),
            options=self.POOLED,
        )
        assert self._executors(calls) == ["serial", "serial"]

    def test_episode_scorecard(self, recession_1990, monkeypatch):
        calls = _spy_calls(monkeypatch, analysis_fleet, "fit_least_squares")
        episode_scorecard(
            recession_1990, model="quadratic", tolerance=0.005, options=self.POOLED
        )
        assert calls and set(self._executors(calls)) == {"serial"}

    def test_residual_bootstrap(self, recession_1990, monkeypatch):
        fit = fit_least_squares(
            make_model("quadratic"), recession_1990, options=self.POOLED
        )
        calls = _spy_calls(monkeypatch, bootstrap, "fit_least_squares")
        residual_bootstrap(fit, n_replications=10, options=self.POOLED)
        assert self._executors(calls) == ["serial"] * 10
