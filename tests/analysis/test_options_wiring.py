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
import repro.serving.remediation as remediation
import repro.serving.session as session_module
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
from repro.serving import ForecastSession, RefitPolicy, RemediationLoop
from repro.validation.bootstrap import residual_bootstrap

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
            episode_scorecard,
            run_full_reproduction,
        ],
    )
    def test_accepts_options_keyword(self, entry_point):
        parameters = inspect.signature(entry_point).parameters
        assert "options" in parameters
        assert parameters["options"].default is None


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


def _spy_solves(monkeypatch, module):
    """Record the pairs and keyword arguments of every stacked solve
    (``_fit_pairs``) that *module* makes."""
    calls: list[tuple[list, dict]] = []
    real = module._fit_pairs

    def spy(pairs, **kwargs):
        calls.append((list(pairs), kwargs))
        return real(pairs, **kwargs)

    monkeypatch.setattr(module, "_fit_pairs", spy)
    return calls


def _pair_budgets(solves):
    """The multi-start budget of each pair of the recorded stacked
    solves: the pair's own if set, else the call's loose
    ``n_random_starts``, else its bundle's."""
    return [
        pair.n_random_starts
        if pair.n_random_starts is not None
        else kwargs.get("n_random_starts", kwargs["options"].n_random_starts)
        for pairs, kwargs in solves
        for pair in pairs
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
    def test_truncation_grid_keeps_a_chosen_budget(self, monkeypatch, budget):
        solves = _spy_solves(monkeypatch, experiments)
        truncation_grid(
            ("quadratic",), fractions=(0.8, 0.9), datasets=("1980",), **budget
        )
        assert _pair_budgets(solves) == [3, 3]

    def test_truncation_grid_shrinks_the_default_budget(self, monkeypatch):
        solves = _spy_solves(monkeypatch, experiments)
        truncation_grid(
            ("quadratic",), fractions=(0.8, 0.9), datasets=("1980",),
            options=PLUMBING,
        )
        assert _pair_budgets(solves) == [8, 2]


class TestOneStackedSolvePerBatch:
    """Entry points that fit a batch of independent problems hand the
    whole batch to one stacked solve, whose executor (the bundle's)
    maps every start of the call."""

    POOLED = PLUMBING.replace(executor="thread", n_workers=2, n_random_starts=2)

    @staticmethod
    def _executors(solves):
        # A name, or the instance a session resolved it to.
        return {
            getattr(kwargs["options"].executor, "name", kwargs["options"].executor)
            for _, kwargs in solves
        }

    def _assert_pooled(self, solves, count):
        assert len(solves) == count
        assert self._executors(solves) == {"thread"}

    def test_fit_many(self, recession_1990, monkeypatch):
        solves = _spy_solves(monkeypatch, least_squares)
        fit_many(
            [make_model("quadratic"), make_model("competing_risks")],
            recession_1990,
            options=self.POOLED,
        )
        self._assert_pooled(solves, 1)
        assert [pair.family.name for pair in solves[0][0]] == [
            "quadratic", "competing_risks",
        ]

    def test_truncation_grid(self, monkeypatch):
        solves = _spy_solves(monkeypatch, experiments)
        truncation_grid(
            ("quadratic", "competing_risks"), fractions=(0.8, 0.9),
            datasets=("1980",), options=self.POOLED,
        )
        self._assert_pooled(solves, 2)  # one per training fraction
        assert [len(pairs) for pairs, _ in solves] == [2, 2]

    def test_episode_scorecard(self, recession_1990, monkeypatch):
        solves = _spy_solves(monkeypatch, analysis_fleet)
        card = episode_scorecard(
            recession_1990, model="quadratic", tolerance=0.005, options=self.POOLED
        )
        self._assert_pooled(solves, 1)
        assert len(solves[0][0]) == card.n_episodes > 0

    def test_residual_bootstrap(self, recession_1990, monkeypatch):
        fit = fit_least_squares(
            make_model("quadratic"), recession_1990, options=self.POOLED
        )
        solves = _spy_solves(monkeypatch, bootstrap)
        residual_bootstrap(fit, n_replications=10, options=self.POOLED)
        self._assert_pooled(solves, 1)
        assert len(solves[0][0]) == 10

    def test_refit_tick(self, monkeypatch):
        solves = _spy_solves(monkeypatch, session_module)
        session = ForecastSession(options=self.POOLED, family="quadratic")
        for key in ("a", "b", "c"):
            for t, p in zip(range(7), (1.0, 0.9, 0.8, 0.7, 0.8, 0.9, 1.0)):
                session.observe(key, float(t), p)
        assert sorted(session.refit_stale()) == ["a", "b", "c"]
        self._assert_pooled(solves, 1)
        assert len(solves[0][0]) == 3

    def test_remediation_cycle(self, monkeypatch):
        solves = _spy_solves(monkeypatch, remediation)
        session = ForecastSession(
            options=self.POOLED, family="quadratic", policy=RefitPolicy(every_k=1000)
        )
        for key in ("a", "b"):
            for t in range(9):
                session.observe(key, float(t), 1.0 - 0.08 * t)
            session[key].refit()
            for t in range(9, 21):
                session.observe(key, float(t), 0.2)
        report = RemediationLoop(
            session, candidates=("quadratic", "competing_risks")
        ).run_cycle()
        assert report.executed == 2
        # Every plan's candidates in one solve, the verified wins in one more.
        assert 1 <= len(solves) <= 2
        assert self._executors(solves) == {"thread"}
