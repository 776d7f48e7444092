"""Every batch caller of the stacked solve against a loop of lone fits.

``fit_many``, ``fit_fleet``, the residual bootstrap, the episode
scorecard, the truncation sweep, the serving refit tick and the
remediation verifier each hand their whole batch to one stacked solve.
Each must return what a loop of lone ``fit_least_squares`` calls on the
same inputs returns — params, SSE, start counts, the winning start and
the evaluation counts, bit for bit — on both engines and on the serial
and thread executors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.experiments import truncation_grid
from repro.analysis.fleet import episode_scorecard
from repro.core.curve import ResilienceCurve
from repro.core.episodes import split_episodes
from repro.datasets.recessions import load_recession
from repro.exceptions import ConvergenceError, FitError
from repro.fitting import EngineOptions, fit_fleet, fit_least_squares, fit_many
from repro.fitting.options import DEFAULT_ENGINE_OPTIONS
from repro.models.registry import make_model
from repro.serving import ForecastSession, RefitPolicy, RemediationLoop
from repro.serving.remediation import Detection, _holdout_sse
from repro.validation.bootstrap import residual_bootstrap
from tests.fitting.test_fleet_edges import ExplodingModel
from tests.serving.test_remediation import (
    declining_points,
    drifting_tail,
    plateau_tail,
    quadratic_points,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SETUPS = [
    pytest.param((engine, executor), id=f"{engine}-{executor}")
    for engine in ("scipy", "batched")
    for executor in ("serial", "thread")
]


@pytest.fixture(params=SETUPS)
def options(request) -> EngineOptions:
    engine, executor = request.param
    return EngineOptions(
        engine=engine,
        executor=executor,
        n_workers=2 if executor == "thread" else None,
        cache=False,
        trace=False,
        seed=3,
        n_random_starts=1,
        max_nfev=200,
    )


def _outcome(fit) -> tuple:
    details = fit.details
    return (
        fit.model.params,
        fit.sse,
        fit.converged,
        fit.n_starts,
        fit.n_failures,
        details["winner_start"],
        details["nfev"],
        details["njev"],
    )


def _lone(family, curve, options, **kwargs):
    """A lone fit, or ``None`` when it does not converge."""
    try:
        return fit_least_squares(family, curve, options=options, **kwargs)
    except ConvergenceError:
        return None


def test_fit_many(options):
    curve = load_recession("1990-93").head(18)
    families = [make_model("quadratic"), ExplodingModel(), make_model("competing_risks")]
    result = fit_many(families, curve, options=options)
    assert result.failed_names == ("exploding",)
    for family in families:
        lone = _lone(family, curve, options)
        if lone is not None:
            assert _outcome(result[family.name]) == _outcome(lone)


def test_fit_fleet(options):
    curves = [
        load_recession(name).head(n)
        for name, n in (("1981-83", 14), ("1990-93", 18), ("2001-05", 16))
    ]
    families = ("quadratic", "competing_risks")
    result = fit_fleet(curves, families, options=options)
    for episode, curve in enumerate(curves):
        for name in families:
            cell = result.fit(episode, name)
            lone = _lone(make_model(name), curve, options)
            assert (
                cell.params, cell.sse, cell.converged, cell.n_starts,
                cell.n_failures, cell.winner_start, cell.nfev, cell.njev,
            ) == _outcome(lone)


def test_residual_bootstrap(options):
    curve = load_recession("1990-93")
    fit = fit_least_squares(make_model("quadratic"), curve, options=options)
    boot = residual_bootstrap(fit, n_replications=10, seed=4, options=options)
    # The bootstrap keeps only each refit's params: rebuild its
    # replicates from the same seeded stream and refit them one by one.
    predictions = fit.predict(curve.times)
    residuals = curve.performance - predictions
    rng = np.random.default_rng(4)
    lone_params = []
    for _ in range(10):
        synthetic = ResilienceCurve(
            curve.times,
            predictions + rng.choice(residuals, size=residuals.size, replace=True),
            nominal=curve.nominal,
            name=f"{curve.name}-boot",
        )
        lone = _lone(fit.model, synthetic, options, starts=(fit.model.params,))
        if lone is not None:
            lone_params.append(lone.model.params)
    assert boot.n_failed == 10 - len(lone_params)
    assert boot.parameter_samples.tolist() == [list(p) for p in lone_params]


def test_episode_scorecard(options):
    history = load_recession("1990-93")
    card = episode_scorecard(history, model="quadratic", tolerance=0.005, options=options)
    episodes = split_episodes(history, tolerance=0.005, min_depth=0.0, min_samples=4)
    assert card.n_episodes == len(episodes) > 0
    for score, episode in zip(card.scores, episodes):
        curve = episode.curve.shifted(-float(episode.curve.times[0]))
        try:
            lone = fit_least_squares(make_model("quadratic"), curve, options=options)
        except FitError:
            assert score.fit is None
        else:
            assert _outcome(score.fit) == _outcome(lone)


def test_truncation_grid(options):
    # The default budget, so warm prefixes shrink it.
    options = options.replace(n_random_starts=DEFAULT_ENGINE_OPTIONS.n_random_starts)
    models, fractions = ("quadratic", "competing_risks"), (0.8, 0.9)
    grid = truncation_grid(
        models, fractions=fractions, datasets=("1990-93",), options=options
    )
    curve = load_recession("1990-93")
    for model in models:
        warm: dict = {}
        for fraction in fractions:
            train, _ = curve.train_test_split(fraction)
            lone = fit_least_squares(make_model(model), train, options=options, **warm)
            assert _outcome(grid.cells["1990-93"][model][fraction].fit) == _outcome(lone)
            warm = {"extra_starts": (lone.model.params,), "n_random_starts": 2}


def test_refit_tick_mixing_cold_warm_and_full_refits(options):
    curve = load_recession("1990-93")
    points = list(zip(curve.times.tolist(), curve.performance.tolist()))
    session = ForecastSession(
        options=options, family="quadratic", policy=RefitPolicy(every_k=4)
    )
    session.register("full", policy=RefitPolicy(every_k=4, full_refit_every=1))
    session.register("budget", policy=RefitPolicy(every_k=4, warm_random_starts=1))
    for key in ("warm", "full", "budget"):
        for t, p in points[:12]:
            session.observe(key, t, p)
    assert len(session.refit_stale()) == 3
    for key in ("warm", "full", "budget", "cold"):
        start = 0 if key == "cold" else 12
        for t, p in points[start:20]:
            session.observe(key, t, p)
    planned = session.refit_plans()
    assert sorted(entry.plan.kind for entry in planned) == ["cold", "full", "warm", "warm"]
    fits = session.execute_refits(planned)
    for entry, fit in zip(planned, fits):
        lone = fit_least_squares(
            entry.plan.family, entry.plan.curve, options=options, **entry.plan.fit_kwargs
        )
        assert _outcome(fit) == _outcome(lone)
        assert fit.engine == lone.engine == options.engine


def _lone_verdict(plan, options):
    """The verifier's verdict on *plan*, one lone fit at a time."""
    if plan.kind == "reselect":
        tried = [(family, _lone(family, plan.train, options)) for family in plan.candidates]
    else:
        family = plan.incumbent_family
        extra = (plan.incumbent_params,)
        tried = [(family, _lone(family, plan.train, options, extra_starts=extra))]
    holdout = (plan.holdout_times, plan.holdout_perf)
    candidate_sse, _, family, candidate = min(
        (
            (_holdout_sse(fit.model, fit.model.params, *holdout), order, family, fit)
            for order, (family, fit) in enumerate(tried)
            if fit is not None
        ),
        key=lambda scored: scored[:2],
    )
    incumbent_sse = _holdout_sse(plan.incumbent_family, plan.incumbent_params, *holdout)
    final = None
    if candidate_sse < incumbent_sse:
        final = _lone(family, plan.full, options, starts=(candidate.model.params,))
    return candidate_sse, incumbent_sse, family, final


def test_remediation_cycle(options):
    session = ForecastSession(
        options=options, family="quadratic", policy=RefitPolicy(every_k=1000)
    )
    for key, head, tail in (
        ("reselect", declining_points(), plateau_tail),
        ("warm", quadratic_points(), drifting_tail),
    ):
        for t, p in head:
            session.observe(key, t, p)
        session[key].refit()
        for t, p in tail(session[key].n_observations):
            session.observe(key, t, p)
    loop = RemediationLoop(session, candidates=("quadratic", "competing_risks"))
    plans = loop.plan([Detection("reselect", math.inf), Detection("warm", 0.5)])
    assert [plan.kind for plan in plans] == ["reselect", "warm"]
    outcomes = loop.execute(plans)
    for plan, outcome in zip(plans, outcomes):
        candidate_sse, incumbent_sse, family, final = _lone_verdict(plan, options)
        assert outcome.candidate_holdout_sse == candidate_sse
        assert outcome.incumbent_holdout_sse == incumbent_sse
        assert outcome.adopted == (final is not None)
        if final is not None:
            assert outcome.family is family
            assert _outcome(outcome.fit) == _outcome(final)
    assert any(outcome.adopted for outcome in outcomes)
