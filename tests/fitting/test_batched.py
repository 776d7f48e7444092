"""Tests for the batched Levenberg–Marquardt engine.

The contract under test: ``engine="batched"`` must agree with the
scipy engine on every fit that matters (same winner, same SSE to well
below rendering precision), keep honest per-problem counters, freeze
converged problems out of the active set, and stay separated from the
scipy engine in the fit cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.curve import ResilienceCurve
from repro.exceptions import FitError
from repro.fitting.batched import (
    ENGINE_ENV_VAR,
    ENGINE_NAMES,
    BatchedProblem,
    resolve_engine,
    solve_batched,
)
from repro.fitting.cache import FitCache
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.options import EngineOptions
from repro.models.registry import make_model

#: Engine plumbing for fits that must really solve.
NO_CACHE = EngineOptions(cache=False)

#: Mixture families crossed with every registered transition trend,
#: plus the two bathtub families (which take no trend).
_TREND_SPECS = [
    f"{pair}({trend})"
    for pair in ("exp-exp", "wei-exp", "exp-wei", "wei-wei")
    for trend in ("constant", "linear", "exponential", "log")
]
_ALL_SPECS = ["quadratic", "competing_risks", *_TREND_SPECS]


def _problem_for(family, curve, x0=None, max_nfev=2000):
    lower = tuple(float(v) for v in family.lower_bounds)
    upper = tuple(float(v) for v in family.upper_bounds)
    if x0 is None:
        x0 = tuple(
            np.clip(1.0, lo, hi) for lo, hi in zip(lower, upper)
        )
    return BatchedProblem(
        family=family,
        times=tuple(float(v) for v in curve.times),
        targets=tuple(float(v) for v in curve.performance),
        x0=tuple(float(v) for v in x0),
        lower=lower,
        upper=upper,
        max_nfev=max_nfev,
        sqrt_weights=None,
        jac_mode="analytic" if family.has_analytic_jacobian else "2-point",
    )


class TestResolveEngine:
    def test_explicit_names(self):
        assert resolve_engine("scipy") == "scipy"
        assert resolve_engine("batched") == "batched"

    def test_none_defaults_to_scipy(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert resolve_engine(None) == "scipy"

    def test_none_reads_environment(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "batched")
        assert resolve_engine(None) == "batched"

    def test_invalid_name_raises(self):
        with pytest.raises(FitError, match="engine must be one of"):
            resolve_engine("turbo")

    def test_invalid_environment_raises(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "turbo")
        with pytest.raises(FitError, match="engine must be one of"):
            resolve_engine(None)

    def test_names_tuple(self):
        assert ENGINE_NAMES == ("scipy", "batched")


class TestEngineParity:
    """Batched and scipy engines agree on the fits themselves."""

    @given(
        spec=st.sampled_from(_ALL_SPECS),
        noise_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_sse_parity_every_family_and_trend(self, spec, noise_seed):
        family = make_model(spec)
        rng = np.random.default_rng(noise_seed)
        times = np.arange(24.0)
        base = 1.0 - 0.25 * np.exp(-0.5 * ((times - 8.0) / 4.0) ** 2)
        noisy = base + rng.normal(0.0, 0.005, size=times.shape)
        curve = ResilienceCurve(times, noisy, nominal=1.0, name="prop")
        kwargs = dict(n_random_starts=2, options=NO_CACHE, max_nfev=800)
        ref = fit_least_squares(family, curve, engine="scipy", **kwargs)
        alt = fit_least_squares(family, curve, engine="batched", **kwargs)
        assert alt.sse == pytest.approx(ref.sse, rel=1e-8, abs=1e-12)
        assert alt.engine == "batched"
        assert ref.engine == "scipy"

    def test_winner_params_identical_on_recession(self, recession_1990):
        for spec in ("quadratic", "competing_risks", "wei-exp"):
            family = make_model(spec)
            ref = fit_least_squares(
                family, recession_1990, n_random_starts=4, options=NO_CACHE,
                engine="scipy",
            )
            alt = fit_least_squares(
                make_model(spec), recession_1990, n_random_starts=4,
                options=NO_CACHE, engine="batched",
            )
            # The batched winner is re-solved by scipy from the same
            # start, so the parameters are bit-identical — the property
            # the golden tables rely on.
            assert alt.params == ref.params
            assert alt.sse == ref.sse
            assert alt.details["winner_start"] == ref.details["winner_start"]

    def test_weighted_fit_parity(self, recession_1990):
        weights = np.linspace(0.5, 2.0, len(recession_1990))
        kwargs = dict(
            n_random_starts=2, options=NO_CACHE, weights=tuple(weights)
        )
        ref = fit_least_squares(
            make_model("competing_risks"), recession_1990, engine="scipy",
            **kwargs,
        )
        alt = fit_least_squares(
            make_model("competing_risks"), recession_1990, engine="batched",
            **kwargs,
        )
        assert alt.params == ref.params
        assert alt.sse == ref.sse

    def test_options_and_env_routes(self, recession_1990, monkeypatch):
        explicit = fit_least_squares(
            make_model("quadratic"), recession_1990,
            options=EngineOptions(engine="batched", cache=False),
        )
        assert explicit.engine == "batched"
        monkeypatch.setenv(ENGINE_ENV_VAR, "batched")
        ambient = fit_least_squares(
            make_model("quadratic"), recession_1990, options=NO_CACHE
        )
        assert ambient.engine == "batched"
        # Explicit kwarg overrides both the options field and the env.
        override = fit_least_squares(
            make_model("quadratic"), recession_1990,
            options=EngineOptions(engine="batched", cache=False), engine="scipy",
        )
        assert override.engine == "scipy"


class TestCounters:
    def test_totals_are_per_start_plus_confirm(self, recession_1990):
        fit = fit_least_squares(
            make_model("competing_risks"), recession_1990,
            n_random_starts=3, options=NO_CACHE, engine="batched",
        )
        d = fit.details
        assert d["nfev"] == sum(d["per_start_nfev"]) + d["confirm_nfev"] + d["polish_nfev"]
        assert d["njev"] == sum(d["per_start_njev"]) + d["confirm_njev"] + d["polish_njev"]
        assert d["confirm_nfev"] > 0  # the winner re-solve really ran
        assert len(d["per_start_iterations"]) == len(d["per_start_sse"])
        assert all(n >= 1 for n in d["per_start_nfev"])

    def test_scipy_engine_has_no_confirm(self, recession_1990):
        fit = fit_least_squares(
            make_model("competing_risks"), recession_1990,
            n_random_starts=3, options=NO_CACHE, engine="scipy",
        )
        assert fit.details["confirm_nfev"] == 0
        assert "per_start_iterations" not in fit.details


class TestFreezing:
    """Converged problems leave the active set untouched."""

    def test_solo_vs_batched_with_straggler(self, recession_1990):
        quad = make_model("quadratic")
        easy = _problem_for(quad, recession_1990, x0=(1.0, 0.0, 0.0))
        # A mixture from a poor start takes far more iterations.
        slow_family = make_model("wei-wei")
        slow = _problem_for(
            slow_family, recession_1990,
            x0=tuple(np.clip(3.0, lo, hi) for lo, hi in zip(
                slow_family.lower_bounds, slow_family.upper_bounds
            )),
        )
        [solo] = solve_batched([easy])
        together = solve_batched([easy, slow])
        # Frozen: identical vector AND counters (wall time aside).
        assert together[0]._replace(seconds=0.0) == solo._replace(seconds=0.0)
        assert together[1].n_iterations > solo.n_iterations

    def test_results_in_input_order_heterogeneous(self, recession_1990):
        problems = [
            _problem_for(make_model("quadratic"), recession_1990, x0=(1.0, 0.0, 0.0)),
            _problem_for(make_model("competing_risks"), recession_1990, x0=(1.0, 0.1, 0.001)),
            _problem_for(make_model("quadratic"), recession_1990, x0=(0.9, -0.01, 0.0001)),
        ]
        outcomes = solve_batched(problems)
        assert len(outcomes) == 3
        # Same family, different starts, same basin: the two quadratic
        # problems must land on the same SSE despite being split across
        # the group's stacked solve by the interleaved competing-risks
        # problem.
        assert outcomes[0].sse == pytest.approx(outcomes[2].sse, rel=1e-8)
        assert outcomes[0].converged and outcomes[2].converged

    def test_budget_exhaustion_freezes_with_status(self, recession_1990):
        family = make_model("wei-wei")
        problem = _problem_for(
            family, recession_1990,
            x0=tuple(np.clip(3.0, lo, hi) for lo, hi in zip(
                family.lower_bounds, family.upper_bounds
            )),
            max_nfev=5,
        )
        [outcome] = solve_batched([problem])
        assert not outcome.converged
        assert outcome.nfev <= 5 + family.n_params  # one trailing refresh at most
        assert "maximum number of function evaluations" in outcome.message


class TestCacheIntegration:
    def test_engines_use_separate_cache_keys(self, recession_1990):
        cache = FitCache()
        first = fit_least_squares(
            make_model("quadratic"), recession_1990,
            options=EngineOptions(cache=cache), engine="scipy",
        )
        miss = fit_least_squares(
            make_model("quadratic"), recession_1990,
            options=EngineOptions(cache=cache), engine="batched",
        )
        assert not miss.details["cache_hit"]  # batched never sees scipy's entry
        hit = fit_least_squares(
            make_model("quadratic"), recession_1990,
            options=EngineOptions(cache=cache), engine="batched",
        )
        assert hit.details["cache_hit"]
        assert hit.engine == "batched"
        assert hit.params == miss.params
        assert first.params == miss.params  # parity even through the cache

    def test_cache_round_trips_engine_field(self, recession_1990):
        cache = FitCache()
        fit_least_squares(
            make_model("competing_risks"), recession_1990,
            options=EngineOptions(cache=cache), engine="batched", n_random_starts=2,
        )
        hit = fit_least_squares(
            make_model("competing_risks"), recession_1990,
            options=EngineOptions(cache=cache), engine="batched", n_random_starts=2,
        )
        assert hit.details["cache_hit"]
        assert hit.engine == "batched"
