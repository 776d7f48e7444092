"""EngineOptions: merge semantics, env precedence, fit equivalence, JSON
round trip, and options= as the only way in for the engine plumbing."""

from __future__ import annotations

import pytest

import repro.observability.tracer as tracer_module
from repro.analysis.experiments import table1, table2, table3, table4, truncation_grid
from repro.analysis.fleet import episode_scorecard
from repro.analysis.pipeline import run_full_reproduction
from repro.fitting.cache import FitCache
from repro.fitting.fleet import fit_fleet
from repro.fitting.least_squares import fit_least_squares, fit_many
from repro.fitting.options import DEFAULT_ENGINE_OPTIONS, EngineOptions
from repro.models.registry import make_model
from repro.observability import Tracer
from repro.validation.bootstrap import residual_bootstrap
from repro.validation.crossval import evaluate_predictive

#: Hermetic engine plumbing shared by the equivalence tests.
PLUMBING = EngineOptions(cache=False, trace=False)


class TestMergeSemantics:
    def test_defaults(self):
        options = EngineOptions()
        assert options.jac == "auto"
        assert options.cache is None
        assert options.trace is None
        assert options.executor is None
        assert options.n_workers is None
        assert options.seed is None
        assert options.n_random_starts == 8
        assert options.max_nfev == 2000
        assert options == DEFAULT_ENGINE_OPTIONS

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EngineOptions().n_random_starts = 3  # type: ignore[misc]

    def test_replace(self):
        options = EngineOptions(seed=7).replace(n_random_starts=3)
        assert options.seed == 7
        assert options.n_random_starts == 3

    def test_override_non_none_wins(self):
        options = EngineOptions(seed=7, n_random_starts=4)
        merged = options.override(seed=11, n_random_starts=None, max_nfev=None)
        assert merged.seed == 11
        assert merged.n_random_starts == 4
        assert merged.max_nfev == 2000

    def test_override_no_changes_returns_self(self):
        options = EngineOptions(seed=7)
        assert options.override(seed=None, jac=None) is options

    def test_to_kwargs_defaults_are_empty(self):
        # EngineOptions() must be a no-op everywhere: nothing to forward.
        assert EngineOptions().to_kwargs() == {}

    def test_to_kwargs_only_non_default_fields(self):
        options = EngineOptions(seed=3, n_random_starts=5, cache=False)
        assert options.to_kwargs() == {
            "seed": 3,
            "n_random_starts": 5,
            "cache": False,
        }


class TestResolveEnvPrecedence:
    """resolve() is the single funnel for the REPRO_* environment knobs."""

    def test_env_executor_applies_when_field_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_EXECUTOR", "thread")
        assert EngineOptions().resolve().executor.name == "thread"

    def test_explicit_executor_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_EXECUTOR", "thread")
        engine = EngineOptions(executor="serial").resolve()
        assert engine.executor.name == "serial"

    def test_env_workers_applies_when_field_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_EXECUTOR", "thread")
        monkeypatch.setenv("REPRO_FIT_WORKERS", "3")
        engine = EngineOptions().resolve()
        assert engine.executor.max_workers == 3

    def test_explicit_workers_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_WORKERS", "3")
        engine = EngineOptions(executor="thread", n_workers=2).resolve()
        assert engine.executor.max_workers == 2

    def test_env_cache_off_applies_when_field_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_CACHE", "off")
        assert EngineOptions().resolve().cache is None

    def test_env_cache_default_applies_when_field_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIT_CACHE", raising=False)
        assert isinstance(EngineOptions().resolve().cache, FitCache)

    def test_explicit_cache_beats_env_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_CACHE", "off")
        cache = FitCache()
        assert EngineOptions(cache=cache).resolve().cache is cache

    def test_explicit_cache_false_beats_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIT_CACHE", raising=False)
        assert EngineOptions(cache=False).resolve().cache is None

    def test_env_trace_applies_when_field_is_none(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "_forced_tracer", None)
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.delenv("REPRO_TRACE_FILE", raising=False)
        assert EngineOptions().resolve().tracer.enabled

    def test_env_trace_off_applies_when_field_is_none(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "_forced_tracer", None)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_TRACE_FILE", raising=False)
        assert not EngineOptions().resolve().tracer.enabled

    def test_explicit_tracer_beats_env_off(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "_forced_tracer", None)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        tracer = Tracer()
        assert EngineOptions(trace=tracer).resolve().tracer is tracer

    def test_explicit_trace_false_beats_env_on(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "_forced_tracer", None)
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert not EngineOptions(trace=False).resolve().tracer.enabled


class TestFitEquivalence:
    """Science kwargs passed loose and the same fields inside options=
    are interchangeable."""

    def test_options_bundle_matches_kwargs(self, simple_curve):
        family = make_model("quadratic")
        via_kwargs = fit_least_squares(
            family, simple_curve, options=PLUMBING, seed=5, n_random_starts=2
        )
        via_options = fit_least_squares(
            family, simple_curve, options=PLUMBING.replace(seed=5, n_random_starts=2)
        )
        assert via_options.model.params == via_kwargs.model.params
        assert via_options.sse == via_kwargs.sse

    def test_default_options_is_noop(self, simple_curve, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_CACHE", "off")
        family = make_model("quadratic")
        bare = fit_least_squares(family, simple_curve, n_random_starts=2)
        with_options = fit_least_squares(
            family, simple_curve, options=EngineOptions(), n_random_starts=2
        )
        assert with_options.model.params == bare.model.params
        assert with_options.sse == bare.sse

    def test_explicit_kwarg_overrides_options_field(self, simple_curve):
        family = make_model("quadratic")
        reference = fit_least_squares(
            family, simple_curve, options=PLUMBING, seed=5, n_random_starts=2
        )
        overridden = fit_least_squares(
            family,
            simple_curve,
            options=PLUMBING.replace(seed=99, n_random_starts=2),
            seed=5,
        )
        assert overridden.model.params == reference.model.params
        assert overridden.sse == reference.sse

    def test_fit_many_accepts_options(self, simple_curve):
        families = [make_model("quadratic"), make_model("competing_risks")]
        via_kwargs = fit_many(
            families, simple_curve, options=PLUMBING, seed=5, n_random_starts=2
        )
        via_options = fit_many(
            families, simple_curve, options=PLUMBING.replace(seed=5, n_random_starts=2)
        )
        assert sorted(via_options) == sorted(via_kwargs)
        for name in via_kwargs:
            assert via_options[name].model.params == via_kwargs[name].model.params


class TestJsonRoundTrip:
    """to_json/from_json are lossless, with a drift pin on the schema."""

    def test_field_schema_is_pinned(self):
        # Growing EngineOptions is fine — update this pin deliberately
        # when you do, and keep from_dict's missing-keys-keep-defaults
        # behavior so old config files stay readable.
        assert EngineOptions().to_dict() == {
            "jac": "auto",
            "engine": None,
            "cache": None,
            "trace": None,
            "executor": None,
            "n_workers": None,
            "seed": None,
            "n_random_starts": 8,
            "max_nfev": 2000,
        }

    def test_round_trip_is_lossless(self):
        options = EngineOptions(
            jac="2-point", engine="batched", cache=False, trace=True,
            executor="thread", n_workers=3, seed=11, n_random_starts=2,
            max_nfev=500,
        )
        assert EngineOptions.from_json(options.to_json()) == options

    def test_to_json_is_canonical_one_line(self):
        text = EngineOptions(seed=1).to_json()
        assert "\n" not in text
        assert text == EngineOptions(seed=1).to_json()

    def test_to_dict_keeps_default_valued_fields(self):
        # Unlike to_kwargs: the payload reconstructs this exact bundle
        # even if the library's defaults change between write and read.
        assert EngineOptions(seed=5).to_dict()["n_random_starts"] == 8

    def test_component_instances_refuse_to_serialize(self):
        with pytest.raises(ValueError, match="cache"):
            EngineOptions(cache=FitCache()).to_dict()
        with pytest.raises(ValueError, match="trace"):
            EngineOptions(trace=Tracer()).to_dict()

    def test_unknown_keys_raise(self):
        with pytest.raises(ValueError, match="unknown EngineOptions field"):
            EngineOptions.from_dict({"n_random_start": 3})

    @pytest.mark.parametrize(
        "payload",
        [
            {"n_random_starts": "4"},
            {"seed": 1.5},
            {"cache": "no"},
            {"max_nfev": True},
            {"jac": None},
        ],
    )
    def test_wrongly_typed_values_raise(self, payload):
        (name,) = payload
        with pytest.raises(ValueError, match=f"field {name!r} must be"):
            EngineOptions.from_dict(payload)

    def test_subset_payload_keeps_defaults(self):
        assert EngineOptions.from_json('{"seed": 9}') == EngineOptions(seed=9)

    def test_non_object_json_raises(self):
        with pytest.raises(ValueError, match="must be an object"):
            EngineOptions.from_json("[1, 2]")


def _cheap_fit(curve):
    return fit_least_squares(
        make_model("quadratic"), curve, options=PLUMBING, n_random_starts=2
    )


#: Every fit entry point, called on a curve with the cheapest arguments
#: that reach its fit.
ENTRY_POINTS = {
    "fit_least_squares": lambda curve, **kw: fit_least_squares(
        make_model("quadratic"), curve, **kw
    ),
    "fit_many": lambda curve, **kw: fit_many([make_model("quadratic")], curve, **kw),
    "fit_fleet": lambda curve, **kw: fit_fleet([curve], ["quadratic"], **kw),
    "table1": lambda curve, **kw: table1(**kw),
    "table2": lambda curve, **kw: table2(**kw),
    "table3": lambda curve, **kw: table3(**kw),
    "table4": lambda curve, **kw: table4(**kw),
    "truncation_grid": lambda curve, **kw: truncation_grid(
        ("quadratic",), fractions=(0.9,), datasets=("1980",), **kw
    ),
    "episode_scorecard": lambda curve, **kw: episode_scorecard(
        curve, model="quadratic", tolerance=0.005, **kw
    ),
    "run_full_reproduction": lambda curve, **kw: run_full_reproduction(**kw),
    "evaluate_predictive": lambda curve, **kw: evaluate_predictive(
        make_model("quadratic"), curve, **kw
    ),
    "residual_bootstrap": lambda curve, **kw: residual_bootstrap(
        _cheap_fit(curve), n_replications=10, **kw
    ),
}

#: A value each plumbing knob accepts inside options=.
LOOSE_KNOBS = {"cache": False, "trace": False, "executor": "serial", "n_workers": 1}


@pytest.mark.parametrize("knob", sorted(LOOSE_KNOBS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_loose_plumbing_kwarg_is_a_type_error(entry, knob, recession_1990):
    """cache/trace/executor/n_workers travel only inside options=."""
    with pytest.raises(TypeError, match=knob):
        ENTRY_POINTS[entry](recession_1990, **{knob: LOOSE_KNOBS[knob]})


#: Keywords of the stacked solve's core, which no entry point forwards
#: (fit_fleet's own ``confirm=`` aside).
SOLVER_INTERNALS = {"confirm": False, "fit_spans": False}


@pytest.mark.parametrize(
    "entry, name",
    [
        (entry, name)
        for entry in sorted(ENTRY_POINTS)
        for name in sorted(SOLVER_INTERNALS)
        if (entry, name) != ("fit_fleet", "confirm")
    ],
)
def test_solver_internal_kwarg_is_a_type_error(entry, name, recession_1990):
    """A batch entry point rejects the solver's internal keywords, as a
    lone fit does."""
    with pytest.raises(TypeError, match=name):
        ENTRY_POINTS[entry](recession_1990, **{name: SOLVER_INTERNALS[name]})
