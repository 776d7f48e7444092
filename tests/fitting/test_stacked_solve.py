"""The stacked many-pairs solve against lone fits.

``fit_least_squares``, the Table I–IV grids and ``fit_fleet`` all fit
through one private solve that stacks the starts of many ``(family,
curve)`` pairs into one batched kernel call (or one executor map on
scipy). Stacking is a performance step only: every pair's result must
equal a lone ``fit_least_squares`` bit for bit, on both engines, also
when the pairs of one call carry different start settings, and a grid
with a failing cell must raise what the per-cell loop raised.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.experiments import _fit_grid
from repro.datasets.recessions import load_recession
from repro.exceptions import ConvergenceError, FitError
from repro.fitting.least_squares import _FailedPair, _FitPair, _fit_pairs, fit_least_squares
from repro.fitting.multistart import generate_starts
from repro.fitting.options import EngineOptions
from repro.fitting.result import FitResult
from repro.models.quadratic import QuadraticResilienceModel
from repro.models.registry import make_model
from tests.fitting.test_fleet_edges import ExplodingModel, _bathtub_curve

ENGINES = ("scipy", "batched")

#: Both bathtubs and the four mixtures of Tables I and III.
FAMILIES = ("quadratic", "competing_risks", "exp-exp", "wei-exp", "exp-wei", "wei-wei")

#: Few datasets and prefix lengths, so drawn pairs often share a
#: (family, length) kernel group.
DATASETS = ("1981-83", "1990-93", "2001-05", "2020-21")
LENGTHS = (12, 18)

#: Per-pair start settings, as the refits of one serving tick mix them:
#: a cold fit, a warm refit (the previous optimum is the only start) and
#: a full refit (the previous optimum injected as an extra start), each
#: with its own random-start budget or the call's.
KINDS = ("cold", "warm", "full")

_PAIRS = st.lists(
    st.tuples(
        st.sampled_from(FAMILIES),
        st.sampled_from(DATASETS),
        st.sampled_from(LENGTHS),
        st.sampled_from(KINDS),
        st.none() | st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=4,
)


def _pair(family_name, dataset, length, kind, budget) -> _FitPair:
    """A pair with the start settings of a *kind* refit; the family's
    last heuristic seed stands in for the previous optimum."""
    family = make_model(family_name)
    curve = load_recession(dataset).head(length)
    previous = generate_starts(family, curve, n_random=0)[-1]
    settings = {
        "cold": {},
        "warm": {"starts": (previous,)},
        "full": {"extra_starts": (previous,)},
    }[kind]
    return _FitPair(family, curve, n_random_starts=budget, **settings)


def _options(engine: str, n_random_starts: int) -> EngineOptions:
    return EngineOptions(
        engine=engine,
        cache=False,
        trace=False,
        executor="serial",
        seed=3,
        n_random_starts=n_random_starts,
        # A tight budget keeps the mixtures cheap; starts that run out
        # of it must still agree bit for bit.
        max_nfev=150,
    )


def _outcome(fit: FitResult) -> tuple:
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
        fit.message,
    )


@pytest.mark.parametrize("engine", ENGINES)
@given(spec=_PAIRS, n_random_starts=st.integers(min_value=0, max_value=2))
@example(
    spec=[
        ("wei-exp", "1990-93", 18, "cold", None),
        ("quadratic", "2020-21", 12, "warm", None),
        ("wei-exp", "2001-05", 18, "full", 0),
        ("quadratic", "1981-83", 12, "full", None),
    ],
    n_random_starts=1,
)
@settings(max_examples=6, deadline=None)
def test_stacked_pairs_equal_lone_fits(engine, spec, n_random_starts):
    options = _options(engine, n_random_starts)
    pairs = [_pair(*entry) for entry in spec]
    stacked = _fit_pairs(pairs, options=options)
    assert len(stacked) == len(pairs)
    for pair, got in zip(pairs, stacked):
        try:
            lone = fit_least_squares(
                pair.family,
                pair.curve,
                options=options,
                starts=pair.starts,
                extra_starts=pair.extra_starts,
                n_random_starts=pair.n_random_starts,
            )
        except FitError as exc:
            assert isinstance(got, _FailedPair)
            assert type(got.error) is type(exc)
            assert str(got.error) == str(exc)
            continue
        assert isinstance(got, FitResult)
        assert _outcome(got) == _outcome(lone)
        assert got.engine == lone.engine == engine


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("engine", ENGINES)
def test_grid_with_failing_cell_raises_like_the_per_cell_loop(engine):
    options = _options(engine, 2)
    pairs = [
        _FitPair(QuadraticResilienceModel(), _bathtub_curve("a")),
        _FitPair(ExplodingModel(), _bathtub_curve("b")),
        _FitPair(QuadraticResilienceModel(), _bathtub_curve("c")),
        _FitPair(ExplodingModel(), _bathtub_curve("d")),
    ]
    with pytest.raises(ConvergenceError) as looped:
        for pair in pairs:
            fit_least_squares(pair.family, pair.curve, options=options)
    with pytest.raises(ConvergenceError) as stacked:
        _fit_grid(pairs, options)
    assert str(stacked.value) == str(looped.value)
    assert str(stacked.value).endswith("to b")
