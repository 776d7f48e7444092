"""The scipy engine's starts on the stacked trf kernel.

``trf._solve_exactly`` solves a list of starts exactly as one scipy
``least_squares`` call each would: the analytic ones in one stacked
:func:`~repro.fitting.trf.solve_trf` call when the kernel is trusted,
the rest one scipy call each. These tests hold the scipy engine's fits
to the same fits with the kernel unverified (every start then goes to
scipy), on the paper's table grids and on batches shaped like a
forecast server's first fits and refit ticks; they show that analytic
pairs reach no scipy call at all, whatever their lengths and on either
engine, and pin the kernel's fixed rule (slices of at most
``MAX_STACK`` problems) and its solve of a problem alone in its group.
"""

from __future__ import annotations

import contextlib
from typing import Any

import numpy as np
import pytest

import repro.fitting.least_squares as least_squares
from repro.analysis import experiments
from repro.core.curve import ResilienceCurve
from repro.datasets.outage import SCENARIOS, episode_curve
from repro.fitting import trf
from repro.fitting.batched import BatchedProblem
from repro.fitting.least_squares import _fit_pairs, _FitPair
from repro.fitting.options import EngineOptions
from repro.fitting.result import FitResult
from repro.models.registry import make_model
from repro.parallel import get_executor

from tests.fitting.test_trf import untrusted, verified_scipy  # noqa: F401

SCIPY = EngineOptions(engine="scipy", cache=False, executor="serial")


def _distrust(patch: pytest.MonkeyPatch) -> None:
    """From here on every start goes to scipy: no scipy version is
    verified for the kernel."""
    patch.setattr(trf, "VERIFIED_SCIPY_VERSIONS", frozenset())
    trf._kernel_trusted.cache_clear()
    assert not trf._kernel_trusted()


def _summary(fit: Any) -> tuple[Any, ...]:
    """What a fit reports, timing aside."""
    assert isinstance(fit, FitResult), fit
    details = fit.details
    return (
        fit.model.name,
        fit.params,
        fit.sse,
        fit.message,
        fit.converged,
        fit.n_starts,
        fit.n_failures,
        details["per_start_sse"],
        details["per_start_nfev"],
        details["per_start_njev"],
        details["nfev"],
        details["njev"],
        details["winner_start"],
    )


def _stream_curves(
    n_streams: int, seed: int, n_points: int = 48
) -> list[ResilienceCurve]:
    """Outage episodes from the V/U/W/L/K templates in turn, as a
    forecast server's streams carry them."""
    labels = sorted(SCENARIOS)
    return [
        episode_curve(labels[i % len(labels)], i, seed=seed, n_points=n_points)
        for i in range(n_streams)
    ]


def _problem(
    family: Any, curve: ResilienceCurve, x0: Any, max_nfev: int = 200
) -> BatchedProblem:
    """One start of *family* on *curve*, as the fit engine builds it."""
    return BatchedProblem(
        family,
        tuple(float(v) for v in curve.times),
        tuple(float(v) for v in curve.performance),
        tuple(float(v) for v in x0),
        tuple(float(v) for v in family.lower_bounds),
        tuple(float(v) for v in family.upper_bounds),
        max_nfev,
    )


@verified_scipy
def test_golden_table_pairs_match_scipy(untrusted):
    """Every pair Tables I–IV solve, in the golden configuration, fits the
    same with every start on scipy as with the kernel."""
    calls: list[tuple[list[Any], EngineOptions, list[Any]]] = []
    original = least_squares._solve_pairs

    def spy(pairs: Any, opts: EngineOptions, **kwargs: Any) -> Any:
        fits = original(pairs, opts, **kwargs)
        calls.append((list(pairs), opts, fits))
        return fits

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(least_squares, "_solve_pairs", spy)
        for table in (
            experiments.table1,
            experiments.table2,
            experiments.table3,
            experiments.table4,
        ):
            table(n_random_starts=4, options=SCIPY)
    assert sum(len(pairs) for pairs, _, _ in calls) >= 40
    _distrust(untrusted)
    for pairs, opts, kernel_fits in calls:
        scipy_fits = original(pairs, opts)
        assert [_summary(fit) for fit in kernel_fits] == [
            _summary(fit) for fit in scipy_fits
        ]


@verified_scipy
class TestServeShapedBatches:
    """A forecast server's cold first fits and a warm refit tick, on the
    kernel and on scipy alone."""

    def _cold_pairs(self) -> list[_FitPair]:
        family = make_model("competing_risks")
        return [_FitPair(family, curve) for curve in _stream_curves(12, seed=1)]

    def _assert_same(self, pairs: list[_FitPair], patch: pytest.MonkeyPatch) -> None:
        kernel = _fit_pairs(pairs, options=SCIPY, n_random_starts=8)
        _distrust(patch)
        reference = _fit_pairs(pairs, options=SCIPY, n_random_starts=8)
        assert [_summary(fit) for fit in kernel] == [
            _summary(fit) for fit in reference
        ]

    def test_cold_first_fits(self, untrusted):
        self._assert_same(self._cold_pairs(), untrusted)

    def test_warm_tick(self, untrusted):
        # 66 warm refits of one length (a group the kernel slices) and
        # one of another length (a lone problem, solved by the kernel).
        cold = _fit_pairs(self._cold_pairs(), options=SCIPY, n_random_starts=8)
        optima = [fit.params for fit in cold if isinstance(fit, FitResult)]
        family = make_model("competing_risks")
        pairs = [
            _FitPair(family, curve, starts=(optima[i % len(optima)],), use_cache=False)
            for i, curve in enumerate(_stream_curves(66, seed=2))
        ]
        lone = _stream_curves(1, seed=3, n_points=40)[0]
        pairs.append(_FitPair(family, lone, starts=(optima[0],), use_cache=False))

        sizes: list[int] = []
        original = trf._solve_group

        def spy(problems: Any) -> Any:
            sizes.append(len(problems))
            return original(problems)

        untrusted.setattr(trf, "_solve_group", spy)
        self._assert_same(pairs, untrusted)
        # Two slices of the 66-problem group, then the lone refit.
        assert sizes == [33, 33, 1]


@verified_scipy
def test_analytic_pairs_make_no_scipy_call(untrusted):
    """Once the probe has run, a batch of analytic pairs of mixed
    lengths — one of them alone in its (family, length) group — is
    solved on either engine, screen and confirms included, without one
    scipy ``least_squares`` call."""
    assert trf._kernel_trusted()
    calls: list[Any] = []
    original = trf.optimize.least_squares

    def spy(*args: Any, **kwargs: Any) -> Any:
        calls.append(args)
        return original(*args, **kwargs)

    untrusted.setattr(trf.optimize, "least_squares", spy)
    curves = _stream_curves(3, seed=5) + _stream_curves(2, seed=5, n_points=40)
    pairs = [
        _FitPair(make_model(name), curve)
        for name in ("competing_risks", "quadratic")
        for curve in curves
    ]
    # A warm refit: its one start is alone in its (family, length) group.
    lone, family = _stream_curves(1, seed=5, n_points=44)[0], make_model("wei-exp")
    pairs.append(_FitPair(family, lone, starts=(family.initial_guesses(lone)[0],)))
    for engine in ("scipy", "batched"):
        fits = _fit_pairs(
            pairs, options=SCIPY.replace(engine=engine), n_random_starts=2
        )
        assert all(isinstance(fit, FitResult) for fit in fits), engine
        assert calls == [], engine


@verified_scipy
def test_kernel_slices_groups_without_changing_outcomes(monkeypatch):
    """``solve_trf`` hands ``_solve_group`` at most ``MAX_STACK``
    problems at a time, and every outcome equals the unsliced group's."""
    family = make_model("competing_risks")
    rng = np.random.default_rng(7)
    problems = []
    for curve in _stream_curves(10, seed=4):
        seeded = family.initial_guesses(curve)[0]
        for scale in rng.uniform(0.5, 1.5, (15, 3)):
            start = tuple(float(v * f) for v, f in zip(seeded, scale))
            problems.append(_problem(family, curve, start))
    with np.errstate(all="ignore"):
        whole = trf._solve_group(problems)

    sizes: list[int] = []
    original = trf._solve_group

    def spy(group: Any) -> Any:
        sizes.append(len(group))
        return original(group)

    monkeypatch.setattr(trf, "_solve_group", spy)
    sliced = trf.solve_trf(problems)
    assert max(sizes) <= trf.MAX_STACK
    assert sum(sizes) == len(problems) == 150
    for a, b in zip(sliced, whole):
        assert a is not None and b is not None
        assert trf._same_outcome(a, b)


@verified_scipy
def test_lone_problem_equals_scipy():
    """A problem alone in its (family, length) group is solved by the
    kernel, and comes out as one scipy call solves it."""
    curve = _stream_curves(1, seed=6)[0]
    for name in ("quadratic", "competing_risks", "wei-exp"):
        family = make_model(name)
        problem = _problem(family, curve, family.initial_guesses(curve)[0])
        (outcome,) = trf.solve_trf([problem])
        assert outcome is not None, name
        assert trf._same_outcome(outcome, trf._solve_start(problem)), name


def test_family_without_closed_form_jacobian_goes_to_scipy():
    """The kernel hands back a problem whose family has no closed-form
    Jacobian, and the exact solve gives it to one scipy call."""
    family = make_model("segmented")
    curve = _stream_curves(1, seed=6)[0]
    problem = _problem(family, curve, family.initial_guesses(curve)[0], 400)
    assert trf.solve_trf([problem]) == [None]
    (outcome,) = trf._solve_exactly(
        [problem], get_executor("serial"), contextlib.nullcontext()
    )
    assert trf._same_outcome(outcome, trf._solve_start(problem))
    assert outcome.vector is not None
