"""The stacked trf kernel (``repro.fitting.trf``) against scipy itself.

The kernel's contract: for every analytic-Jacobian problem,
``solve_trf`` returns what ``_solve_start`` — one scipy
``least_squares`` call through the fit engine's objective — returns,
field for field (x, SSE, message, success, nfev, njev, iterations),
whether the problem shares its (family, length) group or is alone in
it. These tests hold it to that on the confirm starts the paper's
tables and the fleet benchmark solve, and on a property sweep over
every analytic family with starts inside the box, on its bounds and
with budgets that run out. They also pin the run-time guard: an
unverified scipy, a probe that disagrees, or a kernel that raises all
confirm with scipy and change no result.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

import repro.fitting.least_squares as least_squares
from repro.analysis import experiments
from repro.core.curve import ResilienceCurve
from repro.datasets.outage import generate_fleet
from repro.datasets.recessions import load_recession
from repro.fitting import trf
from repro.fitting.batched import BatchedProblem
from repro.fitting.cache import FitCache
from repro.fitting.fleet import fit_fleet
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.options import EngineOptions
from repro.fitting.trf import (
    VERIFIED_SCIPY_VERSIONS,
    _same_outcome,
    _solve_start,
    solve_trf,
)
from repro.models.registry import make_model
from repro.observability import Tracer

from tests.fitting.test_batched import _ALL_SPECS

verified_scipy = pytest.mark.skipif(
    scipy.__version__ not in VERIFIED_SCIPY_VERSIONS,
    reason=f"the kernel reproduces scipy {sorted(VERIFIED_SCIPY_VERSIONS)} only",
)

BATCHED = EngineOptions(engine="batched", cache=False, executor="serial")


def _walked(run: Any) -> list[tuple[Any, int]]:
    """Run *run* and return every confirm walk it started, with the
    call's ``max_nfev``."""
    walks: list[tuple[Any, int]] = []
    original = least_squares._confirm_winners

    def spy(batch: Any, opts: EngineOptions, tracer: Any) -> None:
        walks.extend((walk, opts.max_nfev) for walk in batch)
        original(batch, opts, tracer)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(least_squares, "_confirm_winners", spy)
        run()
    return walks


def _assert_kernel_matches(problems: list[BatchedProblem]) -> None:
    """One stacked kernel call over *problems* equals a scipy solve of
    each, and hands none back — a problem alone in its (family, length)
    group included."""
    kernel = solve_trf(problems)
    for problem, outcome in zip(problems, kernel):
        assert outcome is not None, (
            f"kernel handed back {problem.family.name} {problem.x0}"
        )
        reference = _solve_start(problem)
        assert _same_outcome(outcome, reference), (
            f"{problem.family.name} from {problem.x0}: kernel "
            f"{outcome.vector}/{outcome.sse!r}/{outcome.nfev}/{outcome.njev}/"
            f"{outcome.n_iterations} != scipy {reference.vector}/"
            f"{reference.sse!r}/{reference.nfev}/{reference.njev}/"
            f"{reference.n_iterations}"
        )


@pytest.fixture(scope="module")
def golden_candidates() -> list[BatchedProblem]:
    """Every in-band candidate of every pair Tables I–IV confirm, in the
    golden configuration (4 random starts)."""
    options = EngineOptions(engine="batched", cache=FitCache(), executor="serial")

    def build() -> None:
        for table in (
            experiments.table1,
            experiments.table2,
            experiments.table3,
            experiments.table4,
        ):
            table(n_random_starts=4, options=options)

    return [
        walk.entry.problem(walk.entry.start_vectors[index], max_nfev)
        for walk, max_nfev in _walked(build)
        for index in walk.reduced.candidates
    ]


@verified_scipy
class TestKernelEqualsScipy:
    def test_golden_table_candidates(self, golden_candidates):
        families = {problem.family.name for problem in golden_candidates}
        assert {"quadratic", "competing_risks", "wei-wei", "exp-wei"} <= families
        _assert_kernel_matches(golden_candidates)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fleet_winners(self, seed, tmp_path):
        store = generate_fleet(
            256, tmp_path / "store", seed=seed, n_points_choices=(40, 44, 48),
            horizon=47.0,
        )
        options = BATCHED.replace(n_random_starts=8)
        walks = _walked(
            lambda: fit_fleet(
                store, ("quadratic", "competing_risks"), options=options, chunk_size=128
            )
        )
        assert len(walks) == 512
        _assert_kernel_matches(
            [
                walk.entry.problem(
                    walk.entry.start_vectors[walk.reduced.candidates[0]], max_nfev
                )
                for walk, max_nfev in walks
            ]
        )

    @given(
        spec=st.sampled_from(_ALL_SPECS),
        noise_seed=st.integers(0, 2**16),
        placements=st.lists(
            st.lists(
                st.sampled_from(["lower", "upper", "inside"]), min_size=6, max_size=6
            ),
            min_size=3,
            max_size=3,
        ),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
        max_nfev=st.sampled_from([1, 2, 7, 40, 150]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_starts(self, spec, noise_seed, placements, fractions, max_nfev):
        family = make_model(spec)
        rng = np.random.default_rng(noise_seed)
        times = np.arange(24.0)
        base = 1.0 - 0.25 * np.exp(-0.5 * ((times - 8.0) / 4.0) ** 2)
        curve = ResilienceCurve(
            times, base + rng.normal(0.0, 0.005, size=times.shape), nominal=1.0
        )
        lower = tuple(float(v) for v in family.lower_bounds)
        upper = tuple(float(v) for v in family.upper_bounds)
        columns = (
            tuple(float(v) for v in curve.times),
            tuple(float(v) for v in curve.performance),
        )
        problems = []
        for placement in placements:
            start = []
            for where, fraction, lo, hi in zip(placement, fractions, lower, upper):
                if where == "lower":
                    start.append(lo)
                elif where == "upper":
                    start.append(hi)
                else:  # log-uniform over the box's working range
                    low, high = max(lo, 1e-3), min(hi, 100.0)
                    start.append(
                        float(np.exp(np.log(low) + fraction * np.log(high / low)))
                        if lo > 0
                        else lo + fraction * (min(hi, lo + 20.0) - lo)
                    )
            problems.append(
                BatchedProblem(
                    family, *columns, tuple(start), lower, upper, max_nfev
                )
            )
        kernel = solve_trf(problems)
        for problem, outcome in zip(problems, kernel):
            # A problem handed back is solved by scipy in production.
            if outcome is not None:
                assert _same_outcome(outcome, _solve_start(problem)), (
                    spec, problem.x0
                )

    def test_probe_trusts_the_kernel(self):
        trf._kernel_trusted.cache_clear()
        assert trf._kernel_trusted()


@pytest.fixture
def untrusted(monkeypatch) -> Iterator[pytest.MonkeyPatch]:
    """Forget the once-per-process trust decision around a test."""
    trf._kernel_trusted.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    trf._kernel_trusted.cache_clear()


def _fits(curve: ResilienceCurve) -> list[Any]:
    return [
        fit_least_squares(make_model(spec), curve, n_random_starts=2, options=BATCHED)
        for spec in ("quadratic", "competing_risks", "wei-exp", "exp-wei")
    ]


def _assert_same_fits(left: list[Any], right: list[Any]) -> None:
    for a, b in zip(left, right):
        assert a.params == b.params
        assert a.sse == b.sse
        assert a.message == b.message
        for key in ("winner_start", "nfev", "njev", "confirm_nfev", "confirm_njev"):
            assert a.details[key] == b.details[key], key


def _refuse(*args: Any, **kwargs: Any) -> Any:
    raise AssertionError("the kernel ran")


class TestGuard:
    def test_unverified_scipy_confirms_with_scipy(self, untrusted, recession_1990):
        reference = _fits(recession_1990)
        untrusted.setattr(trf, "VERIFIED_SCIPY_VERSIONS", frozenset())
        trf._kernel_trusted.cache_clear()
        untrusted.setattr(trf, "solve_trf", _refuse)
        _assert_same_fits(_fits(recession_1990), reference)

    def test_probe_mismatch_confirms_with_scipy(self, untrusted, recession_1990):
        reference = _fits(recession_1990)
        untrusted.setattr(trf, "_same_outcome", lambda a, b: False)
        trf._kernel_trusted.cache_clear()
        assert not trf._kernel_trusted()
        untrusted.setattr(trf, "solve_trf", _refuse)
        _assert_same_fits(_fits(recession_1990), reference)

    def test_kernel_failure_falls_back(self, untrusted, recession_1990):
        reference = _fits(recession_1990)
        if not trf._kernel_trusted():
            pytest.skip("the kernel is not trusted on this scipy")

        def explode(problems: Any) -> Any:
            raise RuntimeError("kernel failure")

        untrusted.setattr(trf, "solve_trf", explode)
        _assert_same_fits(_fits(recession_1990), reference)


class TestConfirmObservable:
    def test_every_confirm_is_recorded_under_its_fit(self):
        tracer = Tracer()
        curve = load_recession("1981-83")
        fit = fit_least_squares(
            make_model("wei-exp"), curve, n_random_starts=2,
            options=BATCHED.replace(trace=tracer),
        )
        confirms = tracer.spans_named("fit.confirm")
        assert confirms, "no fit.confirm record"
        confirm_nfev = sum(span["attrs"]["nfev"] for span in confirms)
        assert confirm_nfev <= fit.details["confirm_nfev"]
        for span in confirms:
            assert set(span["attrs"]) >= {"index", "nfev", "njev", "converged"}
            # Its share of the stacked kernel call (or its scipy solve).
            assert span["dur_s"] > 0.0
        # The winner is a confirmed candidate or, after a rescue, the
        # screened winner — the first candidate, which was confirmed too.
        indices = [span["attrs"]["index"] for span in confirms]
        assert fit.details["winner_start"] in indices
