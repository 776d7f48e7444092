"""The benchmark harness's helpers do what the bench asserts built on
them assume."""

from __future__ import annotations

from typing import Any

import pytest

from benchmarks.conftest import per_start_scipy
from repro.datasets.recessions import load_recession
from repro.fitting import trf
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.options import EngineOptions
from repro.models.registry import make_model

SCIPY = EngineOptions(engine="scipy", cache=False, executor="serial")


def test_per_start_scipy_solves_every_start_with_scipy(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """Inside ``per_start_scipy()`` a scipy-engine fit makes one scipy
    ``least_squares`` call per start and fits the same; outside it the
    kernel takes the starts again wherever it is trusted."""
    trusted = trf._kernel_trusted()  # the probe's own scipy calls run here
    calls: list[Any] = []
    original = trf.optimize.least_squares

    def spy(*args: Any, **kwargs: Any) -> Any:
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(trf.optimize, "least_squares", spy)
    family = make_model("competing_risks")
    curve = load_recession("1990-93")
    with per_start_scipy():
        inside = fit_least_squares(family, curve, n_random_starts=2, options=SCIPY)
    assert len(calls) == inside.n_starts > 1

    outside = fit_least_squares(family, curve, n_random_starts=2, options=SCIPY)
    assert len(calls) - inside.n_starts == (0 if trusted else outside.n_starts)
    assert outside.params == inside.params
    assert outside.details["nfev"] == inside.details["nfev"]
