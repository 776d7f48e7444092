"""End-to-end reproduction pipeline.

:func:`run_full_reproduction` regenerates every table and figure in
one pass, reusing fits across artifacts where the protocol allows
(Tables I/II share the bathtub fits; Tables III/IV the mixture fits).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fitting.options import DEFAULT_ENGINE_OPTIONS, EngineOptions
from repro.observability.tracer import resolve_tracer

from repro.analysis.experiments import (
    FigureResult,
    TableMetricsResult,
    TableOneResult,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    table1,
    table2,
    table3,
    table4,
)

__all__ = ["ReproductionResults", "run_full_reproduction"]


@dataclass
class ReproductionResults:
    """Every regenerated artifact, keyed the way the paper labels them."""

    table_one: TableOneResult
    table_two: TableMetricsResult
    table_three: TableOneResult
    table_four: TableMetricsResult
    figures: dict[str, FigureResult] = field(default_factory=dict)

    @property
    def tables(self) -> dict[str, TableOneResult | TableMetricsResult]:
        """Tables keyed ``"I"`` … ``"IV"``."""
        return {
            "I": self.table_one,
            "II": self.table_two,
            "III": self.table_three,
            "IV": self.table_four,
        }


def run_full_reproduction(
    *,
    train_fraction: float = 0.9,
    confidence: float = 0.95,
    alpha: float = 0.5,
    options: EngineOptions | None = None,
    **fit_kwargs: object,
) -> ReproductionResults:
    """Regenerate Tables I–IV and Figures 1–6.

    Parameters mirror the paper's protocol: 90% fitting prefix, 95%
    confidence band, α = 0.5 for the Eq. (21) weighted metric. The
    ``options=`` :class:`~repro.fitting.options.EngineOptions` bundle
    goes to every table and figure unchanged; science *fit_kwargs* win
    over its fields. Tables are identical on every executor backend.
    Enabling ``options.trace`` wraps the whole reproduction in one
    ``"pipeline.run"`` span, with each table grid and fit nested under
    it.
    """
    tracer = resolve_tracer((options or DEFAULT_ENGINE_OPTIONS).trace)
    with tracer.span("pipeline.run", train_fraction=train_fraction):
        results = ReproductionResults(
            table_one=table1(
                train_fraction=train_fraction, confidence=confidence,
                options=options, **fit_kwargs
            ),
            table_two=table2(
                train_fraction=train_fraction, alpha=alpha,
                options=options, **fit_kwargs
            ),
            table_three=table3(
                train_fraction=train_fraction, confidence=confidence,
                options=options, **fit_kwargs
            ),
            table_four=table4(
                train_fraction=train_fraction, alpha=alpha,
                options=options, **fit_kwargs
            ),
        )
        results.figures["1"] = figure1()
        results.figures["2"] = figure2()
        for figure_id, builder in (("3", figure3), ("4", figure4), ("5", figure5), ("6", figure6)):
            results.figures[figure_id] = builder(
                train_fraction=train_fraction, confidence=confidence,
                options=options, **fit_kwargs
            )
        return results
