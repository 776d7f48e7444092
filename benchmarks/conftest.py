"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, saves the
rendered artifact under ``benchmarks/output/``, and asserts the
qualitative findings that artifact supports. Timings are measured by
pytest-benchmark (single round — the artifacts are deterministic and
the fits are the dominant cost).
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Iterator

import pytest

from repro.fitting import trf

#: Where rendered tables/figures are written.
OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture()
def save_artifact(artifact_dir):
    """Write a rendered artifact and echo it to the terminal (-s)."""

    def _save(name: str, text: str) -> Path:
        path = artifact_dir / name
        path.write_text(text + "\n")
        print()
        print(text)
        return path

    return _save


@pytest.fixture()
def save_figure(artifact_dir, save_artifact):
    """Save a FigureResult as both ASCII text and a standalone SVG."""

    def _save(stem: str, figure, **ascii_kwargs) -> Path:
        from repro.analysis.export import figure_to_svg

        save_artifact(f"{stem}.txt", figure.to_ascii(**ascii_kwargs))
        return figure_to_svg(figure).save(artifact_dir / f"{stem}.svg")

    return _save


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark *func* with a single round/iteration.

    The experiment functions are deterministic and expensive (dozens of
    bounded least-squares fits), so one timed round is representative.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


@contextlib.contextmanager
def per_start_scipy() -> Iterator[None]:
    """Inside the block the scipy engine solves every start with its own
    scipy call: the stacked trf kernel reports itself untrusted. The
    speedup asserts that compare against per-start scipy solves, and the
    executor-backend sweep, time their scipy side this way, so they keep
    their meaning."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trf, "_kernel_trusted", lambda: False)
        yield
