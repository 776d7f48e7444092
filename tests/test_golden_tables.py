"""Golden-artifact regression tests for the paper's four tables.

Each test re-renders one table on the benchmark harness's small
deterministic configuration (``n_random_starts=4``, serial executor)
under each solver engine and compares the render **byte for byte**
against the fixture committed under ``tests/golden/``. Any drift in the
fit engine, the stacked grid solve, the metric formulas, or the table
formatting fails these tests with a unified diff, so refactors that
claim "no behavior change" are held to it.

The fixtures are the same renders the benchmarks save to
``benchmarks/output/table{1..4}.txt``. To regenerate them after an
*intentional* change::

    PYTHONPATH=src python -m pytest tests/test_golden_tables.py --update-golden

then review and commit the fixture diff like any other code change.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from repro.analysis import experiments
from repro.fitting.options import EngineOptions

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Table number → builder. All four use the benchmark configuration
#: (4 seeded random starts; the executor never changes results).
_BUILDERS = {
    "1": experiments.table1,
    "2": experiments.table2,
    "3": experiments.table3,
    "4": experiments.table4,
}

#: Both engines render the same bytes; the batched one solves each grid
#: in one stacked kernel call.
_ENGINES = ("scipy", "batched")


def _render(number: str, engine: str) -> str:
    result = _BUILDERS[number](
        n_random_starts=4, options=EngineOptions(engine=engine)
    )
    return result.to_table() + "\n"


@pytest.mark.parametrize("engine", _ENGINES)
@pytest.mark.parametrize("number", sorted(_BUILDERS))
def test_table_matches_golden(number: str, engine: str, update_golden: bool) -> None:
    path = GOLDEN_DIR / f"table{number}.txt"
    rendered = _render(number, engine)
    if update_golden:
        path.write_text(rendered)
        pytest.skip(f"updated {path}")
    assert path.exists(), (
        f"missing golden fixture {path}; run pytest with --update-golden "
        "to create it"
    )
    expected = path.read_text()
    if rendered != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                rendered.splitlines(keepends=True),
                fromfile=f"golden/table{number}.txt",
                tofile="re-rendered",
            )
        )
        pytest.fail(
            f"Table {number} drifted from its golden fixture.\n{diff}\n"
            "If the change is intentional, regenerate with "
            "`pytest tests/test_golden_tables.py --update-golden` and "
            "commit the fixture diff."
        )
