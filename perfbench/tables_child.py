"""One fresh-process build of Tables I-IV for the ``paper_tables`` workload.

Usage::

    python3 perfbench/tables_child.py [--trace]

Times the set-up (imports and the dataset load), then builds Tables
I-IV in order with the configuration recorded in ``workloads.json`` and
compares every render byte for byte with ``tests/golden/``. With
``--trace`` the layer wrappers are installed after set-up and the
per-layer metrics of the build are reported. The report is one JSON
line on stdout.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import GOLDEN_DIR, load_config, self_peak_rss_mb, use_source_tree  # noqa: E402


def main(argv: list[str]) -> int:
    if argv not in ([], ["--trace"]):
        print("usage: tables_child.py [--trace]", file=sys.stderr)
        return 2
    config = load_config("paper_tables")
    use_source_tree()
    from repro.analysis import experiments
    from repro.datasets.recessions import load_all_recessions

    load_all_recessions()
    setup_s = time.perf_counter() - STARTED
    report: dict = {"setup_s": setup_s}
    report.update(build(experiments, config, trace="--trace" in argv))
    print(json.dumps(report))
    return 0


def golden_match(number: str, text: str) -> bool:
    """Whether *text* is byte for byte the golden render of table *number*."""
    return text == (GOLDEN_DIR / f"table{number}.txt").read_text()


def count_cells(table) -> int:
    """Fitting problems behind a built table: one per model report
    (Tables II and IV) or per dataset x model cell (Tables I and III)."""
    if hasattr(table, "reports"):
        return len(table.reports)
    return sum(len(by_model) for by_model in table.cells.values())


def build(experiments, config: dict, *, trace: bool) -> dict:
    from repro.exceptions import ReproError
    from repro.fitting.cache import default_fit_cache
    from repro.fitting.options import EngineOptions

    ledger = None
    if trace:
        from ledger import Ledger, install

        ledger = Ledger()
        install(ledger)
    options = EngineOptions(**config["options"])
    tables = []
    cpu0, start = time.process_time(), time.perf_counter()
    for number in ("1", "2", "3", "4"):
        build_table = getattr(experiments, f"table{number}")
        table_start, table_cpu = time.perf_counter(), time.process_time()
        error, cells = None, 0
        try:
            table = build_table(options=options, **config["table_kwargs"])
            text, cells = table.to_table() + "\n", count_cells(table)
        except ReproError as exc:
            text, error = "", f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - table_start
        tables.append(
            {
                "number": number,
                "seconds": seconds,
                "cpu_s": time.process_time() - table_cpu,
                "cells": cells,
                "golden_match": golden_match(number, text),
                "error": error,
            }
        )
    end = time.perf_counter()
    cpu = time.process_time() - cpu0
    result = {
        "tables": tables,
        "peak_rss_mb": self_peak_rss_mb(),
    }
    if ledger is not None:
        from layers import layer_metrics, totals

        span = totals(ledger.export(), (start, end))
        layers = layer_metrics(span)
        for table in tables:
            layers[f"experiments.table{table['number']}_s"] = table["seconds"]
        cache = default_fit_cache()
        stats = cache.stats() if cache is not None else {}
        layers["cache.hits"] = float(stats.get("hits", 0))
        layers["cache.misses"] = float(stats.get("misses", 0))
        layers["trace.coverage"] = span.top_busy / cpu if cpu > 0 else 0.0
        result["layers"] = layers
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
