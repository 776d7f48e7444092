"""Project devtools: the invariant linter and its supporting pieces.

``repro.devtools.lint`` is an AST-based static-analysis pass that turns
the engine's load-bearing conventions — the single env boundary, seeded
randomness, ``options=`` threading, picklable work units, frozen
dataclasses, honest exception handling — into machine-checked
invariants. Run it as ``repro lint`` or
``python -m repro.devtools.lint``; see ``docs/static-analysis.md`` for
the rule catalogue, suppression syntax, and the baseline workflow.

Submodules are loaded lazily (PEP 562) so ``python -m
repro.devtools.lint`` does not import the package's public surface
twice (runpy would warn about the double import).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - static-analysis imports only
    from repro.devtools.baseline import load_baseline, render_baseline
    from repro.devtools.callgraph import CallGraph, build_callgraph
    from repro.devtools.findings import Finding, suppressions_for
    from repro.devtools.graph_rules import GRAPH_RULES
    from repro.devtools.lint import LintResult, main, run_lint
    from repro.devtools.rules import ALL_RULES, LintConfig, default_config
    from repro.devtools.sarif import render_sarif

__all__ = [
    "ALL_RULES",
    "CallGraph",
    "Finding",
    "GRAPH_RULES",
    "LintConfig",
    "LintResult",
    "build_callgraph",
    "default_config",
    "load_baseline",
    "main",
    "render_baseline",
    "render_sarif",
    "run_lint",
    "suppressions_for",
]

#: Public name → submodule that defines it (for lazy loading).
_EXPORTS = {
    "ALL_RULES": "rules",
    "CallGraph": "callgraph",
    "Finding": "findings",
    "GRAPH_RULES": "graph_rules",
    "LintConfig": "rules",
    "LintResult": "lint",
    "build_callgraph": "callgraph",
    "default_config": "rules",
    "load_baseline": "baseline",
    "main": "lint",
    "render_baseline": "baseline",
    "render_sarif": "sarif",
    "run_lint": "lint",
    "suppressions_for": "findings",
}


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    return getattr(module, name)
