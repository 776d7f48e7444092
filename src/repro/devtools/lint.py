"""Orchestrator and CLI for the project-invariant linter.

Run it either way::

    repro lint                         # via the main CLI
    python -m repro.devtools.lint      # standalone

Default behavior lints ``src/repro`` against the committed baseline
(``lint-baseline.json`` at the project root) and exits non-zero on any
non-baselined finding. ``--warn-only`` reports without failing (used
for ``benchmarks/`` and ``examples/``); ``--update-baseline``
regenerates the baseline file byte-identically from the current
findings.

Two layers of rules run by default: the per-module passes R1–R6
(:mod:`repro.devtools.rules`) and the interprocedural passes R7–R10
(:mod:`repro.devtools.graph_rules`), the latter over a project-wide
call graph (:mod:`repro.devtools.callgraph`) built from the same
parsed trees. A full default run also emits
``W1`` findings for suppression comments that no longer silence
anything, so ``# repro-lint: disable=`` lines cannot rot in place.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.devtools.baseline import (
    BASELINE_FILENAME,
    apply_baseline,
    load_baseline,
    render_baseline,
)
from repro.devtools.callgraph import build_callgraph
from repro.devtools.findings import Finding, suppressions_for
from repro.devtools.graph_rules import GRAPH_RULES
from repro.devtools.reporting import render_json, render_text
from repro.devtools.rules import ALL_RULES, LintConfig, ModuleSource, default_config
from repro.devtools.sarif import render_sarif

__all__ = [
    "LintResult",
    "discover_project_root",
    "iter_python_files",
    "main",
    "run_lint",
]


@dataclasses.dataclass(frozen=True)
class LintResult:
    """Everything one lint run produced.

    ``new`` are the findings that gate the exit code; ``baselined``
    matched the committed baseline; ``suppressed`` counts findings
    silenced by same-line ``# repro-lint: disable=`` comments;
    ``stale_baseline`` counts baseline entries that matched nothing.
    """

    new: tuple[Finding, ...]
    baselined: tuple[Finding, ...]
    suppressed: int
    checked_files: int
    stale_baseline: int = 0

    @property
    def all_findings(self) -> tuple[Finding, ...]:
        """New + baselined findings, in report order."""
        return tuple(sorted(self.new + self.baselined))


def discover_project_root(start: Path | None = None) -> Path:
    """Nearest ancestor of *start* (default: cwd) with a pyproject.toml."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return here


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Every ``.py`` file under *paths* (files kept as-is), sorted."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            for found in path.rglob("*.py"):
                if "__pycache__" not in found.parts:
                    files.add(found.resolve())
        elif path.suffix == ".py":
            files.add(path.resolve())
    return sorted(files)


def _load_module(path: Path, root: Path) -> ModuleSource | Finding:
    """Parse one file; a syntax error is itself a finding (rule E1)."""
    try:
        relpath = path.relative_to(root).as_posix()
    except ValueError:
        relpath = path.as_posix()
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            path=relpath,
            line=exc.lineno or 1,
            rule="E1",
            message=f"file does not parse: {exc.msg}",
            hint="fix the syntax error",
        )
    return ModuleSource(
        relpath=relpath, tree=tree, lines=tuple(text.splitlines())
    )


def _unused_suppressions(
    tables: Mapping[str, Mapping[int, frozenset[str]]],
    used: Mapping[tuple[str, int], set[str]],
) -> list[Finding]:
    """W1 findings for suppression comments that silence nothing.

    A ``disable=W1`` token opts a line out; ``disable=all`` is flagged
    only when it matched no finding at all.
    """
    findings: list[Finding] = []
    hint = "delete the stale suppression comment"
    for relpath in sorted(tables):
        for line, tokens in sorted(tables[relpath].items()):
            if "W1" in tokens:
                continue
            matched = used.get((relpath, line), set())
            if "all" in tokens:
                if not matched:
                    findings.append(
                        Finding(
                            path=relpath,
                            line=line,
                            rule="W1",
                            message=(
                                "suppression comment (disable=all) matches "
                                "no finding"
                            ),
                            hint=hint,
                        )
                    )
                continue
            unused = sorted(tokens - matched)
            if unused:
                findings.append(
                    Finding(
                        path=relpath,
                        line=line,
                        rule="W1",
                        message=(
                            f"suppression for {', '.join(unused)} matches "
                            "no finding"
                        ),
                        hint=hint,
                    )
                )
    return findings


def run_lint(
    paths: Sequence[Path],
    config: LintConfig | None = None,
    *,
    root: Path | None = None,
    rules: Sequence[type] | None = None,
    graph_rules: Sequence[type] | None = None,
    baseline: Counter[tuple[str, str, str]] | None = None,
) -> LintResult:
    """Lint every Python file under *paths*.

    *root* anchors the project-relative paths findings are reported
    under (default: discovered from cwd); *rules* / *graph_rules*
    restrict the per-module and interprocedural rule sets (passing
    ``rules`` alone runs no graph rules, and vice versa); *baseline*
    grandfathers matching findings.
    The W1 unused-suppression check runs only on a full default run,
    where every rule that could justify a suppression is active.
    """
    config = config if config is not None else default_config()
    root = root if root is not None else discover_project_root()
    full_run = rules is None and graph_rules is None
    active = [rule() for rule in (rules if rules is not None else ALL_RULES)]
    graph_active = [
        rule()
        for rule in (
            graph_rules
            if graph_rules is not None
            else (GRAPH_RULES if rules is None else ())
        )
    ]
    raw: list[Finding] = []
    findings: list[Finding] = []
    modules: list[ModuleSource] = []
    tables: dict[str, dict[int, frozenset[str]]] = {}
    files = iter_python_files(paths)
    for path in files:
        module = _load_module(path, root)
        if isinstance(module, Finding):
            findings.append(module)
            continue
        modules.append(module)
        tables[module.relpath] = suppressions_for(module.lines)
        for rule in active:
            raw.extend(rule.check(module, config))
    if graph_active and modules:
        graph = build_callgraph(modules)
        for rule in graph_active:
            raw.extend(rule.check_project(graph, config))
    suppressed = 0
    used: dict[tuple[str, int], set[str]] = {}
    for finding in raw:
        tokens = tables.get(finding.path, {}).get(finding.line)
        if tokens is not None and ("all" in tokens or finding.rule in tokens):
            suppressed += 1
            used.setdefault((finding.path, finding.line), set()).add(
                finding.rule
            )
        else:
            findings.append(finding)
    if full_run:
        findings.extend(_unused_suppressions(tables, used))
    findings.sort()
    new, grandfathered, stale = apply_baseline(
        findings, baseline if baseline is not None else Counter()
    )
    return LintResult(
        new=tuple(new),
        baselined=tuple(grandfathered),
        suppressed=suppressed,
        checked_files=len(files),
        stale_baseline=stale,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Project-invariant linter. Per-module rules: env boundary "
            "(R1), determinism (R2), options threading (R3), "
            "picklability (R4), structure (R5), exception hygiene (R6). "
            "Call-graph rules: async purity (R7), lock/await discipline "
            "(R8), numeric hygiene (R9), error-surface completeness "
            "(R10). W1 flags stale suppression comments. See "
            "docs/static-analysis.md."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: src/repro at the "
        "project root)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="additionally write a SARIF 2.1.0 log to PATH (keeps the "
        "chosen --format on stdout and the strict exit code)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run, e.g. R1,R7 (default: all)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=f"baseline file (default: {BASELINE_FILENAME} at the "
        "project root)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: every finding gates the exit code",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="regenerate the baseline file from the current findings "
        "(byte-identical for an unchanged tree) and exit 0",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report findings but always exit 0 (benchmarks/examples mode)",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="also list grandfathered findings in the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _selected_rules(
    selector: str | None,
) -> tuple[list[type] | None, list[type] | None]:
    """Split a ``--select`` string into (module rules, graph rules).

    ``None`` for both means the full default run.
    """
    if selector is None:
        return None, None
    wanted = {token.strip().upper() for token in selector.split(",") if token.strip()}
    known = {rule.RULE_ID for rule in (*ALL_RULES, *GRAPH_RULES)}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    return (
        [rule for rule in ALL_RULES if rule.RULE_ID in wanted],
        [rule for rule in GRAPH_RULES if rule.RULE_ID in wanted],
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for rule in (*ALL_RULES, *GRAPH_RULES):
            print(f"{rule.RULE_ID:4s} {rule.NAME:18s} {rule.DESCRIPTION}")
        print(
            "W1   unused-suppression a disable= comment that no longer "
            "silences any finding (full runs only)"
        )
        return 0
    root = discover_project_root()
    paths = (
        [Path(p) for p in args.paths] if args.paths else [root / "src" / "repro"]
    )
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    baseline_path = (
        Path(args.baseline) if args.baseline else root / BASELINE_FILENAME
    )
    try:
        rules, graph_rules = _selected_rules(args.select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        result = run_lint(paths, root=root, rules=rules, graph_rules=graph_rules)
        baseline_path.write_text(
            render_baseline(result.new), encoding="utf-8"
        )
        print(
            f"wrote {len(result.new)} finding(s) to {baseline_path}",
            file=sys.stderr,
        )
        return 0

    baseline = (
        Counter() if args.no_baseline else load_baseline(baseline_path)
    )
    result = run_lint(
        paths,
        root=root,
        rules=rules,
        graph_rules=graph_rules,
        baseline=baseline,
    )
    if args.sarif is not None:
        Path(args.sarif).write_text(render_sarif(result), encoding="utf-8")
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, verbose_baselined=args.show_baselined))
    if args.warn_only:
        return 0
    return 1 if result.new else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
