"""Interprocedural rules R7–R10: each has a fixture that must trigger
it and one that must not, plus funnel behavior checks,
the strict-clean contract on ``src/repro``, and the SARIF renderer."""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path

from repro.devtools.graph_rules import (
    GRAPH_RULES,
    AsyncPurityRule,
    ErrorSurfaceRule,
    LockDisciplineRule,
    NumericHygieneRule,
)
from repro.devtools.lint import discover_project_root, run_lint
from repro.devtools.rules import (
    LintConfig,
    ProtocolSpec,
    SharedStateSpec,
    default_config,
)
from repro.devtools.sarif import SARIF_VERSION, render_sarif

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = discover_project_root(Path(__file__))


def relpath(name: str) -> str:
    return (FIXTURES / name).relative_to(ROOT).as_posix()


def graph_config(**overrides: object) -> LintConfig:
    base = LintConfig(
        async_prefixes=(relpath("") + "/",),
        blocking_sinks=("time.sleep",),
        kernel_prefixes=(relpath("") + "/",),
    )
    return dataclasses.replace(base, **overrides)  # type: ignore[arg-type]


def lint_graph(name: str, rule: type, config: LintConfig | None = None):
    result = run_lint(
        [FIXTURES / name],
        config if config is not None else graph_config(),
        root=ROOT,
        rules=[],
        graph_rules=[rule],
    )
    return list(result.new)


class TestAsyncPurity:
    def test_bad_fixture_triggers(self):
        findings = lint_graph("r7_bad.py", AsyncPurityRule)
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "R7"
        assert "handle_report" in finding.message
        # The message renders the full call chain down to the sink.
        assert "refresh" in finding.message
        assert "time.sleep" in finding.message

    def test_good_fixture_clean(self):
        assert lint_graph("r7_good.py", AsyncPurityRule) == []

    def test_executor_funnel_is_not_an_edge(self):
        # r7_good's handler passes ``solve`` to run_in_executor; only a
        # direct *call* would create a path to the sink.
        findings = lint_graph("r7_good.py", AsyncPurityRule)
        assert all("handle_report" not in f.message for f in findings)

    def test_unregistered_sink_is_ignored(self):
        config = graph_config(blocking_sinks=("scipy.optimize.*",))
        assert lint_graph("r7_bad.py", AsyncPurityRule, config) == []

    def test_prefix_scoping(self):
        config = graph_config(async_prefixes=("src/elsewhere/",))
        assert lint_graph("r7_bad.py", AsyncPurityRule, config) == []


class TestLockDiscipline:
    CONFIG_KW = {
        "shared_state": (SharedStateSpec("_streams", frozenset({"_admit"})),)
    }

    def test_bad_fixture_triggers(self):
        findings = lint_graph(
            "r8_bad.py", LockDisciplineRule, graph_config(**self.CONFIG_KW)
        )
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "await inside sync-lock block" in messages
        assert "self._lock" in messages
        assert "_streams mutated in Registry.evict" in messages

    def test_good_fixture_clean(self):
        findings = lint_graph(
            "r8_good.py", LockDisciplineRule, graph_config(**self.CONFIG_KW)
        )
        assert findings == []

    def test_init_is_always_a_funnel(self):
        # Both fixtures assign self._streams in __init__; neither run
        # reports it (only evict's out-of-funnel pop is flagged).
        findings = lint_graph(
            "r8_bad.py", LockDisciplineRule, graph_config(**self.CONFIG_KW)
        )
        assert all("__init__" not in f.message for f in findings)


class TestNumericHygiene:
    def test_bad_fixture_triggers(self):
        findings = lint_graph("r9_bad.py", NumericHygieneRule)
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "unguarded division by total" in messages
        assert "unguarded np.log" in messages
        assert "unguarded np.sqrt" in messages

    def test_good_fixture_clean(self):
        assert lint_graph("r9_good.py", NumericHygieneRule) == []

    def test_prefix_scoping(self):
        config = graph_config(kernel_prefixes=("src/elsewhere/",))
        assert lint_graph("r9_bad.py", NumericHygieneRule, config) == []

    def test_real_kernels_hold_the_invariant(self):
        result = run_lint(
            [ROOT / "src" / "repro"],
            default_config(),
            root=ROOT,
            rules=[],
            graph_rules=[NumericHygieneRule],
        )
        assert result.new == ()


class TestErrorSurface:
    def config(self, name: str) -> LintConfig:
        return graph_config(
            error_base="ServingError",
            protocols=(
                ProtocolSpec(
                    module=relpath(name),
                    ops_const="OPS",
                    dispatcher="Server._dispatch",
                    handler="Server._handle",
                ),
            ),
        )

    def test_bad_fixture_triggers(self):
        findings = lint_graph(
            "r10_bad.py", ErrorSurfaceRule, self.config("r10_bad.py")
        )
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "LostError defines no wire code" in messages
        assert "protocol op 'report' has no dispatch arm" in messages
        assert "does not catch-and-map" in messages

    def test_good_fixture_clean(self):
        findings = lint_graph(
            "r10_good.py", ErrorSurfaceRule, self.config("r10_good.py")
        )
        assert findings == []

    def test_real_serving_surface_is_complete(self):
        result = run_lint(
            [ROOT / "src" / "repro"],
            default_config(),
            root=ROOT,
            rules=[],
            graph_rules=[ErrorSurfaceRule],
        )
        assert result.new == ()


class TestFullProject:
    def test_src_tree_is_strict_clean(self):
        # The PR-gating contract: a full default run (R1-R10 plus W1)
        # over src/repro reports nothing new.
        result = run_lint([ROOT / "src"], default_config(), root=ROOT)
        assert result.new == ()
        assert result.stale_baseline == 0


class TestSarif:
    def render(self, name: str = "r7_bad.py"):
        result = run_lint(
            [FIXTURES / name],
            graph_config(),
            root=ROOT,
            rules=[],
            graph_rules=[AsyncPurityRule],
        )
        return result, json.loads(render_sarif(result))

    def test_log_shape(self):
        _, log = self.render()
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"

    def test_all_rules_have_descriptors(self):
        _, log = self.render()
        ids = {rule["id"] for rule in log["runs"][0]["tool"]["driver"]["rules"]}
        assert {"R7", "R8", "R9", "R10"} <= ids
        assert {rule.RULE_ID for rule in GRAPH_RULES} <= ids

    def test_results_carry_location_and_level(self):
        result, log = self.render()
        (entry,) = log["runs"][0]["results"]
        assert entry["ruleId"] == "R7"
        assert entry["level"] == "error"
        location = entry["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == relpath("r7_bad.py")
        assert location["region"]["startLine"] == result.new[0].line

    def test_baselined_findings_marked_unchanged(self):
        first = run_lint(
            [FIXTURES / "r7_bad.py"],
            graph_config(),
            root=ROOT,
            rules=[],
            graph_rules=[AsyncPurityRule],
        )
        baseline = Counter(f.baseline_key for f in first.new)
        grandfathered = run_lint(
            [FIXTURES / "r7_bad.py"],
            graph_config(),
            root=ROOT,
            rules=[],
            graph_rules=[AsyncPurityRule],
            baseline=baseline,
        )
        assert grandfathered.new == ()
        log = json.loads(render_sarif(grandfathered))
        (entry,) = log["runs"][0]["results"]
        assert entry["baselineState"] == "unchanged"
        assert entry["level"] == "note"
