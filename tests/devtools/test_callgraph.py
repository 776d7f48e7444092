"""The interprocedural substrate: symbol table, call edges, guard
dataflow and sink matching."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.devtools.callgraph import build_callgraph, module_name_for
from repro.devtools.lint import discover_project_root
from repro.devtools.rules import LintConfig, ModuleSource

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = discover_project_root(Path(__file__))


def load_fixture(name: str) -> ModuleSource:
    path = FIXTURES / name
    text = path.read_text(encoding="utf-8")
    return ModuleSource(
        relpath=path.relative_to(ROOT).as_posix(),
        tree=ast.parse(text),
        lines=tuple(text.splitlines()),
    )


def fixture_graph(*names: str, guard_params: tuple[str, ...] = ("allow_refit",)):
    config = LintConfig(guard_params=guard_params)
    return build_callgraph([load_fixture(name) for name in names], config)


def qual(name: str, symbol: str) -> str:
    return f"{module_name_for((FIXTURES / name).relative_to(ROOT).as_posix())}.{symbol}"


class TestModuleName:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/serving/server.py") == (
            "repro.serving.server"
        )

    def test_package_init_maps_to_package(self):
        assert module_name_for("src/repro/devtools/__init__.py") == (
            "repro.devtools"
        )


class TestSymbolTable:
    def test_functions_and_async_flags(self):
        graph = fixture_graph("r7_bad.py")
        handler = graph.functions[qual("r7_bad.py", "handle_report")]
        solver = graph.functions[qual("r7_bad.py", "solve")]
        assert handler.is_async and not solver.is_async
        assert handler.shortname == "handle_report"

    def test_methods_and_classes(self):
        graph = fixture_graph("r8_bad.py")
        cls = graph.classes[qual("r8_bad.py", "Registry")]
        assert set(cls.methods) == {"__init__", "_admit", "run", "evict"}
        run = graph.functions[qual("r8_bad.py", "Registry.run")]
        assert run.shortname == "Registry.run"

    def test_subclasses_and_class_consts(self):
        graph = fixture_graph("r10_bad.py")
        (lost,) = graph.subclasses_of("ServingError")
        assert lost.name == "LostError"
        base = graph.classes[qual("r10_bad.py", "ServingError")]
        assert "code" in base.class_consts and "code" not in lost.class_consts

    def test_lookup_method_walks_bases(self):
        graph = fixture_graph("r10_bad.py")
        found = graph.lookup_method(qual("r10_bad.py", "LostError"), "error_code")
        assert found == qual("r10_bad.py", "ServingError.error_code")


class TestCallEdges:
    def test_local_call_resolved_exactly(self):
        graph = fixture_graph("r7_bad.py")
        sites = graph.calls[qual("r7_bad.py", "handle_report")]
        assert any(
            qual("r7_bad.py", "refresh") in site.callees and site.exact
            for site in sites
        )

    def test_guarded_call_annotated(self):
        graph = fixture_graph("r7_bad.py")
        sites = graph.calls[qual("r7_bad.py", "refresh")]
        (solve_site,) = [
            s for s in sites if qual("r7_bad.py", "solve") in s.callees
        ]
        assert solve_site.requires == frozenset({"allow_refit"})

    def test_callable_argument_is_not_an_edge(self):
        # run_in_executor(None, solve, data) funnels work off the loop;
        # passing the callable must not register a call to it.
        graph = fixture_graph("r7_good.py")
        sites = graph.calls[qual("r7_good.py", "handle_report")]
        assert all(
            qual("r7_good.py", "solve") not in site.callees for site in sites
        )


class TestBlockingPath:
    def test_path_found_and_rendered(self):
        graph = fixture_graph("r7_bad.py")
        path = graph.blocking_path(
            qual("r7_bad.py", "handle_report"), ["time.sleep"]
        )
        assert path is not None
        assert path.render() == "handle_report -> refresh -> solve -> time.sleep"

    def test_falsy_guard_constant_prunes(self):
        graph = fixture_graph("r7_good.py")
        path = graph.blocking_path(qual("r7_good.py", "peek"), ["time.sleep"])
        assert path is None

    def test_unregistered_guard_does_not_prune(self):
        graph = fixture_graph("r7_good.py", guard_params=())
        path = graph.blocking_path(qual("r7_good.py", "peek"), ["time.sleep"])
        assert path is not None

    def test_suffix_and_prefix_sink_matching(self):
        graph = fixture_graph("r7_bad.py")
        root = qual("r7_bad.py", "handle_report")
        assert graph.blocking_path(root, ["sleep"]) is not None
        assert graph.blocking_path(root, ["time.*"]) is not None
        assert graph.blocking_path(root, ["scipy.optimize.*"]) is None
