"""The top-level ``repro`` namespace stays in sync with ``__all__``."""

from __future__ import annotations

import pathlib
import subprocess
import sys
import types

import repro


def test_all_names_are_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ exports missing name {name!r}"


def test_all_is_sorted():
    assert list(repro.__all__) == sorted(repro.__all__)


def test_all_has_no_duplicates():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_no_public_surface_drift():
    """Every public (non-module) attribute is deliberately exported.

    A new top-level import that is not added to ``__all__`` — or a
    removed export left behind in ``__all__`` — fails here, keeping the
    documented surface and the real one identical.
    """
    public = {
        name
        for name, obj in vars(repro).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    exported = set(repro.__all__) - {"__version__"}
    assert public == exported, (
        f"missing from __all__: {sorted(public - exported)}; "
        f"stale in __all__: {sorted(exported - public)}"
    )


def test_version_matches_package_metadata():
    assert repro.__version__ == "2.0.0"


def test_entry_modules_do_not_import_scipy_stats():
    """The package, the CLI, the table builder and the server import
    without scipy.stats, which costs every process ~0.5 s to load."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import repro, repro.cli, repro.analysis.experiments, repro.serving.server\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy.stats'))\n"
        "assert not loaded, loaded\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_serving_surface_is_pinned():
    """``repro.serving.__all__`` is the serving API contract.

    The server protocol maps the typed errors to wire codes, so a
    rename or removal here is a protocol break, not a refactor.
    """
    import repro.serving

    assert list(repro.serving.__all__) == sorted(repro.serving.__all__)
    assert set(repro.serving.__all__) == {
        "AdmissionError",
        "Forecast",
        "ForecastReport",
        "ForecastServer",
        "ForecastSession",
        "OnlineForecaster",
        "ProtocolError",
        "RefitPolicy",
        "RefitTimeout",
        "RemediationLoop",
        "ServerConfig",
        "StreamNotFound",
        "error_code",
        "replay_forecasts",
    }
    for name in repro.serving.__all__:
        assert hasattr(repro.serving, name), f"serving exports missing {name!r}"


def test_devtools_surface_is_pinned():
    """``repro.devtools.__all__`` is the analysis API contract.

    CI, editor integrations, and the tests drive the linter through
    these names (``run_lint``, the call graph, the SARIF/baseline
    renderers), so the surface changes deliberately or not at all.
    """
    import repro.devtools

    assert list(repro.devtools.__all__) == sorted(repro.devtools.__all__)
    assert set(repro.devtools.__all__) == {
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
    }
    for name in repro.devtools.__all__:
        assert hasattr(repro.devtools, name), f"devtools exports missing {name!r}"
