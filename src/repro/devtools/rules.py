"""The six project-invariant rules, as AST passes over one module each.

========  ==================  ====================================================
Rule id   Name                Invariant enforced
========  ==================  ====================================================
``R1``    env-boundary        ``os.environ``/``os.getenv`` only inside the
                              allowlisted env module (:mod:`repro._env`).
``R2``    determinism         No unseeded ``np.random.*`` / stdlib ``random.*``
                              calls — global-state RNG breaks bit-identical
                              reproduction.
``R3``    options-threading   Every public fit/grid/serving entry point accepts
                              ``options=`` and takes ``cache``/``trace``/
                              ``executor``/``n_workers`` *only* through it.
``R4``    picklability        Callables handed to an executor ``map``/``submit``
                              must be module-level (the process backend pickles
                              them).
``R5``    structure           Frozen dataclasses stay frozen (no
                              ``object.__setattr__`` escape hatch, no ``self.x =``
                              in methods) and ``__all__`` matches the module's
                              definitions.
``R6``    exception-hygiene   No bare ``except:``; no silently swallowed
                              exceptions in the fit paths.
========  ==================  ====================================================

Each rule is a stateless class with a ``check(module, config)`` method
returning :class:`~repro.devtools.findings.Finding` records. Rules are
configured through :class:`LintConfig`, whose :func:`default_config`
instance encodes this repository's invariants; tests point the same
rules at fixture trees with a custom config.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, Sequence

from repro.devtools.findings import Finding

__all__ = [
    "ALL_RULES",
    "DeterminismRule",
    "EntryPointSpec",
    "EnvBoundaryRule",
    "ExceptionHygieneRule",
    "LintConfig",
    "ModuleSource",
    "OptionsThreadingRule",
    "PicklabilityRule",
    "ProtocolSpec",
    "SharedStateSpec",
    "StructureRule",
    "default_config",
]


@dataclasses.dataclass(frozen=True)
class ModuleSource:
    """One parsed module handed to every rule.

    ``relpath`` is the project-relative POSIX path (the path findings
    and the baseline use); ``tree`` is the parsed AST; ``lines`` the
    physical source lines (for suppression comments).
    """

    relpath: str
    tree: ast.Module
    lines: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class EntryPointSpec:
    """Signature contract for one public entry point (rule R3).

    ``qualname`` is a module-level function name or
    ``Class.method``; ``required`` parameters must appear in the
    signature, ``forbidden`` parameters must not (the serving layer
    takes engine configuration *only* as ``options=``).
    """

    module: str
    qualname: str
    required: frozenset[str] = frozenset()
    forbidden: frozenset[str] = frozenset()


@dataclasses.dataclass(frozen=True)
class SharedStateSpec:
    """One piece of cross-task shared state and its mutation funnels (R8).

    ``attr`` is the attribute name (matched on any ``self.<attr>`` /
    ``obj.<attr>`` mutation); ``allowed`` lists the bare method names
    permitted to mutate it (``__init__`` is always allowed).
    """

    attr: str
    allowed: frozenset[str] = frozenset()


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """One wire-protocol surface checked by R10.

    ``ops_const`` names a module-level tuple of op strings in
    ``module``; every op must appear as a string constant inside the
    ``dispatcher`` method, and the ``handler`` method must catch one of
    ``catch_types`` and map it through one of ``mappers``.
    """

    module: str
    ops_const: str
    dispatcher: str
    handler: str
    catch_types: frozenset[str] = frozenset({"ReproError", "ServingError"})
    mappers: frozenset[str] = frozenset({"error_code", "_error_body"})


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Project-specific knobs consumed by the rules.

    Attributes
    ----------
    env_allowlist:
        Project-relative paths allowed to read ``os.environ`` (R1).
    entry_points:
        Signature contracts checked by R3.
    threading_prefixes:
        Path prefixes whose public functions must pair any
        ``cache``/``trace``/``executor`` parameter with ``options`` (R3
        heuristic).
    fit_path_prefixes:
        Path prefixes where a no-op ``except`` body counts as a
        swallowed exception (R6).
    executor_names:
        Receiver-name fragments that identify an executor/pool for R4
        (matched case-insensitively against the last attribute
        segment).
    async_prefixes:
        Path prefixes whose ``async def`` functions are R7 roots: no
        blocking sink may be reachable from them.
    blocking_sinks:
        Blocking-call registry for R7 — dotted names, bare-name
        suffixes, or ``pkg.mod.*`` prefixes (see
        :class:`repro.devtools.callgraph.CallGraph.blocking_path`).
    shared_state:
        Mutation-funnel contracts checked by R8.
    kernel_prefixes:
        Path prefixes of numeric kernel modules checked by R9.
    error_base:
        Bare class name rooting the R10 error hierarchy; every
        transitive subclass must define or inherit a ``code``.
    protocols:
        Wire-protocol surfaces checked by R10.
    """

    env_allowlist: frozenset[str] = frozenset()
    entry_points: tuple[EntryPointSpec, ...] = ()
    threading_prefixes: tuple[str, ...] = ()
    fit_path_prefixes: tuple[str, ...] = ()
    executor_names: tuple[str, ...] = ("executor", "pool")
    async_prefixes: tuple[str, ...] = ()
    blocking_sinks: tuple[str, ...] = ()
    shared_state: tuple[SharedStateSpec, ...] = ()
    kernel_prefixes: tuple[str, ...] = ()
    error_base: str = ""
    protocols: tuple[ProtocolSpec, ...] = ()


def default_config() -> LintConfig:
    """The invariants of this repository."""
    options = frozenset({"options"})
    plumbing = frozenset({"cache", "trace", "executor", "n_workers"})
    only_options = plumbing | {"engine"}

    def fit_entry(module: str, qualname: str) -> EntryPointSpec:
        return EntryPointSpec(
            f"src/repro/{module}", qualname, required=options, forbidden=plumbing
        )

    return LintConfig(
        env_allowlist=frozenset({"src/repro/_env.py"}),
        entry_points=(
            fit_entry("fitting/least_squares.py", "fit_least_squares"),
            fit_entry("fitting/least_squares.py", "fit_many"),
            fit_entry("fitting/fleet.py", "fit_fleet"),
            fit_entry("analysis/experiments.py", "table1"),
            fit_entry("analysis/experiments.py", "table2"),
            fit_entry("analysis/experiments.py", "table3"),
            fit_entry("analysis/experiments.py", "table4"),
            fit_entry("analysis/experiments.py", "truncation_grid"),
            fit_entry("analysis/fleet.py", "episode_scorecard"),
            fit_entry("analysis/pipeline.py", "run_full_reproduction"),
            fit_entry("validation/crossval.py", "evaluate_predictive"),
            EntryPointSpec(
                "src/repro/datasets/outage.py",
                "generate_fleet",
                required=frozenset({"seed", "chunk_size"}),
            ),
            EntryPointSpec(
                "src/repro/datasets/store.py",
                "EpisodeStoreWriter.__init__",
                required=frozenset({"seed", "config"}),
            ),
            EntryPointSpec(
                "src/repro/serving/online.py",
                "OnlineForecaster.__init__",
                required=frozenset({"options"}),
                forbidden=only_options,
            ),
            EntryPointSpec(
                "src/repro/serving/session.py",
                "ForecastSession.__init__",
                required=frozenset({"options"}),
                forbidden=only_options,
            ),
            EntryPointSpec(
                "src/repro/serving/replay.py",
                "replay_forecasts",
                required=frozenset({"options"}),
                forbidden=only_options,
            ),
            EntryPointSpec(
                "src/repro/serving/server.py",
                "ForecastServer.__init__",
                forbidden=only_options,
            ),
            EntryPointSpec(
                "src/repro/serving/remediation.py",
                "RemediationLoop.__init__",
                forbidden=only_options,
            ),
            EntryPointSpec(
                "src/repro/bench/runner.py",
                "run_matrix",
                required=frozenset({"options"}),
                forbidden=only_options,
            ),
        ),
        threading_prefixes=(
            "src/repro/fitting/",
            "src/repro/analysis/",
            "src/repro/serving/",
            "src/repro/bench/",
        ),
        fit_path_prefixes=(
            "src/repro/fitting/",
            "src/repro/serving/",
            "src/repro/parallel/",
            "src/repro/validation/",
            "src/repro/analysis/",
            "src/repro/observability/",
        ),
        async_prefixes=("src/repro/serving/",),
        blocking_sinks=(
            "scipy.optimize.*",
            "repro.fitting.least_squares.fit_least_squares",
            "repro.fitting.least_squares._fit_pairs",
            "repro.fitting.least_squares._solve_pairs",
            "repro.fitting.least_squares.fit_many",
            "repro.fitting.fleet.fit_fleet",
            "repro.serving.session.ForecastSession.execute_refits",
            "repro.serving.session.ForecastSession.refit_stale",
            "repro.serving.remediation.RemediationLoop.execute",
            "repro.serving.remediation.RemediationLoop.run_cycle",
            "repro.datasets.store.EpisodeStore.iter_chunks",
            "repro.datasets.store.EpisodeStore.episode",
            "repro.datasets.store.EpisodeStoreWriter.append",
            "time.sleep",
            "open",
            "subprocess.*",
        ),
        shared_state=(
            SharedStateSpec(
                "_first_fits",
                frozenset({"_ensure_first_fit", "_forget_first_fit"}),
            ),
            SharedStateSpec("_inflight_refits", frozenset({"_run_first_fit"})),
            SharedStateSpec(
                "_connections", frozenset({"_accept", "_forget_connection"})
            ),
            SharedStateSpec("_forecasters", frozenset({"register", "unregister"})),
        ),
        kernel_prefixes=(
            "src/repro/fitting/batched.py",
            "src/repro/models/",
            "src/repro/distributions/",
            "src/repro/metrics/",
        ),
        error_base="ServingError",
        protocols=(
            ProtocolSpec(
                module="src/repro/serving/server.py",
                ops_const="SERVER_OPS",
                dispatcher="ForecastServer._dispatch",
                handler="ForecastServer._handle_line",
            ),
        ),
    )


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name → full module path for every import in the module."""
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def _resolve_call_target(func: ast.AST, imports: dict[str, str]) -> str | None:
    """Fully-qualified dotted target of a call, through import aliases."""
    dotted = _dotted_name(func)
    if dotted is None:
        return None
    head, _, tail = dotted.partition(".")
    resolved = imports.get(head)
    if resolved is None:
        return dotted
    return f"{resolved}.{tail}" if tail else resolved


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return set(names)


def _iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, bool]]:
    """Every function in the module with a ``nested`` flag (defined
    inside another function rather than at module/class level)."""

    def walk(body: Sequence[ast.stmt], nested: bool) -> Iterator[
        tuple[ast.FunctionDef | ast.AsyncFunctionDef, bool]
    ]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, nested
                yield from walk(node.body, True)
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, nested)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                for field in ("body", "orelse", "finalbody", "handlers"):
                    children = getattr(node, field, None) or []
                    for child in children:
                        if isinstance(child, ast.ExceptHandler):
                            yield from walk(child.body, nested)
                        elif isinstance(child, ast.stmt):
                            yield from walk([child], nested)

    yield from walk(tree.body, False)


# ----------------------------------------------------------------------
# R1 — env boundary
# ----------------------------------------------------------------------
class EnvBoundaryRule:
    """``os.environ`` / ``os.getenv`` confined to the allowlisted module."""

    RULE_ID = "R1"
    NAME = "env-boundary"
    DESCRIPTION = (
        "environment reads are allowed only inside the registered env "
        "boundary module (repro._env); everything else goes through "
        "EngineOptions.resolve()"
    )

    _OS_ATTRS = frozenset({"environ", "environb", "getenv", "putenv", "unsetenv"})

    def check(self, module: ModuleSource, config: LintConfig) -> list[Finding]:
        if module.relpath in config.env_allowlist:
            return []
        imports = _import_map(module.tree)
        findings: list[Finding] = []
        hint = (
            "route the read through EngineOptions.resolve() / "
            "repro._env.read_env, or add this file to the R1 allowlist "
            "with a documented reason"
        )
        for node in ast.walk(module.tree):
            target: str | None = None
            if isinstance(node, ast.Attribute):
                dotted = _dotted_name(node)
                if dotted is not None:
                    head, _, tail = dotted.partition(".")
                    if imports.get(head, head) == "os" and tail.split(".")[0] in self._OS_ATTRS:
                        target = f"os.{tail.split('.')[0]}"
            elif isinstance(node, ast.Name) and imports.get(node.id, "") in {
                f"os.{attr}" for attr in self._OS_ATTRS
            }:
                target = imports[node.id]
            if target is not None:
                findings.append(
                    Finding(
                        path=module.relpath,
                        line=node.lineno,
                        rule=self.RULE_ID,
                        message=f"direct environment access via {target}",
                        hint=hint,
                    )
                )
        # One finding per line: an `os.environ.get(...)` chain visits both
        # the outer and inner Attribute nodes.
        unique: dict[tuple[int, str], Finding] = {
            (f.line, f.message): f for f in findings
        }
        return sorted(unique.values())


# ----------------------------------------------------------------------
# R2 — determinism
# ----------------------------------------------------------------------
class DeterminismRule:
    """No unseeded ``np.random.*`` / stdlib ``random.*`` usage."""

    RULE_ID = "R2"
    NAME = "determinism"
    DESCRIPTION = (
        "all randomness must flow from an explicit seed; global-state "
        "RNG calls make artifacts irreproducible"
    )

    #: numpy.random attributes that are fine to *call* (they construct
    #: seeded/explicit generators rather than touching global state).
    _NP_CONSTRUCTORS = frozenset(
        {
            "default_rng",
            "Generator",
            "RandomState",
            "SeedSequence",
            "BitGenerator",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "MT19937",
            "SFC64",
        }
    )
    #: Constructors that are unseeded when called with no arguments.
    _NEEDS_SEED = frozenset({"default_rng", "RandomState", "SeedSequence", "Random"})

    def check(self, module: ModuleSource, config: LintConfig) -> list[Finding]:
        imports = _import_map(module.tree)
        findings: list[Finding] = []
        hint = "thread an explicit seed / np.random.Generator through instead"
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                target = _resolve_call_target(node.func, imports)
                if target is None:
                    continue
                violation = self._call_violation(target, node)
                if violation is not None:
                    findings.append(
                        Finding(
                            path=module.relpath,
                            line=node.lineno,
                            rule=self.RULE_ID,
                            message=violation,
                            hint=hint,
                        )
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module in {"random", "numpy.random"}:
                    for alias in node.names:
                        if alias.name not in self._NP_CONSTRUCTORS:
                            findings.append(
                                Finding(
                                    path=module.relpath,
                                    line=node.lineno,
                                    rule=self.RULE_ID,
                                    message=(
                                        f"import of global-state RNG symbol "
                                        f"{node.module}.{alias.name}"
                                    ),
                                    hint=hint,
                                )
                            )
        return findings

    def _call_violation(self, target: str, call: ast.Call) -> str | None:
        parts = target.split(".")
        if parts[:2] == ["numpy", "random"] and len(parts) == 3:
            fn = parts[2]
            if fn not in self._NP_CONSTRUCTORS:
                return f"global-state RNG call numpy.random.{fn}()"
            if fn in self._NEEDS_SEED and not call.args and not call.keywords:
                return f"unseeded numpy.random.{fn}() call"
            return None
        if parts[0] == "random" and len(parts) == 2:
            fn = parts[1]
            if fn == "Random":
                if not call.args and not call.keywords:
                    return "unseeded random.Random() call"
                return None
            if fn == "SystemRandom":
                return None  # explicitly non-deterministic by contract
            return f"global-state RNG call random.{fn}()"
        return None


# ----------------------------------------------------------------------
# R3 — options threading
# ----------------------------------------------------------------------
class OptionsThreadingRule:
    """Entry points accept ``options=`` and thread the engine knobs."""

    RULE_ID = "R3"
    NAME = "options-threading"
    DESCRIPTION = (
        "public fit/grid/serving entry points must accept options= and "
        "take cache/trace/executor/n_workers only through it (serving "
        "entry points take engine only through it too)"
    )

    _ENGINE_KNOBS = frozenset({"engine", "cache", "trace", "executor"})

    def check(self, module: ModuleSource, config: LintConfig) -> list[Finding]:
        findings: list[Finding] = []
        specs = [s for s in config.entry_points if s.module == module.relpath]
        functions = self._qualified_functions(module.tree)
        for spec in specs:
            node = functions.get(spec.qualname)
            if node is None:
                findings.append(
                    Finding(
                        path=module.relpath,
                        line=1,
                        rule=self.RULE_ID,
                        message=(
                            f"expected entry point {spec.qualname} not found"
                        ),
                        hint="update the R3 entry-point registry if it moved",
                    )
                )
                continue
            params = _function_params(node)
            missing = sorted(spec.required - params)
            if missing:
                findings.append(
                    Finding(
                        path=module.relpath,
                        line=node.lineno,
                        rule=self.RULE_ID,
                        message=(
                            f"entry point {spec.qualname} is missing required "
                            f"parameter(s): {', '.join(missing)}"
                        ),
                        hint="thread the engine knobs (options=) through",
                    )
                )
            stray = sorted(spec.forbidden & params)
            if stray:
                findings.append(
                    Finding(
                        path=module.relpath,
                        line=node.lineno,
                        rule=self.RULE_ID,
                        message=(
                            f"entry point {spec.qualname} must take engine "
                            f"configuration only via options=, not: "
                            f"{', '.join(stray)}"
                        ),
                        hint="fold the knob into the EngineOptions bundle",
                    )
                )
        if any(module.relpath.startswith(p) for p in config.threading_prefixes):
            covered = {spec.qualname for spec in specs}
            for node in module.tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("_") or node.name in covered:
                    continue
                params = _function_params(node)
                if params & self._ENGINE_KNOBS and "options" not in params:
                    findings.append(
                        Finding(
                            path=module.relpath,
                            line=node.lineno,
                            rule=self.RULE_ID,
                            message=(
                                f"public function {node.name} takes engine "
                                "knobs but no options= parameter"
                            ),
                            hint="accept options= and merge via override()",
                        )
                    )
        return findings

    @staticmethod
    def _qualified_functions(
        tree: ast.Module,
    ) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
        table: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                table[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        table[f"{node.name}.{child.name}"] = child
        return table


# ----------------------------------------------------------------------
# R4 — picklability
# ----------------------------------------------------------------------
class PicklabilityRule:
    """Executor-submitted callables must be module-level functions."""

    RULE_ID = "R4"
    NAME = "picklability"
    DESCRIPTION = (
        "work units handed to an executor map()/submit() are pickled by "
        "the process backend; lambdas and nested functions silently "
        "degrade to serial execution"
    )

    def check(self, module: ModuleSource, config: LintConfig) -> list[Finding]:
        nested_names = {
            node.name for node, nested in _iter_functions(module.tree) if nested
        }
        findings: list[Finding] = []
        hint = "hoist the work function to module level (see parallel/executor.py)"
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in {
                "map",
                "submit",
            }:
                continue
            if not self._is_executor_receiver(func.value, config):
                continue
            if not node.args:
                continue
            work = node.args[0]
            problem: str | None = None
            if isinstance(work, ast.Lambda):
                problem = "a lambda"
            elif isinstance(work, ast.Name) and work.id in nested_names:
                problem = f"nested function {work.id}"
            if problem is not None:
                findings.append(
                    Finding(
                        path=module.relpath,
                        line=node.lineno,
                        rule=self.RULE_ID,
                        message=(
                            f"{problem} passed to executor .{func.attr}() "
                            "is not picklable"
                        ),
                        hint=hint,
                    )
                )
        return findings

    @staticmethod
    def _is_executor_receiver(receiver: ast.AST, config: LintConfig) -> bool:
        if isinstance(receiver, ast.Call):
            dotted = _dotted_name(receiver.func)
            return dotted is not None and dotted.split(".")[-1] == "get_executor"
        dotted = _dotted_name(receiver)
        if dotted is None:
            return False
        last = dotted.split(".")[-1].lower()
        return any(fragment in last for fragment in config.executor_names)


# ----------------------------------------------------------------------
# R5 — structure (frozen dataclasses + __all__ consistency)
# ----------------------------------------------------------------------
class StructureRule:
    """Frozen dataclasses stay frozen; ``__all__`` matches definitions."""

    RULE_ID = "R5"
    NAME = "structure"
    DESCRIPTION = (
        "no object.__setattr__ escape hatches or self-mutation inside "
        "frozen dataclasses; every __all__ entry exists and every "
        "public class/function is exported"
    )

    def check(self, module: ModuleSource, config: LintConfig) -> list[Finding]:
        findings: list[Finding] = []
        findings.extend(self._check_frozen(module))
        findings.extend(self._check_all(module))
        return findings

    def _check_frozen(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted in {"object.__setattr__", "super().__setattr__"}:
                    findings.append(
                        Finding(
                            path=module.relpath,
                            line=node.lineno,
                            rule=self.RULE_ID,
                            message=(
                                "object.__setattr__ escape hatch defeats the "
                                "frozen-dataclass contract"
                            ),
                            hint=(
                                "construct a new instance (dataclasses.replace) "
                                "instead of mutating"
                            ),
                        )
                    )
            elif isinstance(node, ast.ClassDef) and self._is_frozen_dataclass(node):
                findings.extend(self._check_frozen_body(module, node))
        return findings

    @staticmethod
    def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                dotted = _dotted_name(decorator.func)
                if dotted in {"dataclass", "dataclasses.dataclass"}:
                    for keyword in decorator.keywords:
                        if (
                            keyword.arg == "frozen"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        ):
                            return True
        return False

    def _check_frozen_body(
        self, module: ModuleSource, cls: ast.ClassDef
    ) -> list[Finding]:
        findings: list[Finding] = []
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        findings.append(
                            Finding(
                                path=module.relpath,
                                line=node.lineno,
                                rule=self.RULE_ID,
                                message=(
                                    f"assignment to self.{target.attr} inside "
                                    f"frozen dataclass {cls.name} raises at "
                                    "runtime"
                                ),
                                hint="frozen dataclasses are immutable",
                            )
                        )
        return findings

    def _check_all(self, module: ModuleSource) -> list[Finding]:
        exported = self._exported_names(module.tree)
        if exported is None:
            return []
        names, all_line = exported
        defined = self._defined_names(module.tree)
        findings: list[Finding] = []
        for name in sorted(set(names) - defined):
            findings.append(
                Finding(
                    path=module.relpath,
                    line=all_line,
                    rule=self.RULE_ID,
                    message=f"__all__ exports undefined name {name}",
                    hint="remove it or define/import it",
                )
            )
        for node in module.tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in names
            ):
                findings.append(
                    Finding(
                        path=module.relpath,
                        line=node.lineno,
                        rule=self.RULE_ID,
                        message=(
                            f"public definition {node.name} is missing from "
                            "__all__"
                        ),
                        hint="export it or rename it with a leading underscore",
                    )
                )
        return findings

    @staticmethod
    def _exported_names(tree: ast.Module) -> tuple[list[str], int] | None:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        if isinstance(node.value, (ast.List, ast.Tuple)):
                            names = [
                                element.value
                                for element in node.value.elts
                                if isinstance(element, ast.Constant)
                                and isinstance(element.value, str)
                            ]
                            return names, node.lineno
        return None

    @staticmethod
    def _defined_names(tree: ast.Module) -> set[str]:
        defined: set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    defined.add(node.target.id)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    defined.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    defined.add(alias.asname or alias.name)
            elif isinstance(node, (ast.If, ast.Try)):
                # Names defined under TYPE_CHECKING / version guards.
                for child in ast.walk(node):
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        defined.add(child.name)
                    elif isinstance(child, ast.ImportFrom):
                        for alias in child.names:
                            defined.add(alias.asname or alias.name)
        return defined


# ----------------------------------------------------------------------
# R6 — exception hygiene
# ----------------------------------------------------------------------
class ExceptionHygieneRule:
    """No bare ``except:``; no silent swallowing in fit paths."""

    RULE_ID = "R6"
    NAME = "exception-hygiene"
    DESCRIPTION = (
        "bare except: hides SystemExit/KeyboardInterrupt; a no-op "
        "handler in a fit path hides real convergence failures"
    )

    def check(self, module: ModuleSource, config: LintConfig) -> list[Finding]:
        in_fit_path = any(
            module.relpath.startswith(p) for p in config.fit_path_prefixes
        )
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    Finding(
                        path=module.relpath,
                        line=node.lineno,
                        rule=self.RULE_ID,
                        message="bare except: catches SystemExit and "
                        "KeyboardInterrupt",
                        hint="catch Exception (or something narrower)",
                    )
                )
            elif in_fit_path and self._is_noop_body(node.body):
                caught = _dotted_name(node.type) or "exception"
                findings.append(
                    Finding(
                        path=module.relpath,
                        line=node.lineno,
                        rule=self.RULE_ID,
                        message=(
                            f"swallowed {caught} in a fit path (handler body "
                            "is a no-op)"
                        ),
                        hint="log the failure or record it in the result",
                    )
                )
        return findings

    @staticmethod
    def _is_noop_body(body: Sequence[ast.stmt]) -> bool:
        for statement in body:
            if isinstance(statement, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Constant
            ):
                continue  # docstring / ellipsis
            return False
        return True


#: Every rule, in id order; the orchestrator instantiates these.
ALL_RULES: tuple[type, ...] = (
    EnvBoundaryRule,
    DeterminismRule,
    OptionsThreadingRule,
    PicklabilityRule,
    StructureRule,
    ExceptionHygieneRule,
)
