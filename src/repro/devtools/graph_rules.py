"""The four interprocedural rules over the project call graph.

========  ==================  ====================================================
Rule id   Name                Invariant enforced
========  ==================  ====================================================
``R7``    async-purity        No registered blocking sink (scipy solves, fit
                              entry points, store I/O, ``time.sleep``, ``open``,
                              ``subprocess``) is reachable from an
                              ``async def`` in the serving layer except through
                              the ``run_in_executor`` / worker-pool funnel.
``R8``    lock-discipline     No ``await`` while a synchronous lock is held; no
                              mutation of registered shared state outside its
                              designated funnel methods.
``R9``    numeric-hygiene     No unguarded ``/``, ``np.log``, ``np.sqrt``,
                              ``np.power`` in registered kernel modules —
                              wrap in ``np.errstate``, clip/guard the operand,
                              or suppress with a stated reason.
``R10``   error-surface       Every subclass of the registered error base maps
                              to a wire code, every protocol op has a dispatch
                              arm, and the protocol handler catches-and-maps
                              the error hierarchy.
========  ==================  ====================================================

Unlike the per-module rules in :mod:`repro.devtools.rules`, these run
once per lint invocation via ``check_project(graph, config)`` over the
:class:`~repro.devtools.callgraph.CallGraph` of every linted module.
Findings flow through the same suppression/baseline machinery.
"""

from __future__ import annotations

import ast
from typing import Sequence

from repro.devtools.callgraph import CallGraph, FunctionInfo
from repro.devtools.findings import Finding
from repro.devtools.rules import LintConfig, ModuleSource, ProtocolSpec, _dotted_name

__all__ = [
    "AsyncPurityRule",
    "ErrorSurfaceRule",
    "GRAPH_RULES",
    "LockDisciplineRule",
    "NumericHygieneRule",
]


# ----------------------------------------------------------------------
# R7 — async purity
# ----------------------------------------------------------------------
class AsyncPurityRule:
    """Blocking sinks stay off the event loop."""

    RULE_ID = "R7"
    NAME = "async-purity"
    DESCRIPTION = (
        "no registered blocking call may be reachable from an async "
        "def in the serving layer except through run_in_executor; "
        "the event loop never solves"
    )

    def check_project(
        self, graph: CallGraph, config: LintConfig
    ) -> list[Finding]:
        if not config.blocking_sinks:
            return []
        findings: list[Finding] = []
        for fn in graph.functions.values():
            if not fn.is_async:
                continue
            if not any(fn.relpath.startswith(p) for p in config.async_prefixes):
                continue
            path = graph.blocking_path(fn.qualname, config.blocking_sinks)
            if path is None:
                continue
            findings.append(
                Finding(
                    path=fn.relpath,
                    line=path.lineno,
                    rule=self.RULE_ID,
                    message=(
                        f"blocking sink reachable from async "
                        f"{fn.shortname}: {path.render()}"
                    ),
                    hint="move the blocking call behind loop.run_in_executor",
                )
            )
        return sorted(findings)


# ----------------------------------------------------------------------
# R8 — lock/await discipline and shared-state funnels
# ----------------------------------------------------------------------
class LockDisciplineRule:
    """No await under a sync lock; shared state mutates via funnels."""

    RULE_ID = "R8"
    NAME = "lock-discipline"
    DESCRIPTION = (
        "an await while holding a synchronous lock stalls every other "
        "coroutine; registered shared state may only be mutated inside "
        "its designated funnel methods"
    )

    _MUTATOR_METHODS = frozenset(
        {"append", "add", "clear", "extend", "insert", "pop", "popitem",
         "remove", "setdefault", "update", "discard"}
    )

    def check_project(
        self, graph: CallGraph, config: LintConfig
    ) -> list[Finding]:
        findings: list[Finding] = []
        for fn in graph.functions.values():
            if fn.is_async:
                findings.extend(self._check_lock_await(fn))
            findings.extend(self._check_shared_state(fn, config))
        return sorted(findings)

    def _check_lock_await(self, fn: FunctionInfo) -> list[Finding]:
        findings: list[Finding] = []

        def lock_name(expr: ast.expr) -> str | None:
            """The held lock's dotted name, when *expr* looks like one."""
            target = expr.func if isinstance(expr, ast.Call) else expr
            name = _dotted_name(target)
            if name is not None and "lock" in name.split(".")[-1].lower():
                return name
            return None

        def walk(node: ast.AST, held: str | None) -> None:
            if isinstance(node, ast.With):
                lock = held
                for item in node.items:
                    lock = lock_name(item.context_expr) or lock
                for child in node.body:
                    walk(child, lock)
                return
            if isinstance(node, ast.Await) and held is not None:
                findings.append(
                    Finding(
                        path=fn.relpath,
                        line=node.lineno,
                        rule=self.RULE_ID,
                        message=(
                            f"await inside sync-lock block ({held}) in "
                            f"{fn.shortname}"
                        ),
                        hint=(
                            "use asyncio.Lock (async with) or release the "
                            "lock before awaiting"
                        ),
                    )
                )
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node is not fn.node
            ):
                # A nested def does not execute while the lock is held.
                return
            for child in ast.iter_child_nodes(node):
                walk(child, held)

        walk(fn.node, None)
        return findings

    def _check_shared_state(
        self, fn: FunctionInfo, config: LintConfig
    ) -> list[Finding]:
        specs = {spec.attr: spec for spec in config.shared_state}
        if not specs or fn.name == "__init__":
            return []
        findings: list[Finding] = []
        for node in ast.walk(fn.node):
            attr: str | None = None
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    attr = attr or self._state_attr(target, specs)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = attr or self._state_attr(target, specs)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in self._MUTATOR_METHODS:
                    base = node.func.value
                    if isinstance(base, ast.Attribute) and base.attr in specs:
                        attr = base.attr
            if attr is None:
                continue
            spec = specs[attr]
            if fn.name in spec.allowed:
                continue
            funnels = ", ".join(sorted(spec.allowed)) or "__init__"
            findings.append(
                Finding(
                    path=fn.relpath,
                    line=node.lineno,
                    rule=self.RULE_ID,
                    message=(
                        f"shared state {attr} mutated in {fn.shortname} "
                        f"outside its funnel(s) {funnels}"
                    ),
                    hint="route the mutation through the funnel method",
                )
            )
        return findings

    @staticmethod
    def _state_attr(target: ast.expr, specs: dict[str, object]) -> str | None:
        # self._attr = …  /  self._attr[k] = …  /  del self._attr[k]
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr in specs:
            return node.attr
        return None


# ----------------------------------------------------------------------
# R9 — numeric hygiene in kernel modules
# ----------------------------------------------------------------------
class NumericHygieneRule:
    """Division/log/sqrt/power in kernels must be guarded."""

    RULE_ID = "R9"
    NAME = "numeric-hygiene"
    DESCRIPTION = (
        "unguarded /, np.log, np.sqrt, np.power in kernel modules emit "
        "silent NaN/Inf that corrupt downstream tables; wrap in "
        "np.errstate, clip/guard the operand, or suppress with a reason"
    )

    _RISKY_FUNCS = frozenset({"log", "log2", "log10", "sqrt", "power"})
    #: Call heads whose result is a safe operand (clipped/positive).
    _SAFE_FUNCS = frozenset(
        {"clip", "maximum", "max", "exp", "abs", "absolute", "hypot", "len",
         "where"}
    )
    #: Nonzero-preserving wrappers, safe iff their first argument is
    #: (``sqrt``/``square`` are risky targets but transparent wrappers).
    _TRANSPARENT_CALLS = frozenset(
        {"float", "asarray", "array", "sqrt", "square"}
    )
    #: Nonzero-preserving methods, safe iff their *receiver* is.
    _TRANSPARENT_METHODS = frozenset(
        {"astype", "copy", "reshape", "ravel", "sum"}
    )
    #: Attribute tails that are positive by definition (``np.finfo``
    #: fields and the math-module constants).
    _POSITIVE_ATTRS = frozenset({"eps", "tiny", "smallest_normal", "pi", "e"})
    #: Constructor validators whose result is guaranteed positive.
    _VALIDATORS = frozenset({"_require_positive", "require_positive"})

    def check_project(
        self, graph: CallGraph, config: LintConfig
    ) -> list[Finding]:
        findings: list[Finding] = []
        for module in graph.modules:
            if not any(
                module.relpath.startswith(p) for p in config.kernel_prefixes
            ):
                continue
            findings.extend(self._check_module(module))
        return sorted(findings)

    def _check_module(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        base = self._module_constants(module.tree)

        def scan(node: ast.AST, guarded: bool, ctx: frozenset[str]) -> None:
            if isinstance(node, ast.ClassDef):
                inner = ctx | self._validated_attrs(node)
                for child in node.body:
                    scan(child, guarded, inner)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = ctx | self._guarded_texts(node)
                inner |= self._safe_assignments(node, inner)
                for child in node.body:
                    scan(child, guarded, inner)
                return
            if isinstance(node, ast.With):
                held = guarded or any(
                    self._is_errstate(item.context_expr) for item in node.items
                )
                for item in node.items:
                    scan(item.context_expr, guarded, ctx)
                for child in node.body:
                    scan(child, held, ctx)
                return
            if not guarded:
                problem = self._violation(node, ctx)
                if problem is not None:
                    findings.append(
                        Finding(
                            path=module.relpath,
                            line=node.lineno,
                            rule=self.RULE_ID,
                            message=problem,
                            hint=(
                                "wrap the kernel block in np.errstate(...) "
                                "with an explicit penalty/clip guard, or "
                                "suppress with a stated reason"
                            ),
                        )
                    )
            for child in ast.iter_child_nodes(node):
                scan(child, guarded, ctx)

        scan(module.tree, False, base)
        unique: dict[tuple[int, str], Finding] = {
            (f.line, f.message): f for f in findings
        }
        return list(unique.values())

    def _module_constants(self, tree: ast.Module) -> frozenset[str]:
        """Module-level names bound to a safe (nonzero) expression.

        Iterated to a fixpoint so ``_SQRT2 = math.sqrt(2.0)`` and
        constants derived from earlier constants both register.
        """
        names: set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in tree.body:
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if target.id in names:
                        continue
                    if self._safe_expr(node.value, frozenset(names)):
                        names.add(target.id)
                        changed = True
        return frozenset(names)

    def _validated_attrs(self, cls: ast.ClassDef) -> frozenset[str]:
        """``self.x`` texts the constructor validates as positive.

        ``self.theta = self._require_positive("theta", theta)`` makes
        every later ``/ self.theta`` in the class safe by construction.
        """
        texts: set[str] = set()
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name not in {"__init__", "__post_init__"}:
                continue
            for node in ast.walk(item):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                dotted = _dotted_name(node.value.func) or ""
                if dotted.split(".")[-1] not in self._VALIDATORS:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        texts.add(f"self.{target.attr}")
        return frozenset(texts)

    @staticmethod
    def _guarded_texts(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> frozenset[str]:
        """Expression texts cleared by an explicit raise/return guard.

        ``if denom == 0.0: raise MetricError(...)`` (or an early
        ``return``) is the idiomatic hand-written zero guard; the
        compared expressions are safe in the rest of the function.
        """
        texts: set[str] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.If):
                continue
            if not any(
                isinstance(stmt, (ast.Raise, ast.Return, ast.Continue))
                for stmt in node.body
            ):
                continue
            for cmp in ast.walk(node.test):
                if not isinstance(cmp, ast.Compare):
                    continue
                for side in (cmp.left, *cmp.comparators):
                    try:
                        texts.add(ast.unparse(side))
                    except Exception:  # pragma: no cover - unparse total
                        continue
        return frozenset(texts)

    def _safe_assignments(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        ctx: frozenset[str],
    ) -> frozenset[str]:
        """Local names whose (some) assigned value is itself safe.

        Iterated to a fixpoint so chains like ``step = eps * big``
        then ``bump = step.copy()`` resolve; a name with one safe
        binding counts (the common rebind is ``x = np.where(c, -x, x)``
        which preserves safety).
        """
        known = set(ctx)
        changed = True
        while changed:
            changed = False
            for node in ast.walk(fn):
                if not isinstance(node, ast.Assign):
                    continue
                if len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name) or target.id in known:
                    continue
                if self._safe_expr(node.value, frozenset(known)):
                    known.add(target.id)
                    changed = True
        return frozenset(known - set(ctx))

    @staticmethod
    def _is_errstate(expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        dotted = _dotted_name(expr.func)
        return dotted is not None and dotted.split(".")[-1] == "errstate"

    def _violation(self, node: ast.AST, ctx: frozenset[str]) -> str | None:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if not self._safe_expr(node.right, ctx):
                return (
                    "unguarded division by "
                    f"{_brief(node.right)} may emit NaN/Inf"
                )
            return None
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            if not self._safe_expr(node.value, ctx):
                return (
                    "unguarded in-place division by "
                    f"{_brief(node.value)} may emit NaN/Inf"
                )
            return None
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted is None:
                return None
            head, _, tail = dotted.partition(".")
            if head not in {"np", "numpy"} or not tail:
                return None
            fname = tail.split(".")[-1]
            if fname in self._RISKY_FUNCS and node.args:
                nonneg = fname == "sqrt"
                if not self._safe_expr(node.args[0], ctx, nonneg=nonneg):
                    return (
                        f"unguarded np.{fname} of "
                        f"{_brief(node.args[0])} may emit NaN/Inf"
                    )
            return None
        return None

    def _safe_expr(
        self, expr: ast.expr, ctx: frozenset[str], *, nonneg: bool = False
    ) -> bool:
        """Whether *expr* is a guarded operand in context *ctx*.

        *ctx* holds expression texts established safe (module constants,
        validator-checked attributes, raise-guarded names, safe local
        bindings). *nonneg* relaxes to "cannot be negative" for
        ``np.sqrt``, whose only hazard is a negative argument.
        """
        if isinstance(expr, ast.Constant):
            if not isinstance(expr.value, (int, float)):
                return False
            return expr.value != 0 or (nonneg and expr.value >= 0)
        if isinstance(expr, (ast.Name, ast.Attribute)):
            try:
                if ast.unparse(expr) in ctx:
                    return True
            except Exception:  # pragma: no cover - unparse total
                pass
            return (
                isinstance(expr, ast.Attribute)
                and expr.attr in self._POSITIVE_ATTRS
            )
        if isinstance(expr, ast.Subscript):
            return self._safe_expr(expr.value, ctx, nonneg=nonneg)
        if isinstance(expr, ast.Call):
            # The bare callable name: last attribute segment for method
            # and dotted calls (works even when the receiver is itself
            # an expression, e.g. ``(n + 1).astype(...)``).
            if isinstance(expr.func, ast.Attribute):
                fname = expr.func.attr
            elif isinstance(expr.func, ast.Name):
                fname = expr.func.id
            else:
                fname = ""
            if fname in self._SAFE_FUNCS:
                return True
            if fname in self._TRANSPARENT_CALLS and expr.args:
                return self._safe_expr(expr.args[0], ctx, nonneg=nonneg)
            if fname in self._TRANSPARENT_METHODS and isinstance(
                expr.func, ast.Attribute
            ):
                return self._safe_expr(expr.func.value, ctx, nonneg=nonneg)
            if nonneg and fname == "einsum" and len(expr.args) == 3:
                # A self inner product (same operand twice) is a sum of
                # squares — np.sqrt of it is always defined.
                try:
                    return ast.unparse(expr.args[1]) == ast.unparse(
                        expr.args[2]
                    )
                except Exception:  # pragma: no cover - unparse total
                    return False
            return False
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            return self._safe_expr(
                expr.left, ctx, nonneg=nonneg
            ) or self._safe_expr(expr.right, ctx, nonneg=nonneg)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
            # positive / positive stays positive (e.g. ``t / self.alpha``
            # as a np.power base).
            return self._safe_expr(expr.left, ctx) and self._safe_expr(
                expr.right, ctx
            )
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mult):
            if self._safe_expr(expr.left, ctx) and self._safe_expr(
                expr.right, ctx
            ):
                return True
            if nonneg:
                # x * x cannot be negative whatever x is.
                try:
                    return ast.unparse(expr.left) == ast.unparse(expr.right)
                except Exception:  # pragma: no cover - unparse total
                    return False
            return False
        if isinstance(expr, ast.UnaryOp) and not nonneg:
            return self._safe_expr(expr.operand, ctx)
        return False


def _brief(expr: ast.expr) -> str:
    """Short stable rendering of an operand for finding messages."""
    try:
        text = ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse covers all exprs
        return "<expr>"
    text = " ".join(text.split())
    return text if len(text) <= 40 else text[:37] + "..."


# ----------------------------------------------------------------------
# R10 — error-surface completeness
# ----------------------------------------------------------------------
class ErrorSurfaceRule:
    """Every serving error maps to a code; every op is dispatched."""

    RULE_ID = "R10"
    NAME = "error-surface"
    DESCRIPTION = (
        "every subclass of the registered error base must define or "
        "inherit a wire code, every protocol op needs a dispatch arm, "
        "and the protocol handler must catch-and-map the hierarchy"
    )

    def check_project(
        self, graph: CallGraph, config: LintConfig
    ) -> list[Finding]:
        findings: list[Finding] = []
        if config.error_base:
            findings.extend(self._check_hierarchy(graph, config))
        for spec in config.protocols:
            findings.extend(self._check_protocol(graph, spec))
        return sorted(findings)

    def _check_hierarchy(
        self, graph: CallGraph, config: LintConfig
    ) -> list[Finding]:
        findings: list[Finding] = []
        bases = {
            cls.qualname
            for cls in graph.classes.values()
            if cls.name == config.error_base
        }
        for cls in graph.subclasses_of(config.error_base):
            if self._has_code(graph, cls.qualname, stop=bases):
                continue
            findings.append(
                Finding(
                    path=cls.relpath,
                    line=cls.lineno,
                    rule=self.RULE_ID,
                    message=(
                        f"error class {cls.name} defines no wire code "
                        f"(class attribute 'code')"
                    ),
                    hint=(
                        "set a class-level code so error_code() maps it "
                        "instead of defaulting"
                    ),
                )
            )
        return findings

    def _has_code(
        self, graph: CallGraph, qualname: str, stop: set[str]
    ) -> bool:
        """``code`` defined on the class or an ancestor below the base.

        The base's own default is deliberately not enough — each
        concrete error names its code (or shares a parent that does).
        """
        seen: set[str] = set()
        queue = [qualname]
        while queue:
            qual = queue.pop(0)
            if qual in seen or qual in stop:
                continue
            seen.add(qual)
            cls = graph.classes.get(qual)
            if cls is None:
                continue
            if "code" in cls.class_consts:
                return True
            queue.extend(cls.bases)
        return False

    def _check_protocol(
        self, graph: CallGraph, spec: ProtocolSpec
    ) -> list[Finding]:
        module = next(
            (m for m in graph.modules if m.relpath == spec.module), None
        )
        if module is None:
            return []
        findings: list[Finding] = []
        ops, ops_line = self._ops_const(module, spec.ops_const)
        dispatcher = self._method_node(graph, spec.module, spec.dispatcher)
        if ops is None:
            findings.append(
                Finding(
                    path=spec.module,
                    line=1,
                    rule=self.RULE_ID,
                    message=(
                        f"protocol op registry {spec.ops_const} not found"
                    ),
                    hint="keep the ops tuple next to the dispatcher",
                )
            )
        elif dispatcher is None:
            findings.append(
                Finding(
                    path=spec.module,
                    line=ops_line,
                    rule=self.RULE_ID,
                    message=f"protocol dispatcher {spec.dispatcher} not found",
                    hint="update the R10 protocol registry if it moved",
                )
            )
        else:
            handled = {
                node.value
                for node in ast.walk(dispatcher)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
            }
            for op in ops:
                if op not in handled:
                    findings.append(
                        Finding(
                            path=spec.module,
                            line=dispatcher.lineno,
                            rule=self.RULE_ID,
                            message=(
                                f"protocol op '{op}' has no dispatch arm "
                                f"in {spec.dispatcher}"
                            ),
                            hint="add the op handler or drop it from the "
                            "registry",
                        )
                    )
        handler = self._method_node(graph, spec.module, spec.handler)
        if handler is None:
            findings.append(
                Finding(
                    path=spec.module,
                    line=1,
                    rule=self.RULE_ID,
                    message=f"protocol handler {spec.handler} not found",
                    hint="update the R10 protocol registry if it moved",
                )
            )
        elif not self._catches_and_maps(handler, spec):
            findings.append(
                Finding(
                    path=spec.module,
                    line=handler.lineno,
                    rule=self.RULE_ID,
                    message=(
                        f"{spec.handler} does not catch-and-map the error "
                        f"hierarchy ({'/'.join(sorted(spec.catch_types))} "
                        f"via {'/'.join(sorted(spec.mappers))})"
                    ),
                    hint="wrap dispatch in except ServingError and map "
                    "through error_code()",
                )
            )
        return findings

    @staticmethod
    def _ops_const(
        module: ModuleSource, name: str
    ) -> tuple[tuple[str, ...] | None, int]:
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                targets: list[ast.expr] = list(node.targets)
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == name:
                    if isinstance(value, (ast.Tuple, ast.List)):
                        ops = tuple(
                            element.value
                            for element in value.elts
                            if isinstance(element, ast.Constant)
                            and isinstance(element.value, str)
                        )
                        return ops, node.lineno
        return None, 1

    @staticmethod
    def _method_node(
        graph: CallGraph, relpath: str, qualname: str
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        suffix = "." + qualname
        for fn in graph.functions.values():
            if fn.relpath == relpath and fn.qualname.endswith(suffix):
                return fn.node
        return None

    @staticmethod
    def _catches_and_maps(
        handler: ast.FunctionDef | ast.AsyncFunctionDef, spec: ProtocolSpec
    ) -> bool:
        for node in ast.walk(handler):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            caught = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            names = {
                (_dotted_name(expr) or "").split(".")[-1] for expr in caught
            }
            if not (names & spec.catch_types):
                continue
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    dotted = _dotted_name(call.func)
                    if (
                        dotted is not None
                        and dotted.split(".")[-1] in spec.mappers
                    ):
                        return True
        return False


#: Every interprocedural rule, in id order.
GRAPH_RULES: tuple[type, ...] = (
    AsyncPurityRule,
    LockDisciplineRule,
    NumericHygieneRule,
    ErrorSurfaceRule,
)
