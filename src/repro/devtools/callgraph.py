"""Project-wide symbol table and conservative call graph.

This is the interprocedural layer under lint rules R7–R10. Like every
other devtools pass it **parses, never imports**: the graph is built
from the same :class:`~repro.devtools.rules.ModuleSource` trees the
per-module rules see, so analysing ``src/repro`` stays dependency-free
and side-effect-free.

Resolution is deliberately conservative (over-approximate): a call is
linked to every project function it *could* reach, and unresolvable
attribute calls fall back to matching all project methods with the same
name. Three mechanisms keep the over-approximation useful:

* a light type environment — parameter / variable / class-attribute
  annotations that name project classes make ``obj.method()`` calls
  exact, so annotating code tightens its own analysis;
* a name-fallback ignore list of ubiquitous container/stream method
  names (``get``, ``append``, ``close``, …) that would otherwise wire
  unrelated code together;
* callables passed *as arguments* (``loop.run_in_executor(None, fn)``,
  ``executor.map(fn, …)``) never become edges — only calls do — which
  is precisely the worker-pool funnel R7 permits.
"""

from __future__ import annotations

import ast
import dataclasses
from collections import deque
from typing import Iterable, Mapping, Sequence

from repro.devtools.rules import ModuleSource, _dotted_name

__all__ = [
    "BlockingPath",
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "build_callgraph",
    "module_name_for",
]

#: Attribute-call names never resolved by the name-based fallback:
#: ubiquitous container/stream/path methods that would wire unrelated
#: code together (``self._times.append`` is a list append, not
#: ``EpisodeStoreWriter.append``). Blocking helpers that matter to R7
#: must carry distinctive names or full dotted sink entries.
_FALLBACK_IGNORE = frozenset(
    {
        "add",
        "append",
        "cancel",
        "clear",
        "close",
        "copy",
        "count",
        "decode",
        "discard",
        "drain",
        "encode",
        "endswith",
        "exists",
        "extend",
        "flush",
        "format",
        "get",
        "index",
        "insert",
        "is_dir",
        "is_file",
        "items",
        "join",
        "keys",
        "kill",
        "lower",
        "mkdir",
        "open",
        "pop",
        "popitem",
        "put",
        "read",
        "readline",
        "remove",
        "replace",
        "setdefault",
        "sort",
        "split",
        "startswith",
        "strip",
        "terminate",
        "title",
        "unlink",
        "update",
        "upper",
        "values",
        "wait",
        "write",
    }
)


def module_name_for(relpath: str) -> str:
    """Dotted module name for a project-relative path.

    ``src/repro/serving/server.py`` → ``repro.serving.server``;
    package ``__init__.py`` files map to the package itself.
    """
    parts = relpath[:-3].split("/") if relpath.endswith(".py") else relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclasses.dataclass(eq=False)
class FunctionInfo:
    """One function or method in the symbol table."""

    qualname: str
    relpath: str
    lineno: int
    name: str
    is_async: bool
    class_qualname: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Project class qualname named by the return annotation, if any
    #: (resolved in the second build pass).
    returns_class: str | None = None

    @property
    def shortname(self) -> str:
        """Display name: ``Class.method`` or the bare function name."""
        if self.class_qualname is not None:
            return f"{self.class_qualname.rsplit('.', 1)[-1]}.{self.name}"
        return self.name


@dataclasses.dataclass(eq=False)
class ClassInfo:
    """One class in the symbol table."""

    qualname: str
    relpath: str
    lineno: int
    name: str
    node: ast.ClassDef
    #: Import-resolved dotted base names (project or external).
    bases: tuple[str, ...] = ()
    #: Bare method name → function qualname.
    methods: dict[str, str] = dataclasses.field(default_factory=dict)
    #: Attribute name → project class qualname, from class-body and
    #: ``self.x: T = …`` annotations (resolved in the second pass).
    attr_types: dict[str, str] = dataclasses.field(default_factory=dict)
    #: Names bound by plain assignment in the class body (class vars).
    class_consts: frozenset[str] = frozenset()


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One call expression inside one function."""

    lineno: int
    #: Project function qualnames this call may reach (empty for a
    #: purely external call).
    callees: tuple[str, ...]
    #: Import-resolved dotted target as written, for sink matching.
    external: str | None
    #: True when resolution was exact (types/imports), False when the
    #: callees come from the name-based fallback.
    exact: bool


@dataclasses.dataclass(frozen=True)
class BlockingPath:
    """A shortest call path from an async root to a blocking sink."""

    #: Display names from the root function to the last project hop.
    hops: tuple[str, ...]
    #: The matched blocking sink, as resolved at the final call site.
    sink: str
    #: Line (in the root function's file) of the first hop.
    lineno: int

    def render(self) -> str:
        """``root -> hop -> … -> sink`` arrow chain for messages."""
        return " -> ".join((*self.hops, self.sink))


class _SinkMatcher:
    """Matches resolved call targets against the configured sink list.

    Entries ending in ``.*`` are prefix patterns (``scipy.optimize.*``);
    plain entries match the full dotted target or any dotted suffix
    (``fit_least_squares`` matches
    ``repro.fitting.least_squares.fit_least_squares``).
    """

    def __init__(self, sinks: Iterable[str]) -> None:
        self._prefixes: list[str] = []
        self._exact: list[str] = []
        for entry in sinks:
            if entry.endswith(".*"):
                self._prefixes.append(entry[:-1])
            else:
                self._exact.append(entry)

    def match(self, target: str | None) -> str | None:
        if target is None:
            return None
        for prefix in self._prefixes:
            if target.startswith(prefix) or target == prefix[:-1]:
                return target
        for entry in self._exact:
            if target == entry or target.endswith("." + entry):
                return target
        return None


@dataclasses.dataclass(eq=False)
class CallGraph:
    """The assembled symbol table, call edges, and source modules."""

    functions: dict[str, FunctionInfo]
    classes: dict[str, ClassInfo]
    calls: dict[str, tuple[CallSite, ...]]
    modules: tuple[ModuleSource, ...]

    def methods_named(self, name: str) -> tuple[str, ...]:
        """Every project method with bare name *name* (fallback index)."""
        return self._method_index.get(name, ())

    def __post_init__(self) -> None:
        index: dict[str, list[str]] = {}
        for cls in self.classes.values():
            for bare, qual in cls.methods.items():
                index.setdefault(bare, []).append(qual)
        self._method_index: dict[str, tuple[str, ...]] = {
            bare: tuple(sorted(quals)) for bare, quals in index.items()
        }

    def lookup_method(self, class_qualname: str, name: str) -> str | None:
        """Resolve *name* on a class, walking project base classes."""
        seen: set[str] = set()
        queue = [class_qualname]
        while queue:
            qual = queue.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            cls = self.classes.get(qual)
            if cls is None:
                continue
            found = cls.methods.get(name)
            if found is not None:
                return found
            queue.extend(base for base in cls.bases if base in self.classes)
        return None

    def subclasses_of(self, base_name: str) -> list[ClassInfo]:
        """Project classes transitively deriving from *base_name*.

        *base_name* is matched by bare class name; the bases themselves
        are not included.
        """
        roots = {
            cls.qualname for cls in self.classes.values() if cls.name == base_name
        }
        if not roots:
            return []
        out: list[ClassInfo] = []
        changed = True
        member = set(roots)
        while changed:
            changed = False
            for cls in self.classes.values():
                if cls.qualname in member:
                    continue
                if any(base in member for base in cls.bases):
                    member.add(cls.qualname)
                    out.append(cls)
                    changed = True
        return sorted(out, key=lambda cls: cls.qualname)

    def blocking_path(
        self, root: str, sinks: Sequence[str]
    ) -> BlockingPath | None:
        """Shortest call path from *root* to any sink, or ``None``.

        Deterministic: BFS in source order.
        """
        matcher = _SinkMatcher(sinks)
        parents: dict[str, tuple[str | None, int]] = {root: (None, 0)}
        queue: deque[str] = deque([root])
        while queue:
            qual = queue.popleft()
            for site in self.calls.get(qual, ()):
                hit = matcher.match(site.external)
                if hit is None:
                    for callee in site.callees:
                        hit = matcher.match(callee)
                        if hit is not None:
                            break
                if hit is not None:
                    return self._reconstruct(parents, qual, site.lineno, hit)
                for callee in site.callees:
                    if callee not in parents:
                        parents[callee] = (qual, site.lineno)
                        queue.append(callee)
        return None

    def _reconstruct(
        self,
        parents: Mapping[str, tuple[str | None, int]],
        last: str,
        sink_lineno: int,
        sink: str,
    ) -> BlockingPath:
        chain: list[str] = []
        lines: list[int] = [sink_lineno]
        node: str | None = last
        while node is not None:
            chain.append(node)
            prev, lineno = parents[node]
            if prev is not None:
                lines.append(lineno)
            node = prev
        chain.reverse()
        lines.reverse()
        hops = tuple(
            self.functions[qual].shortname if qual in self.functions else qual
            for qual in chain
        )
        short_sink = (
            self.functions[sink].shortname if sink in self.functions else sink
        )
        return BlockingPath(hops=hops, sink=short_sink, lineno=lines[0])


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------
@dataclasses.dataclass(eq=False)
class _ModuleContext:
    """Per-module resolution state shared by the build passes."""

    module: ModuleSource
    modname: str
    imports: dict[str, str]
    #: Local top-level symbol name → qualname (functions and classes).
    locals: dict[str, str]

    def resolve_head(self, name: str) -> str:
        local = self.locals.get(name)
        if local is not None:
            return local
        return self.imports.get(name, name)

    def resolve_dotted(self, dotted: str) -> str:
        head, _, tail = dotted.partition(".")
        resolved = self.resolve_head(head)
        return f"{resolved}.{tail}" if tail else resolved


def _resolved_imports(tree: ast.Module, modname: str) -> dict[str, str]:
    """Local name → absolute dotted path, including relative imports."""
    table: dict[str, str] = {}
    package_parts = modname.split(".")[:-1] if modname else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                parts = package_parts[: len(package_parts) - (node.level - 1)]
                if node.module:
                    parts = [*parts, node.module]
                base = ".".join(parts)
            for alias in node.names:
                table[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    return table


def _annotation_candidates(expr: ast.expr | None) -> list[str]:
    """Dotted class names an annotation may denote an instance of.

    ``Optional[T]`` / ``T | None`` / ``Union[…]`` unwrap; generic
    containers (``list[T]``, ``Mapping[…]``) yield nothing — their
    receivers get stdlib methods, not project ones.
    """
    if expr is None:
        return []
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, str):
            try:
                parsed = ast.parse(expr.value, mode="eval").body
            except SyntaxError:
                return []
            return _annotation_candidates(parsed)
        return []
    if isinstance(expr, (ast.Name, ast.Attribute)):
        dotted = _dotted_name(expr)
        return [dotted] if dotted is not None and dotted != "None" else []
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        return _annotation_candidates(expr.left) + _annotation_candidates(expr.right)
    if isinstance(expr, ast.Subscript):
        base = _dotted_name(expr.value)
        tail = base.rsplit(".", 1)[-1] if base else ""
        if tail == "Optional":
            return _annotation_candidates(expr.slice)
        if tail == "Union":
            if isinstance(expr.slice, ast.Tuple):
                out: list[str] = []
                for element in expr.slice.elts:
                    out.extend(_annotation_candidates(element))
                return out
            return _annotation_candidates(expr.slice)
        return []
    return []


def build_callgraph(modules: Sequence[ModuleSource]) -> CallGraph:
    """Assemble the symbol table and call edges for *modules*."""
    functions: dict[str, FunctionInfo] = {}
    classes: dict[str, ClassInfo] = {}
    contexts: list[_ModuleContext] = []
    raw_bases: dict[str, list[ast.expr]] = {}
    raw_attr_anns: dict[str, list[tuple[str, ast.expr]]] = {}
    raw_returns: dict[str, ast.expr] = {}
    ctx_of_class: dict[str, _ModuleContext] = {}
    ctx_of_fn: dict[str, _ModuleContext] = {}

    # Pass 1: symbols.
    for module in modules:
        modname = module_name_for(module.relpath)
        ctx = _ModuleContext(
            module=module,
            modname=modname,
            imports=_resolved_imports(module.tree, modname),
            locals={},
        )
        contexts.append(ctx)
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{modname}.{node.name}"
                ctx.locals[node.name] = qual
                functions[qual] = FunctionInfo(
                    qualname=qual,
                    relpath=module.relpath,
                    lineno=node.lineno,
                    name=node.name,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                    class_qualname=None,
                    node=node,
                )
                ctx_of_fn[qual] = ctx
                if node.returns is not None:
                    raw_returns[qual] = node.returns
            elif isinstance(node, ast.ClassDef):
                cls_qual = f"{modname}.{node.name}"
                ctx.locals[node.name] = cls_qual
                info = ClassInfo(
                    qualname=cls_qual,
                    relpath=module.relpath,
                    lineno=node.lineno,
                    name=node.name,
                    node=node,
                )
                classes[cls_qual] = info
                ctx_of_class[cls_qual] = ctx
                raw_bases[cls_qual] = list(node.bases)
                anns: list[tuple[str, ast.expr]] = []
                consts: set[str] = set()
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        meth_qual = f"{cls_qual}.{child.name}"
                        info.methods[child.name] = meth_qual
                        functions[meth_qual] = FunctionInfo(
                            qualname=meth_qual,
                            relpath=module.relpath,
                            lineno=child.lineno,
                            name=child.name,
                            is_async=isinstance(child, ast.AsyncFunctionDef),
                            class_qualname=cls_qual,
                            node=child,
                        )
                        ctx_of_fn[meth_qual] = ctx
                        if child.returns is not None:
                            raw_returns[meth_qual] = child.returns
                        for stmt in ast.walk(child):
                            if (
                                isinstance(stmt, ast.AnnAssign)
                                and isinstance(stmt.target, ast.Attribute)
                                and isinstance(stmt.target.value, ast.Name)
                                and stmt.target.value.id == "self"
                            ):
                                anns.append((stmt.target.attr, stmt.annotation))
                    elif isinstance(child, ast.AnnAssign) and isinstance(
                        child.target, ast.Name
                    ):
                        anns.append((child.target.id, child.annotation))
                        if child.value is not None:
                            consts.add(child.target.id)
                    elif isinstance(child, ast.Assign):
                        for target in child.targets:
                            if isinstance(target, ast.Name):
                                consts.add(target.id)
                info.class_consts = frozenset(consts)
                raw_attr_anns[cls_qual] = anns

    # Pass 2: resolve bases, attribute types, and return types.
    def resolve_class(ctx: _ModuleContext, candidates: list[str]) -> str | None:
        for candidate in candidates:
            resolved = ctx.resolve_dotted(candidate)
            if resolved in classes:
                return resolved
        return None

    for cls_qual, base_exprs in raw_bases.items():
        ctx = ctx_of_class[cls_qual]
        resolved_bases: list[str] = []
        for expr in base_exprs:
            dotted = _dotted_name(expr)
            if dotted is not None:
                resolved_bases.append(ctx.resolve_dotted(dotted))
        classes[cls_qual].bases = tuple(resolved_bases)
    for cls_qual, anns in raw_attr_anns.items():
        ctx = ctx_of_class[cls_qual]
        for attr, expr in anns:
            resolved = resolve_class(ctx, _annotation_candidates(expr))
            if resolved is not None:
                classes[cls_qual].attr_types.setdefault(attr, resolved)
    for fn_qual, expr in raw_returns.items():
        ctx = ctx_of_fn[fn_qual]
        functions[fn_qual].returns_class = resolve_class(
            ctx, _annotation_candidates(expr)
        )

    graph = CallGraph(
        functions=functions, classes=classes, calls={}, modules=tuple(modules)
    )

    # Pass 3: call sites.
    for fn in list(functions.values()):
        ctx = ctx_of_fn[fn.qualname]
        graph.calls[fn.qualname] = _CallScanner(graph, ctx, fn).scan()
    return graph


class _CallScanner:
    """Collects the call sites of one function, flow-sensitively."""

    def __init__(
        self, graph: CallGraph, ctx: _ModuleContext, fn: FunctionInfo
    ) -> None:
        self.graph = graph
        self.ctx = ctx
        self.fn = fn
        self.sites: list[CallSite] = []
        self.env: dict[str, str] = {}
        for arg in (
            *fn.node.args.posonlyargs,
            *fn.node.args.args,
            *fn.node.args.kwonlyargs,
        ):
            resolved = self._resolve_annotation(arg.annotation)
            if resolved is not None:
                self.env[arg.arg] = resolved

    def scan(self) -> tuple[CallSite, ...]:
        self._stmts(self.fn.node.body)
        return tuple(self.sites)

    # -- resolution helpers -------------------------------------------
    def _resolve_annotation(self, expr: ast.expr | None) -> str | None:
        for candidate in _annotation_candidates(expr):
            resolved = self.ctx.resolve_dotted(candidate)
            if resolved in self.graph.classes:
                return resolved
        return None

    def _expr_type(self, expr: ast.expr) -> str | None:
        """Project class qualname an expression evaluates to, if known."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.fn.class_qualname is not None:
                return self.fn.class_qualname
            return self.env.get(expr.id)
        if isinstance(expr, ast.Await):
            return self._expr_type(expr.value)
        if isinstance(expr, ast.Attribute):
            owner = self._expr_type(expr.value)
            if owner is not None:
                found = self._class_attr_type(owner, expr.attr)
                if found is not None:
                    return found
            dotted = _dotted_name(expr)
            if dotted is not None:
                resolved = self.ctx.resolve_dotted(dotted)
                if resolved in self.graph.classes:
                    return None  # the class object, not an instance
            return None
        if isinstance(expr, ast.Call):
            callees, external, exact = self._resolve_call_func(expr.func)
            if exact and external is not None and external in self.graph.classes:
                return external  # constructor call
            if exact and len(callees) == 1:
                info = self.graph.functions.get(callees[0])
                if info is not None:
                    return info.returns_class
            return None
        if isinstance(expr, ast.Subscript):
            owner = self._expr_type(expr.value)
            if owner is not None:
                getter = self.graph.lookup_method(owner, "__getitem__")
                if getter is not None:
                    info = self.graph.functions.get(getter)
                    if info is not None:
                        return info.returns_class
            return None
        return None

    def _class_attr_type(self, class_qualname: str, attr: str) -> str | None:
        seen: set[str] = set()
        queue = [class_qualname]
        while queue:
            qual = queue.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            cls = self.graph.classes.get(qual)
            if cls is None:
                continue
            found = cls.attr_types.get(attr)
            if found is not None:
                return found
            queue.extend(cls.bases)
        return None

    def _resolve_call_func(
        self, func: ast.expr
    ) -> tuple[tuple[str, ...], str | None, bool]:
        """→ (project callees, external dotted target, exact?)."""
        graph = self.graph
        if isinstance(func, ast.Name):
            resolved = self.ctx.resolve_head(func.id)
            if resolved in graph.functions:
                return (resolved,), None, True
            if resolved in graph.classes:
                ctor = graph.lookup_method(resolved, "__init__")
                return ((ctor,) if ctor else ()), resolved, True
            return (), resolved, True
        if isinstance(func, ast.Attribute):
            receiver_type = self._expr_type(func.value)
            if receiver_type is not None:
                target = graph.lookup_method(receiver_type, func.attr)
                if target is not None:
                    return (target,), None, True
                return (), f"{receiver_type}.{func.attr}", True
            dotted = _dotted_name(func)
            external: str | None = None
            if dotted is not None:
                resolved = self.ctx.resolve_dotted(dotted)
                if resolved in graph.functions:
                    return (resolved,), None, True
                if resolved in graph.classes:
                    ctor = graph.lookup_method(resolved, "__init__")
                    return ((ctor,) if ctor else ()), resolved, True
                external = resolved
            if func.attr.startswith("__") or func.attr in _FALLBACK_IGNORE:
                return (), external, False
            return graph.methods_named(func.attr), external, False
        return (), None, True

    # -- traversal ----------------------------------------------------
    def _stmts(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function: attribute its calls to the enclosing
            # function (it can only run when the parent runs).
            self._stmts(stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            self._stmts(stmt.body)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._expr(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter)
            self._forget_target(stmt.target)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._forget_target(item.optional_vars)
            self._stmts(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._stmts(stmt.body)
            for handler in stmt.handlers:
                self._stmts(handler.body)
            self._stmts(stmt.orelse)
            self._stmts(stmt.finalbody)
        elif isinstance(stmt, ast.Assign):
            self._expr(stmt.value)
            inferred = self._expr_type(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if inferred is not None:
                        self.env[target.id] = inferred
                    else:
                        self.env.pop(target.id, None)
                else:
                    self._forget_target(target)
                    self._expr_store(target)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                resolved = self._resolve_annotation(stmt.annotation)
                if resolved is not None:
                    self.env[stmt.target.id] = resolved
                else:
                    self.env.pop(stmt.target.id, None)
        elif isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value)
        elif isinstance(stmt, (ast.Expr, ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)

    def _expr_store(self, target: ast.expr) -> None:
        """Scan the value parts of a non-Name assignment target."""
        for child in ast.walk(target):
            if isinstance(child, ast.Call):
                self._expr(child)

    def _forget_target(self, target: ast.expr) -> None:
        for child in ast.walk(target):
            if isinstance(child, ast.Name):
                self.env.pop(child.id, None)

    def _expr(self, expr: ast.expr) -> None:
        if isinstance(expr, ast.Call):
            callees, external, exact = self._resolve_call_func(expr.func)
            self.sites.append(
                CallSite(
                    lineno=expr.lineno,
                    callees=callees,
                    external=external,
                    exact=exact,
                )
            )
            # Receiver of a method call may itself contain calls.
            if isinstance(expr.func, ast.Attribute):
                self._expr(expr.func.value)
            for arg in expr.args:
                self._expr(arg)
            for keyword in expr.keywords:
                self._expr(keyword.value)
            return
        if isinstance(expr, ast.Lambda):
            self._expr(expr.body)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter)
                for condition in child.ifs:
                    self._expr(condition)
