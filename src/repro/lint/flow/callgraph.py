"""Package-wide call graph over the linted project's ASTs.

Two passes build the graph:

1. **index** — every module gets a :class:`ModuleInfo` (its
   :class:`~repro.lint.flow.names.ModuleNames`, its mutable module
   globals, its ``# megsim: ambient(...)`` pragmas) and every function,
   method and nested function gets a :class:`FunctionInfo` keyed by
   dotted qualname (``repro.store.artifact.ArtifactStore.get``).
2. **edges** — each function body is walked once, resolving call sites
   to canonical names (chasing package re-exports such as
   ``repro.pipeline.materialize_stage`` to their defining module),
   recording direct ambient effects for unresolvable external calls,
   and noting callables shipped through the configured worker
   entrypoints (:class:`ShipSite`, consumed by MEG012).

Resolution strategy, in decreasing precision: exact dotted names via
:class:`ModuleNames`; ``ClassName(...).method`` and locally typed
``x = ClassName(...); x.method()`` receivers; ``self.method`` inside a
class; then class-hierarchy fan-out (every project method of that name)
for anything still unresolved — conservative over-approximation rather
than silence.  A function passed as a call *argument* is treated as
called by the caller, which is how higher-order shipping through
``parallel_map``/``partial`` stays inside the cone.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.lint.config import PACKAGE_ROOT, WORKER_ENTRYPOINTS
from repro.lint.flow.effects import (
    EFFECT_KINDS,
    FILESYSTEM_METHODS,
    MUTATING_METHODS,
    Effect,
    attribute_read_effect,
    call_effect,
)
from repro.lint.flow.names import ModuleNames, dotted_name, module_name
from repro.lint.project import Project, SourceFile

#: The in-source ambient declaration: a ``megsim: ambient(env, ...)``
#: marker inside a comment on (or directly above) a ``def`` line.
PRAGMA = re.compile(r"#\s*megsim:\s*ambient\(([^)]*)\)")

#: Method names owned by builtin containers/strings/files.  An
#: unresolved ``x.get(...)`` is far more likely ``dict.get`` than a
#: project method, so these never trigger class-hierarchy fan-out (nor
#: the filesystem-method fallback) — the one deliberate precision
#: concession that keeps the graph from collapsing into one blob.
COMMON_METHODS = frozenset(
    name
    for kind in (dict, list, set, frozenset, tuple, str, bytes)
    for name in dir(kind)
    if not name.startswith("_")
) | frozenset({"read", "write", "close", "flush", "readline", "seek"})


@dataclass
class Pragma:
    """One ``# megsim: ambient(...)`` occurrence in a source file."""

    relpath: str
    line: int
    kinds: tuple[str, ...]
    attached_to: str | None = None  # qualname of the declaring function


@dataclass
class FunctionInfo:
    """One function, method or nested function in the project."""

    qualname: str  # dotted: module.Class.name / module.outer.inner
    display: str  # module:Class.name — the CLI/report spelling
    module: str
    relpath: str
    name: str
    lineno: int
    kind: str  # "function" | "method" | "nested"
    cls: str | None  # owning class qualname for methods
    node: ast.AST = field(repr=False, default=None)
    pragma_kinds: tuple[str, ...] = ()
    effects: set = field(default_factory=set)
    callees: set = field(default_factory=set)  # qualnames

    @property
    def is_toplevel(self) -> bool:
        return self.kind == "function"


@dataclass
class ShipSite:
    """One callable handed to a worker entrypoint (``parallel_map``)."""

    caller: str  # qualname of the shipping function ('' at module level)
    relpath: str
    line: int
    entrypoint: str
    target: str | None  # resolved qualname, when the argument resolves
    problem: str | None  # "lambda" / "missing" when it cannot ship


@dataclass
class ModuleInfo:
    """Per-module facts the pass-2 visitors need."""

    name: str
    relpath: str
    source: SourceFile
    names: ModuleNames
    assigns: set[str] = field(default_factory=set)
    mutable_globals: set[str] = field(default_factory=set)
    pragmas: list[Pragma] = field(default_factory=list)


def _comments(text: str) -> list[tuple[int, str]]:
    """``(line, text)`` of every real comment token in a source file.

    Tokenizing (rather than line-scanning) keeps pragma text inside
    docstrings and string literals from being mistaken for pragmas.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        return [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):
        return []


class CallGraph:
    """The resolved call graph plus per-function direct effects."""

    def __init__(self, project: Project) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, dict[str, str]] = {}  # class -> method map
        self.methods_by_name: dict[str, list[str]] = {}
        self.attr_types: dict[str, dict[str, str]] = {}
        self.ship_sites: list[ShipSite] = []
        self.entrypoints = frozenset(WORKER_ENTRYPOINTS)
        self._index(project)
        self._index_attr_types()
        self._extract(project)

    # -- pass 1: index -------------------------------------------------

    def _index(self, project: Project) -> None:
        for source in project.files:
            if source.tree is None:
                continue
            name = module_name(source.relpath, PACKAGE_ROOT)
            is_package = source.relpath.endswith("__init__.py")
            info = ModuleInfo(
                name=name,
                relpath=source.relpath,
                source=source,
                names=ModuleNames(source.tree, name, is_package),
            )
            self.modules[name] = info
            self._index_module_globals(info)
            self._index_functions(info)
            self._index_pragmas(info)
        for fn in self.functions.values():
            if fn.kind == "method":
                self.methods_by_name.setdefault(fn.name, []).append(fn.qualname)
        for names in self.methods_by_name.values():
            names.sort()

    def _index_module_globals(self, info: ModuleInfo) -> None:
        """Find module-level assigned names that are actually mutated."""
        tree = info.source.tree
        for node in tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    info.assigns.add(target.id)
        mutated: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                mutated.update(node.names)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                value = node.func.value
                if (
                    isinstance(value, ast.Name)
                    and node.func.attr in MUTATING_METHODS
                    and value.id in info.assigns
                ):
                    mutated.add(value.id)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    node.targets
                    if isinstance(node, (ast.Assign, ast.Delete))
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ) and target.value.id in info.assigns:
                        mutated.add(target.value.id)
        info.mutable_globals = mutated & info.assigns

    def _index_functions(self, info: ModuleInfo) -> None:
        def register(node, qual_in_module: str, kind: str, cls: str | None):
            qualname = f"{info.name}.{qual_in_module}"
            self.functions[qualname] = FunctionInfo(
                qualname=qualname,
                display=f"{info.name}:{qual_in_module}",
                module=info.name,
                relpath=info.relpath,
                name=node.name,
                lineno=node.lineno,
                kind=kind,
                cls=cls,
                node=node,
            )
            for child in ast.walk(node):
                if child is node:
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    register(
                        child, f"{qual_in_module}.{child.name}", "nested", cls
                    )
                    break  # ast.walk revisits; recurse handles the rest

        # ast.walk inside register would double-register deeply nested
        # defs; do an explicit recursion instead.
        def visit_body(body, prefix: str, kind: str, cls: str | None):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{node.name}"
                    qualname = f"{info.name}.{qual}"
                    self.functions[qualname] = FunctionInfo(
                        qualname=qualname,
                        display=f"{info.name}:{qual}",
                        module=info.name,
                        relpath=info.relpath,
                        name=node.name,
                        lineno=node.lineno,
                        kind=kind,
                        cls=cls,
                        node=node,
                    )
                    visit_body(node.body, f"{qual}.", "nested", cls)
                elif isinstance(node, ast.ClassDef) and kind == "function":
                    class_qual = f"{info.name}.{node.name}"
                    self.classes.setdefault(class_qual, {})
                    for member in node.body:
                        if isinstance(
                            member, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            qual = f"{node.name}.{member.name}"
                            qualname = f"{info.name}.{qual}"
                            self.functions[qualname] = FunctionInfo(
                                qualname=qualname,
                                display=f"{info.name}:{qual}",
                                module=info.name,
                                relpath=info.relpath,
                                name=member.name,
                                lineno=member.lineno,
                                kind="method",
                                cls=class_qual,
                                node=member,
                            )
                            self.classes[class_qual][member.name] = qualname
                            visit_body(
                                member.body, f"{qual}.", "nested", class_qual
                            )

        del register  # the explicit recursion above is the real impl
        visit_body(info.source.tree.body, "", "function", None)

    def _index_pragmas(self, info: ModuleInfo) -> None:
        lines = info.source.text.splitlines()
        pragmas: dict[int, Pragma] = {}
        for number, comment in _comments(info.source.text):
            match = PRAGMA.search(comment)
            if match is None:
                continue
            kinds = tuple(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            pragmas[number] = Pragma(
                relpath=info.relpath, line=number, kinds=kinds
            )
        if not pragmas:
            return
        for fn in self.functions.values():
            if fn.module != info.name:
                continue
            body_start = (
                fn.node.body[0].lineno if fn.node.body else fn.lineno + 1
            )
            candidates = list(range(fn.lineno, body_start))
            above = fn.lineno - 1
            if 0 < above <= len(lines) and lines[above - 1].lstrip().startswith("#"):
                candidates.append(above)
            for line in candidates:
                pragma = pragmas.get(line)
                if pragma is not None and pragma.attached_to is None:
                    pragma.attached_to = fn.qualname
                    fn.pragma_kinds = tuple(
                        sorted(set(fn.pragma_kinds) | set(pragma.kinds))
                    )
        info.pragmas = [pragmas[line] for line in sorted(pragmas)]

    def _index_attr_types(self) -> None:
        """Type ``self.<attr>`` slots assigned a project-class instance.

        ``self._disk = DiskTier(...)`` anywhere in a class's methods
        makes a later ``self._disk.write(...)`` resolve precisely
        instead of falling back to hierarchy fan-out.
        """
        for fn in self.functions.values():
            if fn.cls is None:
                continue
            module = self.modules[fn.module]
            slots = self.attr_types.setdefault(fn.cls, {})
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                if isinstance(value, ast.IfExp):
                    # `self.disk = DiskTier(r) if r else None` idiom
                    value = (
                        value.body
                        if isinstance(value.body, ast.Call)
                        else value.orelse
                    )
                if not isinstance(value, ast.Call):
                    continue
                target_cls = self.canonicalize(
                    module.names.resolve(dotted_name(value.func))
                )
                if target_cls not in self.classes:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        slots[target.attr] = target_cls

    # -- canonicalization ---------------------------------------------

    def canonicalize(self, name: str | None) -> str | None:
        """Chase package re-exports until the name stops moving.

        ``repro.pipeline.materialize_stage`` (imported from the package
        ``__init__``) becomes ``repro.pipeline.engine.materialize_stage``.
        """
        seen: set[str] = set()
        while name is not None and name not in seen:
            seen.add(name)
            if name in self.functions or name in self.classes:
                return name
            resolved = self._resolve_through_module(name)
            if resolved is None or resolved == name:
                return name
            name = resolved
        return name

    def _resolve_through_module(self, name: str) -> str | None:
        parts = name.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            module = self.modules.get(prefix)
            if module is None:
                continue
            head = parts[cut]
            origin = module.names.aliases.get(head)
            if origin is None:
                return None
            rest = parts[cut + 1:]
            return ".".join([origin] + rest) if rest else origin
        return None

    # -- pass 2: edges + direct effects --------------------------------

    def _extract(self, project: Project) -> None:
        for fn in sorted(self.functions.values(), key=lambda f: f.qualname):
            module = self.modules[fn.module]
            visitor = _FunctionVisitor(self, module, fn)
            for statement in fn.node.body:
                visitor.visit(statement)

    def resolve_callable_node(
        self, module: ModuleInfo, node: ast.AST
    ) -> str | None:
        """Qualname of the project function a Name/Attribute denotes."""
        canonical = self.canonicalize(module.names.resolve(dotted_name(node)))
        if canonical in self.functions:
            return canonical
        return None


class _FunctionVisitor(ast.NodeVisitor):
    """One function body: resolve calls, record effects and ship sites."""

    def __init__(
        self, graph: CallGraph, module: ModuleInfo, fn: FunctionInfo
    ) -> None:
        self.graph = graph
        self.module = module
        self.fn = fn
        self.locals: set[str] = set()
        self.global_names: set[str] = set()
        self.local_types: dict[str, str] = {}  # local name -> class qualname
        self._collect_locals(fn.node)

    # -- scaffolding ---------------------------------------------------

    def _collect_locals(self, node) -> None:
        args = node.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ):
            self.locals.add(arg.arg)
        for child in ast.walk(node):
            if isinstance(child, ast.Global):
                self.global_names.update(child.names)
            elif isinstance(child, ast.Name) and isinstance(
                child.ctx, (ast.Store, ast.Del)
            ):
                self.locals.add(child.id)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child is not node:
                    self.locals.add(child.name)
            elif isinstance(child, ast.ExceptHandler) and child.name:
                self.locals.add(child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    self.locals.add(
                        alias.asname or alias.name.split(".")[0]
                    )
        self.locals -= self.global_names

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs are separate FunctionInfos with their own visitor;
        # defining one links it into the parent's cone (it is almost
        # certainly called or shipped from here).
        qualname = self._nested_qualname(node.name)
        if qualname is not None:
            self.fn.callees.add(qualname)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _nested_qualname(self, name: str) -> str | None:
        qualname = f"{self.fn.qualname}.{name}"
        return qualname if qualname in self.graph.functions else None

    def _effect(self, kind: str, detail: str, node: ast.AST) -> None:
        self.fn.effects.add(
            Effect(
                kind=kind,
                detail=detail,
                path=self.fn.relpath,
                line=getattr(node, "lineno", self.fn.lineno),
            )
        )

    def _edge(self, qualname: str) -> None:
        self.fn.callees.add(qualname)

    def _class_edges(self, class_qual: str, node: ast.AST) -> None:
        methods = self.graph.classes.get(class_qual, {})
        for ctor in ("__init__", "__post_init__"):
            if ctor in methods:
                self._edge(methods[ctor])

    def _method_edge(self, class_qual: str, attr: str) -> bool:
        methods = self.graph.classes.get(class_qual, {})
        if attr in methods:
            self._edge(methods[attr])
            return True
        return False

    # -- resolution ----------------------------------------------------

    def _resolve_local(self, name: str | None) -> str | None:
        """Canonical origin, with nested defs shadowing module names."""
        if name is None:
            return None
        head, _, rest = name.partition(".")
        nested = self._nested_qualname(head)
        if nested is not None and not rest:
            return nested
        if head in self.locals:
            return None
        return self.graph.canonicalize(self.module.names.resolve(name))

    def visit_Call(self, node: ast.Call) -> None:
        has_args = bool(node.args or node.keywords)
        canonical = self._resolve_local(dotted_name(node.func))
        resolved = False
        if canonical is not None:
            if canonical in self.graph.functions:
                self._edge(canonical)
                resolved = True
            elif canonical in self.graph.classes:
                self._class_edges(canonical, node)
                resolved = True
            else:
                effect = call_effect(canonical, has_args)
                if effect is not None:
                    self._effect(*effect, node)
                    resolved = True
                elif "." not in canonical or not canonical.startswith(
                    tuple(self.graph.modules)
                ):
                    # A fully external call (json.loads, np.array, ...):
                    # carries no tracked effect.
                    resolved = True
        if not resolved and isinstance(node.func, ast.Attribute):
            self._attribute_call(node)
        if canonical in self.graph.entrypoints or (
            canonical is not None
            and canonical in self.graph.functions
            and self.graph.functions[canonical].display
            in self.graph.entrypoints
        ):
            self._ship_site(node, canonical)
        self._argument_references(node)
        self.generic_visit(node)

    def _attribute_call(self, node: ast.Call) -> None:
        attr = node.func.attr
        receiver = node.func.value
        class_qual: str | None = None
        if isinstance(receiver, ast.Call):
            inner = self._resolve_local(dotted_name(receiver.func))
            if inner in self.graph.classes:
                class_qual = inner
        elif isinstance(receiver, ast.Name):
            if receiver.id == "self" and self.fn.cls is not None:
                class_qual = self.fn.cls
            elif receiver.id in self.local_types:
                class_qual = self.local_types[receiver.id]
            elif (
                receiver.id not in self.locals
                and receiver.id in self.module.mutable_globals
                and attr in MUTATING_METHODS
            ):
                self._effect(
                    "global-write",
                    f"{self.module.name}.{receiver.id}",
                    node,
                )
        elif (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and self.fn.cls is not None
        ):
            class_qual = self.graph.attr_types.get(self.fn.cls, {}).get(
                receiver.attr
            )
        if class_qual is not None and self._method_edge(class_qual, attr):
            return
        if attr in COMMON_METHODS:
            return  # assume dict/list/str/file — see COMMON_METHODS
        candidates = self.graph.methods_by_name.get(attr, [])
        if candidates:
            for qualname in candidates:
                self._edge(qualname)
            return
        if attr in FILESYSTEM_METHODS:
            self._effect("filesystem", f".{attr}", node)

    def _ship_site(self, node: ast.Call, entrypoint: str) -> None:
        arg = node.args[0] if node.args else None
        if arg is None:
            for keyword in node.keywords:
                if keyword.arg == "fn":
                    arg = keyword.value
                    break
        self.graph.ship_sites.append(
            self._resolve_shipped(node, entrypoint, arg)
        )

    def _resolve_shipped(
        self, node: ast.Call, entrypoint: str, arg
    ) -> ShipSite:
        site = ShipSite(
            caller=self.fn.qualname,
            relpath=self.fn.relpath,
            line=node.lineno,
            entrypoint=entrypoint,
            target=None,
            problem=None,
        )
        while (
            isinstance(arg, ast.Call)
            and self._resolve_local(dotted_name(arg.func))
            in ("functools.partial", "functools.partialmethod")
            and arg.args
        ):
            arg = arg.args[0]
        if isinstance(arg, ast.Lambda):
            site.problem = "lambda"
            return site
        if arg is None:
            site.problem = "missing"
            return site
        target = self._resolve_local(dotted_name(arg))
        if target in self.graph.functions:
            site.target = target
        return site

    def _argument_references(self, node: ast.Call) -> None:
        """A project function passed as an argument joins the cone."""
        values = list(node.args) + [kw.value for kw in node.keywords]
        for value in values:
            if isinstance(value, (ast.Name, ast.Attribute)):
                target = self._resolve_local(dotted_name(value))
                if target is not None and target in self.graph.functions:
                    self._edge(target)

    # -- reads/writes of module globals --------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            if (
                node.id not in self.locals
                and node.id in self.module.mutable_globals
            ):
                self._effect(
                    "global-read", f"{self.module.name}.{node.id}", node
                )
        elif isinstance(node.ctx, (ast.Store, ast.Del)):
            if node.id in self.global_names:
                self._effect(
                    "global-write", f"{self.module.name}.{node.id}", node
                )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        resolved = self._resolve_local(dotted_name(node))
        if resolved is not None:
            effect = attribute_read_effect(resolved)
            if effect is not None:
                self._effect(*effect, node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._track_assignment(node.targets, node.value)
        self._check_subscript_writes(node.targets, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_subscript_writes([node.target], node)
        if (
            isinstance(node.target, ast.Name)
            and node.target.id in self.global_names
        ):
            self._effect(
                "global-write",
                f"{self.module.name}.{node.target.id}",
                node,
            )
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_subscript_writes(node.targets, node)
        self.generic_visit(node)

    def _track_assignment(self, targets, value) -> None:
        if not isinstance(value, ast.Call):
            return
        inner = self._resolve_local(dotted_name(value.func))
        if inner not in self.graph.classes:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self.local_types[target.id] = inner

    def _check_subscript_writes(self, targets, node) -> None:
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id not in self.locals
                and target.value.id in self.module.mutable_globals
            ):
                self._effect(
                    "global-write",
                    f"{self.module.name}.{target.value.id}",
                    node,
                )
