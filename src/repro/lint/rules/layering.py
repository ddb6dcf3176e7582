"""MEG003: the package layering DAG.

Components of ``repro`` are assigned integer levels
(:data:`repro.lint.config.DEFAULT_LAYERS`); an import may point at the
same or a lower level, never a higher one.  Because ``errors``/``version``/``obs`` sit at the bottom,
"importable from everywhere" falls out of the same mechanism that bans
``analysis`` -> ``cli`` back-edges.  Imports inside function bodies count
too: a lazy import is a load-order workaround, not an architectural
exemption.  On top of the per-import level check, the rule walks the
component import graph and reports any cycle it finds.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import PACKAGE_ROOT
from repro.lint.findings import Finding
from repro.lint.project import Project, SourceFile

PACKAGE = "repro"


def component_of(source: SourceFile) -> str | None:
    """The layering component a file belongs to, or ``None`` if outside.

    ``src/repro/core/kmeans.py`` -> ``core``; top-level modules map to
    their stem (``src/repro/cli.py`` -> ``cli``, ``src/repro/__init__.py``
    -> ``__init__``).
    """
    prefix = PACKAGE_ROOT + "/"
    if not source.relpath.startswith(prefix):
        return None
    remainder = source.relpath[len(prefix):]
    first, _, rest = remainder.partition("/")
    return first if rest else first.removesuffix(".py")


def _module_of(source: SourceFile) -> str:
    """Dotted module path of a file (``repro.core.kmeans``)."""
    remainder = source.relpath[len(PACKAGE_ROOT) + 1:].removesuffix(".py")
    parts = [part for part in remainder.split("/") if part != "__init__"]
    return ".".join([PACKAGE, *parts]) if parts else PACKAGE


def _target_component(module: str) -> str:
    """Component an imported dotted module belongs to."""
    if module == PACKAGE:
        return "__init__"
    return module.split(".")[1]


class ImportLayeringRule:
    """MEG003: imports must respect the configured layer order."""

    rule_id = "MEG003"
    name = "import-layering"
    summary = (
        "intra-package imports must follow the scene -> gpu -> core -> "
        "parallel/analysis -> cli layer DAG (no back-edges, no cycles)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        layers = project.config.layers
        edges: dict[tuple[str, str], tuple[str, int]] = {}

        for source in project.files:
            if source.tree is None:
                continue
            component = component_of(source)
            if component is None:
                continue
            if component not in layers:
                yield Finding(
                    path=source.relpath, line=0, rule_id=self.rule_id,
                    message=(
                        f"component {component!r} has no level in "
                        "repro.lint.config.DEFAULT_LAYERS; assign one"
                    ),
                )
                continue
            for module, line in self._imports(source):
                target = _target_component(module)
                if target == component:
                    continue
                edges.setdefault((component, target), (source.relpath, line))
                if target not in layers:
                    yield Finding(
                        path=source.relpath, line=line, rule_id=self.rule_id,
                        message=(
                            f"import of {module} targets component "
                            f"{target!r} which has no layer level"
                        ),
                    )
                elif layers[component] < layers[target]:
                    yield Finding(
                        path=source.relpath, line=line, rule_id=self.rule_id,
                        message=(
                            f"back-edge: {component} (level "
                            f"{layers[component]}) imports {module} "
                            f"({target}, level {layers[target]})"
                        ),
                    )

        yield from self._cycles(edges)

    def _imports(self, source: SourceFile) -> Iterator[tuple[str, int]]:
        """Every ``repro.*`` module imported anywhere in the file."""
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == PACKAGE or alias.name.startswith(
                        PACKAGE + "."
                    ):
                        yield alias.name, node.lineno
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    base = _module_of(source).split(".")
                    base = base[: len(base) - node.level + 1]
                    module = ".".join(base + ([module] if module else []))
                if module == PACKAGE or module.startswith(PACKAGE + "."):
                    yield module, node.lineno

    def _cycles(
        self, edges: dict[tuple[str, str], tuple[str, int]]
    ) -> Iterator[Finding]:
        """Report each import cycle in the component graph once."""
        graph: dict[str, set[str]] = {}
        for importer, imported in edges:
            graph.setdefault(importer, set()).add(imported)
            graph.setdefault(imported, set())

        reported: set[frozenset[str]] = set()
        state: dict[str, int] = {}  # 1 = on stack, 2 = done
        stack: list[str] = []

        def visit(node: str) -> Iterator[Finding]:
            state[node] = 1
            stack.append(node)
            for neighbour in sorted(graph.get(node, ())):
                if state.get(neighbour) == 1:
                    cycle = stack[stack.index(neighbour):] + [neighbour]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        path, line = edges[(node, neighbour)]
                        yield Finding(
                            path=path, line=line, rule_id=self.rule_id,
                            message="import cycle: " + " -> ".join(cycle),
                        )
                elif neighbour not in state:
                    yield from visit(neighbour)
            stack.pop()
            state[node] = 2

        for start in sorted(graph):
            if start not in state:
                yield from visit(start)
