"""Rule protocol and shared visitor machinery.

A rule is any object with ``rule_id``, ``name``, ``summary`` and a
``check(project)`` generator of findings.  Most rules are per-file AST
walks; :class:`FileVisitorRule` factors that shape out so a concrete
rule only supplies an ``ast.NodeVisitor`` (and, optionally, a predicate
restricting which files it applies to).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.lint.findings import Finding
from repro.lint.flow.names import dotted_name
from repro.lint.project import Project, SourceFile

__all__ = [
    "FileVisitorRule",
    "FindingCollector",
    "ImportTable",
    "Rule",
    "dotted_name",
]


@runtime_checkable
class Rule(Protocol):
    """What the engine requires of every rule."""

    rule_id: str
    name: str
    summary: str

    def check(self, project: Project) -> Iterable[Finding]:
        """Yield every violation found in ``project``."""
        ...


class FindingCollector(ast.NodeVisitor):
    """An ``ast.NodeVisitor`` that accumulates findings for one file."""

    def __init__(self, rule: "FileVisitorRule", source: SourceFile) -> None:
        self.rule = rule
        self.source = source
        self.findings: list[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        """File a finding at ``node``'s location."""
        self.findings.append(
            Finding(
                path=self.source.relpath,
                line=getattr(node, "lineno", 0),
                rule_id=self.rule.rule_id,
                message=message,
            )
        )


class FileVisitorRule:
    """Base class for rules that walk one file's AST at a time."""

    rule_id = "MEG000"
    name = "base"
    summary = "abstract base rule"

    def applies_to(self, project: Project, source: SourceFile) -> bool:
        """Whether this rule scans ``source`` (default: every file)."""
        return True

    def visitor(self, project: Project, source: SourceFile) -> FindingCollector:
        """Build the per-file visitor; subclasses must override."""
        raise NotImplementedError

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project.files:
            if source.tree is None or not self.applies_to(project, source):
                continue
            collector = self.visitor(project, source)
            collector.visit(source.tree)
            yield from collector.findings


class ImportTable:
    """Local name -> canonical dotted origin, for alias-aware matching.

    Built from a module's import statements: ``import numpy as np`` maps
    ``np`` to ``numpy``; ``from time import perf_counter as pc`` maps
    ``pc`` to ``time.perf_counter``.  :meth:`resolve` then canonicalizes
    a call-site dotted name (``np.random.rand`` -> ``numpy.random.rand``)
    so rules can match against module-truth names whatever the file
    imported them as.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[local] = origin
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, name: str | None) -> str | None:
        """Canonical dotted name for a local dotted name, if imported."""
        if name is None:
            return None
        head, _, rest = name.partition(".")
        origin = self.aliases.get(head)
        if origin is None:
            return None
        return f"{origin}.{rest}" if rest else origin
