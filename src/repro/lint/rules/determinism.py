"""Determinism rules: seeded randomness (MEG001), no wall-clock (MEG002).

The paper's accuracy claims — and every run-manifest fingerprint — rest
on bit-reproducible pipelines: clustering must flow all randomness
through explicitly seeded generators, and simulation results must never
depend on when they ran.  These rules make both invariants mechanical.

Name resolution goes through the flow analyzer's
:class:`~repro.lint.flow.names.ModuleNames` (not the simpler
``ImportTable``), so aliasing evasions — ``from time import time as
_t``, ``import numpy.random as nr``, relative imports, and module-level
assignment aliases like ``_t = time.time`` — all resolve back to their
canonical names before matching.  The banned-name sets themselves live
in :mod:`repro.lint.flow.effects`, shared with the interprocedural
rules (MEG010+) so the two layers can never disagree about what counts
as a wall-clock read or an unseeded RNG draw.
"""

from __future__ import annotations

import ast

from repro.lint.config import (
    DETERMINISM_PATHS,
    PACKAGE_ROOT,
    WALLCLOCK_ALLOWED,
)
from repro.lint.flow.effects import WALL_CLOCK, SEEDABLE_NUMPY
from repro.lint.flow.names import ModuleNames, module_name
from repro.lint.project import Project, SourceFile
from repro.lint.rules.base import (
    FileVisitorRule,
    FindingCollector,
    dotted_name,
)


class _ResolvingVisitor(FindingCollector):
    """A finding collector with canonical (flow-grade) name resolution."""

    def __init__(self, rule, project: Project, source: SourceFile) -> None:
        super().__init__(rule, source)
        self.names = ModuleNames(
            source.tree,
            module_name(source.relpath, PACKAGE_ROOT),
            is_package=source.relpath.endswith("__init__.py"),
        )


class _RandomVisitor(_ResolvingVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.names.resolve(dotted_name(node.func))
        if resolved is not None:
            self._check_stdlib(node, resolved)
            self._check_numpy(node, resolved)
        self.generic_visit(node)

    def _check_stdlib(self, node: ast.Call, resolved: str) -> None:
        if resolved == "random" or not resolved.startswith("random."):
            return
        attr = resolved.split(".", 1)[1]
        if attr == "Random" and (node.args or node.keywords):
            return  # explicit random.Random(seed) instance: the sanctioned path
        self.report(
            node,
            f"call to {resolved}() draws from the shared global RNG; "
            "thread an explicit random.Random(seed) instance instead",
        )

    def _check_numpy(self, node: ast.Call, resolved: str) -> None:
        if not resolved.startswith("numpy.random."):
            return
        attr = resolved.rsplit(".", 1)[1]
        if attr in SEEDABLE_NUMPY:
            if node.args or node.keywords:
                return
            self.report(
                node,
                f"{resolved}() without a seed is entropy-seeded; "
                "pass an explicit seed",
            )
            return
        self.report(
            node,
            f"call to {resolved}() uses numpy's global RNG state; "
            "use np.random.default_rng(seed) and call methods on it",
        )


class UnseededRandomRule(FileVisitorRule):
    """MEG001: all randomness must flow through explicitly seeded RNGs."""

    rule_id = "MEG001"
    name = "unseeded-random"
    summary = (
        "no global-state or entropy-seeded RNG use in deterministic "
        "pipeline packages"
    )

    def applies_to(self, project: Project, source: SourceFile) -> bool:
        return source.in_subtree(DETERMINISM_PATHS)

    def visitor(self, project: Project, source: SourceFile) -> FindingCollector:
        return _RandomVisitor(self, project, source)


class _WallClockVisitor(_ResolvingVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.names.resolve(dotted_name(node.func))
        if resolved in WALL_CLOCK:
            self.report(
                node,
                f"wall-clock read {resolved}() outside repro.obs; timing "
                "belongs to the observability layer (repro.obs.span / "
                "repro.obs.wall_clock)",
            )
        self.generic_visit(node)


class WallClockRule(FileVisitorRule):
    """MEG002: wall-clock reads are confined to the observability layer."""

    rule_id = "MEG002"
    name = "wall-clock"
    summary = "time.*/datetime.now reads forbidden outside repro.obs"

    def applies_to(self, project: Project, source: SourceFile) -> bool:
        return not source.in_subtree(WALLCLOCK_ALLOWED)

    def visitor(self, project: Project, source: SourceFile) -> FindingCollector:
        return _WallClockVisitor(self, project, source)
