"""The rule registry: one instance of every shipped rule.

Adding a rule = write the class (see ``docs/linting.md``), instantiate
it here.  The engine, the CLI ``--select`` filter and the
docs all key off :data:`ALL_RULES`.
"""

from __future__ import annotations

from repro.lint.flow.rules import (
    CachePurityRule,
    DeclaredAmbientRule,
    WorkerBoundaryRule,
)
from repro.lint.rules.base import FileVisitorRule, Rule
from repro.lint.rules.defaults import MutableDefaultRule
from repro.lint.rules.determinism import UnseededRandomRule, WallClockRule
from repro.lint.rules.docs import CliDocSyncRule, DocCoverageRule
from repro.lint.rules.exceptions import BareExceptRule, ForeignRaiseRule
from repro.lint.rules.exports import DunderAllRule
from repro.lint.rules.layering import ImportLayeringRule

#: Every shipped rule, in rule-id order.
ALL_RULES: tuple[Rule, ...] = (
    UnseededRandomRule(),
    WallClockRule(),
    ImportLayeringRule(),
    BareExceptRule(),
    ForeignRaiseRule(),
    MutableDefaultRule(),
    DocCoverageRule(),
    CliDocSyncRule(),
    DunderAllRule(),
    CachePurityRule(),
    DeclaredAmbientRule(),
    WorkerBoundaryRule(),
)

__all__ = ["ALL_RULES", "Rule", "FileVisitorRule"]
