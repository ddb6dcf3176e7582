"""The currency of the linter: one :class:`Finding` per rule violation.

A finding pins a rule violation to a file and line so it can be printed,
serialized and sorted deterministically.  Everything downstream of the
rules (reporters, exit-code logic) traffics only in findings — rules
never print.  Every finding fails the lint.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one location.

    Attributes:
        path: path relative to the project root, POSIX separators (the
            key requirement for machine-stable JSON output across hosts).
        line: 1-based line number; 0 for whole-file/project findings.
        rule_id: stable identifier, e.g. ``"MEG003"``.
        message: human-readable, single-line description.
    """

    path: str
    line: int
    rule_id: str
    message: str

    @property
    def key(self) -> str:
        """The line-free identity ``rule_id:path:message``.

        Excludes the line number so that unrelated edits which shift a
        finding do not change the report digest built from these keys.
        """
        return f"{self.rule_id}:{self.path}:{self.message}"

    def to_dict(self) -> dict:
        """JSON-stable representation (used by the JSON reporter)."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule_id,
            "message": self.message,
        }

    def render(self) -> str:
        """The text-reporter line: ``path:line: MEGnnn message``."""
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"
