"""Finding reporters: human text and machine-stable JSON.

The JSON document is the CI contract: findings are sorted
(path, line, rule, message), paths are root-relative POSIX, and the
schema is versioned — two lint runs over identical trees produce
byte-identical output, so CI can diff lint output across commits.
"""

from __future__ import annotations

import hashlib
import json

from repro.lint.findings import Finding

#: Bumped whenever a field is added/renamed/removed.
#: v2 added ``summary.rule_counts`` and ``summary.findings_sha256``;
#: v3 dropped ``severity``, ``summary.warnings``, ``summary.baselined``
#: and ``summary.stale_baseline_keys``.
JSON_SCHEMA_VERSION = 3


def sorted_findings(findings: list[Finding]) -> list[Finding]:
    """The canonical reporting order (Finding is an ordered dataclass)."""
    return sorted(findings)


def render_text(findings: list[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    if not findings:
        return "megsim lint: clean"
    lines = [finding.render() for finding in sorted_findings(findings)]
    lines.append(f"megsim lint: {len(findings)} error(s)")
    return "\n".join(lines)


def findings_digest(findings: list[Finding]) -> str:
    """sha256 over the sorted :attr:`Finding.key` of every finding.

    Two lint runs reporting the same findings — regardless of line
    shifts, since keys exclude lines — share a digest, so CI logs can
    diff lint state across commits by comparing one string.
    """
    keys = sorted(f.key for f in findings)
    return hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()


def rule_counts(findings: list[Finding]) -> dict[str, int]:
    """Findings per rule id, sorted by rule id."""
    counts: dict[str, int] = {}
    for finding in sorted_findings(findings):
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    return dict(sorted(counts.items()))


def render_json(findings: list[Finding]) -> str:
    """Machine-stable JSON report (sorted, versioned, newline-terminated)."""
    document = {
        "schema_version": JSON_SCHEMA_VERSION,
        "findings": [f.to_dict() for f in sorted_findings(findings)],
        "summary": {
            "errors": len(findings),
            "rule_counts": rule_counts(findings),
            "findings_sha256": findings_digest(findings),
        },
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
