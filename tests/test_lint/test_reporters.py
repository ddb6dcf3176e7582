"""Reporter contracts: machine-stable JSON, schema round-trip, text."""

from __future__ import annotations

import hashlib
import json

from repro.lint import Finding, render_json, render_text
from repro.lint.engine import lint_project
from repro.lint.reporters import JSON_SCHEMA_VERSION

SAMPLE = [
    Finding(path="src/b.py", line=9, rule_id="MEG002", message="later file"),
    Finding(path="src/a.py", line=3, rule_id="MEG006", message="earlier file"),
    Finding(path="src/a.py", line=1, rule_id="MEG001", message="first"),
]


class TestJsonStability:
    def test_round_trip(self):
        document = json.loads(render_json(SAMPLE))
        assert document["schema_version"] == JSON_SCHEMA_VERSION == 3
        assert [f["path"] for f in document["findings"]] == [
            "src/a.py", "src/a.py", "src/b.py"
        ]
        assert document["findings"][0] == {
            "path": "src/a.py",
            "line": 1,
            "rule": "MEG001",
            "message": "first",
        }
        expected_digest = hashlib.sha256(
            "\n".join(sorted(f.key for f in SAMPLE)).encode("utf-8")
        ).hexdigest()
        assert document["summary"] == {
            "errors": 3,
            "rule_counts": {"MEG001": 1, "MEG002": 1, "MEG006": 1},
            "findings_sha256": expected_digest,
        }

    def test_output_is_deterministic_across_input_order(self):
        assert render_json(SAMPLE) == render_json(list(reversed(SAMPLE)))

    def test_repo_lint_json_is_byte_stable(
        self, head_result, fresh_head_project
    ):
        """Two runs over the same tree -> identical bytes (CI diffing).

        The session's shared HEAD run against one fresh whole-repo run.
        """
        first = render_json(head_result.findings)
        second = render_json(lint_project(fresh_head_project).findings)
        assert first == second
        document = json.loads(first)
        assert document["findings"] == []
        assert document["schema_version"] == JSON_SCHEMA_VERSION

    def test_ends_with_single_newline(self):
        assert render_json([]).endswith("}\n")


class TestTextReporter:
    def test_clean_message(self):
        assert render_text([]) == "megsim lint: clean"

    def test_findings_render_with_location(self):
        text = render_text(SAMPLE)
        assert "src/a.py:1: MEG001 first" in text
        assert text.endswith("megsim lint: 3 error(s)")
