"""`megsim lint` wired through the main CLI (`repro.cli`)."""

from __future__ import annotations

import json

from repro.cli import main
from tests.test_lint.conftest import write_tree

CLEAN = {"src/repro/core/x.py": "value = 1\n"}


class TestMegsimLint:
    def test_repo_is_clean_via_cli(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN)
        assert main(
            ["lint", "--root", str(tmp_path), "--select", "MEG006"]
        ) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format_through_cli(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN)
        assert main(
            ["lint", "--root", str(tmp_path), "--select", "MEG006",
             "--format", "json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["findings"] == []

    def test_select_passthrough(self, tmp_path, capsys):
        write_tree(
            tmp_path,
            {"src/repro/core/x.py": "def f(x=[]):\n    return x\n"},
        )
        assert main(
            ["lint", "--root", str(tmp_path), "--select", "MEG006"]
        ) == 1
        assert "MEG006" in capsys.readouterr().out

    def test_list_rules_through_cli(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "MEG001" in capsys.readouterr().out

    def test_effects_passthrough(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "src/repro/pipeline/stages.py": """\
                def _compute_trace(request, artifacts):
                    return request.scale
            """,
        })
        assert main([
            "lint", "--root", str(tmp_path),
            "--effects", "repro.pipeline.stages:_compute_trace",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["function"] == (
            "repro.pipeline.stages:_compute_trace"
        )
