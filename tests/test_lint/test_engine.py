"""Engine behaviour: rule selection, parse errors, config, exit codes —
plus the acceptance criterion that the repository at HEAD lints clean.
"""

from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.lint import ALL_RULES, LintConfig, Rule, select_rules
from repro.lint.config import PACKAGE_ROOT
from repro.lint.engine import PARSE_RULE_ID, main
from tests.test_lint.conftest import REPO_ROOT, rule_ids, write_tree

EXPECTED_RULE_IDS = [f"MEG00{n}" for n in range(1, 10)] + [
    f"MEG01{n}" for n in range(3)
]

#: A tiny project with one MEG006 violation, for the CLI plumbing tests.
VIOLATION = {"src/repro/core/x.py": "def f(x=[]):\n    return x\n"}

#: A tiny project with a function the ``--effects`` tests can dump.
EFFECTS_TREE = {
    "src/repro/core/m.py": """\
        import os

        def leaf():
            return os.getenv("MEGSIM_X")

        def root():
            return leaf()
    """,
}


class TestRepositoryIsClean:
    def test_head_lints_clean(self, head_result):
        """`megsim lint` exits 0 on the repo at HEAD."""
        assert head_result.findings == [], "\n".join(
            finding.render() for finding in head_result.findings
        )
        assert head_result.exit_code() == 0

    def test_every_component_has_a_layer(self):
        # The layer map is code; a new top-level module or package under
        # src/repro must get a level here, not surface as MEG003 noise.
        package = REPO_ROOT / PACKAGE_ROOT
        components = {
            path.stem if path.is_file() else path.name
            for path in package.iterdir()
            if (path.is_file() and path.suffix == ".py")
            or (path / "__init__.py").is_file()
        }
        layers = LintConfig(root=REPO_ROOT).layers
        assert sorted(components - set(layers)) == []


class TestRegistry:
    def test_every_rule_shipped_and_ordered(self):
        assert [rule.rule_id for rule in ALL_RULES] == EXPECTED_RULE_IDS

    def test_rules_satisfy_the_protocol(self):
        for rule in ALL_RULES:
            assert isinstance(rule, Rule)
            assert rule.name and rule.summary

    def test_select_unknown_id_raises(self):
        with pytest.raises(ConfigError):
            select_rules(select=("MEG999",))


class TestEngineMechanics:
    def test_syntax_error_becomes_meg000(self, lint_fixture):
        result = lint_fixture(
            {"src/repro/core/broken.py": "def broken(:\n"},
            select=("MEG006",),
        )
        assert rule_ids(result) == [PARSE_RULE_ID]

    def test_findings_are_sorted(self, lint_fixture):
        result = lint_fixture(
            {
                "src/repro/core/b.py": "def f(x=[]):\n    return x\n",
                "src/repro/core/a.py": "def g(y={}):\n    return y\n",
            },
            select=("MEG006",),
        )
        paths = [finding.path for finding in result.findings]
        assert paths == sorted(paths)


class TestConfigLoading:
    def test_defaults_without_pyproject(self, tmp_path):
        config = LintConfig(root=str(tmp_path))
        assert config.root == Path(tmp_path).resolve()
        assert config.layers["errors"] == 0
        assert config.layers["service"] == config.layers["cli"]
        assert len(config.public_modules) == 10


class TestCommandLine:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/core/x.py": "value = 1\n"})
        code = main(["--root", str(tmp_path), "--select", "MEG006"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        write_tree(tmp_path, VIOLATION)
        code = main(["--root", str(tmp_path), "--select", "MEG006"])
        assert code == 1
        assert "MEG006" in capsys.readouterr().out

    def test_config_error_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/core/x.py": "value = 1\n"})
        assert main(["--root", str(tmp_path), "--select", "MEG999"]) == 2
        assert "unknown lint rule id" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in EXPECTED_RULE_IDS:
            assert rule_id in out

    def test_repo_via_module_main(self, tmp_path, capsys, monkeypatch):
        # `python -m repro.lint` (the package's __main__): every rule,
        # JSON report, on a project whose violations include MEG006.
        write_tree(tmp_path, VIOLATION)
        monkeypatch.setattr(sys, "argv", [
            "repro.lint", "--root", str(tmp_path), "--format", "json",
        ])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("repro.lint", run_name="__main__")
        assert exit_info.value.code == 1
        document = json.loads(capsys.readouterr().out)
        assert "MEG006" in {f["rule"] for f in document["findings"]}


class TestEffectsFlag:
    def test_dumps_deterministic_summary_json(self, tmp_path, capsys):
        write_tree(tmp_path, EFFECTS_TREE)
        spec = "repro.core.m:root"
        assert main(["--root", str(tmp_path), "--effects", spec]) == 0
        first = capsys.readouterr().out
        document = json.loads(first)
        assert document["function"] == spec
        assert [item["kind"] for item in document["ambient"]] == ["env"]
        assert document["ambient"][0]["via"] == (
            "repro.core.m:root -> repro.core.m:leaf"
        )
        assert main(["--root", str(tmp_path), "--effects", spec]) == 0
        assert capsys.readouterr().out == first

    def test_unknown_spec_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, EFFECTS_TREE)
        code = main(
            ["--root", str(tmp_path), "--effects", "repro.nope:missing"]
        )
        assert code == 2
        assert "no function matches" in capsys.readouterr().err
