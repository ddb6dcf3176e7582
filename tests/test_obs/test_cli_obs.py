"""CLI observability: --profile, --trace, MEGSIM_TRACE."""

from __future__ import annotations

import json

import pytest

import repro.cli as cli
from repro.obs import get_collector


def read_events(path):
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream]


class TestProfileFlag:
    def test_profile_prints_report(self, capsys):
        assert cli.main(["run", "table1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "== observability report ==" in out
        assert "cli.run" in out
        assert "experiment" in out
        # The experiment output itself still appears.
        assert "600 MHz" in out

    def test_collector_uninstalled_after_run(self, capsys):
        cli.main(["run", "table1", "--profile"])
        assert get_collector() is None

    def test_no_flags_no_report(self, capsys):
        assert cli.main(["run", "table1"]) == 0
        assert "observability report" not in capsys.readouterr().out


class TestTraceFlag:
    def test_trace_writes_valid_jsonl_and_manifest(self, capsys, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        assert cli.main([
            "run", "table1", "--trace", str(trace_file),
        ]) == 0
        events = read_events(trace_file)  # every line must parse
        types = {event["type"] for event in events}
        assert {"span_start", "span_end", "manifest"} <= types
        assert any(
            e["type"] == "span_start" and e["name"] == "cli.run"
            for e in events
        )
        manifest_file = tmp_path / "run.manifest.json"
        assert manifest_file.exists()
        manifest = json.loads(manifest_file.read_text())
        assert manifest["experiment"] == "table1"
        assert manifest["phases"]

    def test_explicit_manifest_path(self, capsys, tmp_path):
        manifest_file = tmp_path / "m.json"
        assert cli.main([
            "run", "table1", "--manifest", str(manifest_file),
        ]) == 0
        manifest = json.loads(manifest_file.read_text())
        assert manifest["command"][:2] == ["run", "table1"]

    def test_megsim_trace_env_var(self, capsys, tmp_path, monkeypatch):
        trace_file = tmp_path / "env.jsonl"
        monkeypatch.setenv("MEGSIM_TRACE", str(trace_file))
        assert cli.main(["run", "table1"]) == 0
        assert trace_file.exists()
        assert read_events(trace_file)

    def test_plan_command_traces_pipeline_spans(self, capsys, tmp_path):
        # --no-store: a cold store, so the plan is computed, not a hit.
        trace_file = tmp_path / "plan.jsonl"
        assert cli.main([
            "plan", "hcr", "--scale", "0.02", "--no-store",
            "--trace", str(trace_file),
        ]) == 0
        names = {
            e["name"] for e in read_events(trace_file)
            if e["type"] == "span_start"
        }
        assert {"cli.plan", "pipeline.plan", "pipeline.profile",
                "pipeline.trace", "functional.profile", "megsim.plan",
                "cluster.search"} <= names

