"""``megsim bench`` end to end: artifacts, gating exit codes, --jobs."""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import run_experiment
from repro.bench import load_artifact, run_suite
from repro.cli import main
from repro.errors import BenchError


def _deterministic(artifact: dict) -> str:
    return json.dumps(
        {
            "benchmarks": {
                name: section["results"]
                for name, section in artifact["benchmarks"].items()
            },
            "metrics": artifact["metrics"],
            "fingerprint": artifact["manifest"]["fingerprint"],
        },
        sort_keys=True,
    )


class TestList:
    def test_lists_registry(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "smoke" in out


class TestRun:
    def test_writes_schema_versioned_artifact(self, tiny_registry, tmp_path):
        out = tmp_path / "BENCH_smoke.json"
        assert main(["bench", "--suite", "smoke", "--out", str(out)]) == 0
        artifact = load_artifact(out)
        assert artifact["schema"] == "megsim-bench"
        assert set(artifact["benchmarks"]) == {"tiny1", "tiny2"}

    def test_jobs_env_gives_byte_identical_results(
        self, tiny_registry, tmp_path, monkeypatch
    ):
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        monkeypatch.setenv("MEGSIM_JOBS", "1")
        assert main(["bench", "--out", str(serial)]) == 0
        monkeypatch.setenv("MEGSIM_JOBS", "auto")
        assert main(["bench", "--out", str(pooled)]) == 0
        first = _deterministic(load_artifact(serial))
        second = _deterministic(load_artifact(pooled))
        assert first == second

    def test_metrics_export_flag(self, tiny_registry, tmp_path):
        out = tmp_path / "a.json"
        metrics = tmp_path / "metrics.prom"
        assert main([
            "bench", "--out", str(out), "--metrics", str(metrics),
        ]) == 0
        assert "# TYPE " in metrics.read_text()


class TestReports:
    def test_one_report_per_selected_spec(self, tiny_registry, tmp_path):
        reports = tmp_path / "reports"
        assert main([
            "bench", "--out", str(tmp_path / "a.json"),
            "--reports", str(reports),
        ]) == 0
        # Both tiny specs wrap table1; each file is its report verbatim.
        expected = run_experiment("table1").report + "\n"
        assert sorted(path.name for path in reports.iterdir()) == [
            "tiny1.txt", "tiny2.txt",
        ]
        for path in reports.iterdir():
            assert path.read_text() == expected

    def test_only_selected_specs_are_written(self, tiny_registry, tmp_path):
        run_suite("smoke", names=["tiny2"], reports=tmp_path)
        assert [path.name for path in tmp_path.iterdir()] == ["tiny2.txt"]

    def test_no_reports_without_the_flag(self, tiny_registry, tmp_path,
                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--out", "a.json"]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.json"]


class TestFailedClaims:
    def test_raises_after_writing_everything(self, failing_registry,
                                             tmp_path):
        out = tmp_path / "a.json"
        reports = tmp_path / "reports"
        with pytest.raises(BenchError, match="2 benchmark"):
            main(["bench", "--out", str(out), "--reports", str(reports),
                  "--jobs", "2"])
        artifact = load_artifact(out)
        assert set(artifact["benchmarks"]) == {"ok", "broken"}
        assert set(artifact["failures"]) == {"broken", "raises"}
        assert sorted(path.name for path in reports.iterdir()) == [
            "broken.txt", "ok.txt",
        ]


class TestCompareGate:
    def _doctor(self, artifact: dict, factor: float) -> dict:
        doctored = json.loads(json.dumps(artifact))
        for section in doctored["benchmarks"].values():
            section["timing"]["wall_seconds"] *= factor
        doctored["total_wall_seconds"] *= factor
        return doctored

    def test_slower_baseline_exits_zero(self, tiny_registry, tmp_path):
        out = tmp_path / "a.json"
        assert main(["bench", "--out", str(out)]) == 0
        baseline = tmp_path / "slow.json"
        baseline.write_text(
            json.dumps(self._doctor(load_artifact(out), 100.0))
        )
        assert main([
            "bench", "--out", str(tmp_path / "b.json"),
            "--compare", str(baseline), "--threshold", "1.15",
        ]) == 0

    def test_faster_baseline_exits_nonzero(self, tiny_registry, tmp_path):
        out = tmp_path / "a.json"
        assert main(["bench", "--out", str(out)]) == 0
        baseline = tmp_path / "fast.json"
        baseline.write_text(
            json.dumps(self._doctor(load_artifact(out), 1.0 / 100.0))
        )
        assert main([
            "bench", "--out", str(tmp_path / "b.json"),
            "--compare", str(baseline), "--threshold", "1.15",
        ]) == 1
