"""The suite runner: artifact shape, determinism, worker fan-out."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    BenchOutcome,
    BenchSpec,
    harness,
    raise_for_failures,
    registry,
    render_bench_report,
    run_suite,
    write_artifact,
)
from repro.errors import BenchError, ConfigError
from repro.obs import collecting
from repro.parallel import ParallelConfig


def _deterministic(artifact: dict) -> str:
    """The byte-compared portion of an artifact, as canonical JSON."""
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


class TestArtifactShape:
    def test_schema_and_sections(self, tiny_registry):
        artifact = run_suite("smoke", scale=0.5)
        assert artifact["schema"] == BENCH_SCHEMA
        assert artifact["schema_version"] == BENCH_SCHEMA_VERSION
        assert artifact["suite"] == "smoke"
        assert artifact["scale"] == 0.5
        assert set(artifact["benchmarks"]) == {"tiny1", "tiny2"}
        assert artifact["total_wall_seconds"] > 0.0
        assert artifact["manifest"]["fingerprint"]

    def test_results_timing_split(self, tiny_registry):
        artifact = run_suite("smoke", scale=0.5)
        section = artifact["benchmarks"]["tiny1"]
        assert set(section["results"]) == {
            "metrics", "accuracy", "counters", "info",
        }
        assert set(section["timing"]) == {
            "wall_seconds", "phases", "timing_info",
        }
        assert section["timing"]["timing_info"] == {"speedup": 10.0}
        aggregates = section["results"]["metrics"]["x"]["aggregates"]
        assert aggregates["count"] == 3
        assert aggregates["min"] == 1.0 and aggregates["max"] == 3.0
        assert section["results"]["accuracy"] == {"err": 0.25}

    def test_params_recorded(self):
        # fig5 is the registry's parameterized spec; a 40-frame run is
        # functional profiling only, so this stays fast.
        artifact = run_suite("full", scale=0.02, names=["fig5"])
        assert artifact["benchmarks"]["fig5"]["params"] == {"alias": "bbr1"}

    def test_registry_histograms_are_namespaced(self, tiny_registry):
        artifact = run_suite("smoke", scale=0.5)
        assert "tiny1/x" in artifact["metrics"]
        assert "tiny2/x" in artifact["metrics"]
        state = artifact["metrics"]["tiny1/x"]["state"]
        assert state["count"] == 3

    def test_unknown_bench_name_rejected(self, tiny_registry):
        with pytest.raises(ConfigError):
            run_suite("smoke", scale=0.5, names=["nope"])

    def test_unknown_suite_rejected(self, tiny_registry):
        with pytest.raises(ConfigError):
            run_suite("nightly")


class TestDeterminism:
    def test_serial_and_pooled_artifacts_match(self, tiny_registry):
        serial = run_suite("smoke", scale=0.5)
        pooled = run_suite(
            "smoke", scale=0.5, parallel=ParallelConfig(jobs=2),
            jobs_requested=2,
        )
        assert _deterministic(serial) == _deterministic(pooled)
        assert pooled["manifest"]["jobs"] == {"requested": "2", "resolved": 2}
        assert serial["manifest"]["jobs"] == {"requested": None, "resolved": 1}

    def test_repeat_runs_are_byte_identical(self, tiny_registry):
        assert _deterministic(run_suite("smoke", scale=0.5)) == (
            _deterministic(run_suite("smoke", scale=0.5))
        )


class TestObservability:
    def test_outer_collector_receives_suite_spans(self, tiny_registry):
        with collecting() as outer:
            run_suite("smoke", scale=0.5)
        names = {record.name for record in outer.spans}
        assert "bench.suite.smoke" in names
        assert "bench.tiny1" in names and "bench.tiny2" in names
        assert "tiny1/x" in outer.metrics.names()


class TestWriteArtifact:
    def test_round_trips_as_sorted_json(self, tiny_registry, tmp_path):
        artifact = run_suite("smoke", scale=0.5)
        target = write_artifact(artifact, tmp_path / "deep" / "a.json")
        loaded = json.loads(target.read_text())
        assert loaded["schema"] == BENCH_SCHEMA
        assert target.read_text() == (
            json.dumps(artifact, indent=2, sort_keys=True) + "\n"
        )


class TestReport:
    def test_mentions_every_benchmark(self, tiny_registry):
        artifact = run_suite("smoke", scale=0.5)
        report = render_bench_report(artifact)
        assert "tiny1" in report and "tiny2" in report
        assert "fingerprint" in report


def _extract_where(result) -> BenchOutcome:
    """Record which process ran the spec, and when it finished."""
    return BenchOutcome(
        info={"pid": os.getpid()},
        timing_info={"finished": time.monotonic()},
    )


def _tiny(name: str, **fields) -> BenchSpec:
    fields.setdefault("extract", _extract_where)
    return BenchSpec(
        name=name, experiment=fields.pop("experiment", "table1"),
        suites=("smoke",), description=name, scaled=False, **fields,
    )


class TestFailures:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failures_are_recorded_not_raised(self, failing_registry,
                                              tmp_path, jobs):
        artifact = run_suite(
            "smoke", parallel=ParallelConfig(jobs=jobs), reports=tmp_path
        )
        assert set(artifact["benchmarks"]) == {"ok", "broken"}
        assert set(artifact["failures"]) == {"broken", "raises"}
        assert "claim 'rows' fails" in artifact["failures"]["broken"]
        assert "AnalysisError" in artifact["failures"]["raises"]
        # Every spec that produced a report wrote it.
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "broken.txt", "ok.txt",
        ]
        assert "FAILED: broken, raises" in render_bench_report(artifact)

    def test_raise_for_failures_lists_every_failure(self, failing_registry):
        artifact = run_suite("smoke")
        with pytest.raises(BenchError) as excinfo:
            raise_for_failures(artifact)
        message = str(excinfo.value)
        assert message.startswith("2 benchmark(s) failed")
        assert "'broken'" in message and "'raises'" in message

    def test_passing_suite_records_no_failures(self, tiny_registry):
        artifact = run_suite("smoke")
        assert artifact["failures"] == {}
        raise_for_failures(artifact)


class TestWallClockSpecs:
    def test_registry_marks_the_timed_specs(self):
        from repro.bench import BENCHES

        assert [name for name, spec in BENCHES.items()
                if spec.wall_clock] == ["speedup", "parallel_scaling"]

    def test_run_alone_after_the_pool(self, monkeypatch):
        specs = {
            "timed": _tiny("timed", wall_clock=True),
            "pooled1": _tiny("pooled1"),
            "pooled2": _tiny("pooled2"),
        }
        monkeypatch.setattr(registry, "BENCHES", specs)
        monkeypatch.setattr(harness, "BENCHES", specs)
        artifact = run_suite("smoke", parallel=ParallelConfig(jobs=2))
        sections = artifact["benchmarks"]
        # Registry order is kept in the artifact whatever the run order.
        assert list(sections) == ["timed", "pooled1", "pooled2"]
        assert sections["timed"]["results"]["info"]["pid"] == os.getpid()
        for name in ("pooled1", "pooled2"):
            assert sections[name]["results"]["info"]["pid"] != os.getpid()
            assert (sections[name]["timing"]["timing_info"]["finished"]
                    < sections["timed"]["timing"]["timing_info"]["finished"])
