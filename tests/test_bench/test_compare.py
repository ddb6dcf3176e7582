"""Regression gating: ratios, platform gating, artifact validation."""

from __future__ import annotations

import json
import math

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    compare_artifacts,
    load_artifact,
    regressions,
    render_comparison,
)
from repro.errors import ConfigError


def _artifact(
    wall: float = 10.0,
    err: float = 0.02,
    work: float = 100.0,
    platform: str = "linux-test",
    total: float = 20.0,
) -> dict:
    return {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": "smoke",
        "scale": 0.05,
        "benchmarks": {
            "b": {
                "experiment": "table3",
                "description": "",
                "params": {},
                "results": {
                    "metrics": {},
                    "accuracy": {"err": err},
                    "counters": {"cycle.frames_simulated": work},
                    "info": {},
                },
                "timing": {
                    "wall_seconds": wall, "phases": [], "timing_info": {},
                },
            }
        },
        "metrics": {},
        "total_wall_seconds": total,
        "manifest": {"platform": platform, "fingerprint": "f"},
    }


class TestGating:
    def test_identical_artifacts_pass(self):
        deltas = compare_artifacts(_artifact(), _artifact())
        assert regressions(deltas) == []

    def test_slower_baseline_passes(self):
        # Current run is FASTER than the doctored-slower baseline.
        deltas = compare_artifacts(
            _artifact(wall=10.0, total=20.0),
            _artifact(wall=30.0, total=60.0),
            threshold=1.15,
        )
        assert regressions(deltas) == []

    def test_faster_baseline_beyond_threshold_fails(self):
        deltas = compare_artifacts(
            _artifact(wall=10.0, total=20.0),
            _artifact(wall=3.0, total=6.0),
            threshold=1.15,
        )
        failed = regressions(deltas)
        assert failed and all(d.kind == "wall_time" for d in failed)

    def test_within_threshold_passes(self):
        deltas = compare_artifacts(
            _artifact(wall=11.0), _artifact(wall=10.0), threshold=1.15
        )
        assert regressions(deltas) == []

    def test_platform_mismatch_demotes_wall_time(self):
        deltas = compare_artifacts(
            _artifact(wall=30.0, platform="linux-a"),
            _artifact(wall=10.0, platform="darwin-b"),
        )
        wall = [d for d in deltas if d.kind == "wall_time" and d.regression]
        assert wall and all(not d.enforced for d in wall)
        assert regressions(deltas) == []

    def test_accuracy_regression_enforced_across_platforms(self):
        deltas = compare_artifacts(
            _artifact(err=0.05, platform="linux-a"),
            _artifact(err=0.02, platform="darwin-b"),
        )
        failed = regressions(deltas)
        assert [d.kind for d in failed] == ["accuracy"]
        assert failed[0].ratio == pytest.approx(2.5)

    def test_work_regression_enforced(self):
        deltas = compare_artifacts(
            _artifact(work=200.0), _artifact(work=100.0)
        )
        assert [d.kind for d in regressions(deltas)] == ["work"]

    def test_improvements_never_fail(self):
        deltas = compare_artifacts(
            _artifact(wall=1.0, err=0.001, work=10.0, total=2.0),
            _artifact(wall=10.0, err=0.02, work=100.0, total=20.0),
        )
        assert regressions(deltas) == []

    def test_zero_baseline_regresses_on_any_value(self):
        deltas = compare_artifacts(_artifact(err=0.01), _artifact(err=0.0))
        failed = regressions(deltas)
        assert failed and math.isinf(failed[0].ratio)

    def test_zero_baseline_zero_current_passes(self):
        deltas = compare_artifacts(_artifact(err=0.0), _artifact(err=0.0))
        assert regressions(deltas) == []

    def test_missing_quantities_are_skipped(self):
        baseline = _artifact()
        del baseline["benchmarks"]["b"]["results"]["counters"][
            "cycle.frames_simulated"
        ]
        deltas = compare_artifacts(_artifact(work=1e9), baseline)
        assert all(d.kind != "work" for d in deltas)

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ConfigError):
            compare_artifacts(_artifact(), _artifact(), threshold=0.9)

    @pytest.mark.parametrize("key, other", [("suite", "full"), ("scale", 0.02)])
    def test_suite_or_scale_mismatch_rejected(self, key, other):
        current = _artifact()
        current[key] = other
        with pytest.raises(ConfigError) as excinfo:
            compare_artifacts(current, _artifact())
        assert repr(other) in str(excinfo.value)
        assert repr(_artifact()[key]) in str(excinfo.value)


class TestLoadArtifact:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "a.json"
        target.write_text(json.dumps(_artifact()))
        assert load_artifact(target)["suite"] == "smoke"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_artifact(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text("{not json")
        with pytest.raises(ConfigError):
            load_artifact(target)

    def test_wrong_schema(self, tmp_path):
        target = tmp_path / "other.json"
        target.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ConfigError):
            load_artifact(target)

    def test_wrong_version(self, tmp_path):
        artifact = _artifact()
        artifact["schema_version"] = BENCH_SCHEMA_VERSION + 1
        target = tmp_path / "future.json"
        target.write_text(json.dumps(artifact))
        with pytest.raises(ConfigError):
            load_artifact(target)


class TestRender:
    def test_reports_regressions_and_counts(self):
        deltas = compare_artifacts(
            _artifact(wall=30.0, err=0.05),
            _artifact(wall=10.0, err=0.02),
            threshold=1.15,
        )
        text = render_comparison(deltas, threshold=1.15)
        assert "REGRESSION" in text
        assert "threshold 1.15x" in text

    def test_advisory_marking(self):
        deltas = compare_artifacts(
            _artifact(wall=30.0, platform="a"),
            _artifact(wall=10.0, platform="b"),
        )
        text = render_comparison(deltas)
        assert "advisory" in text
        assert "0 regression(s)" in text
