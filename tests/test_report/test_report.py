"""`megsim report`: data assembly, HTML rendering, determinism.

The acceptance criteria under test: the report document is plain JSON
gathered from whatever inputs exist (bench artifacts, the results
database, persisted traces); the renderer is a pure function of that
document — two renders of the same inputs are byte-identical, the page
is self-contained, and every user-controlled string is escaped.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ReportError
from repro.obs import Histogram, collecting, span, write_trace_artifact
from repro.report import (
    build_report,
    render_html,
    report_data,
    write_report,
)
from repro.report.data import (
    accuracy_speedup_points,
    discover_bench_artifacts,
    load_bench_artifact,
)
from repro.service import ResultsDB


def _bench_artifact(backend=None, speedups=None, rel_error=0.01,
                    wall=12.5):
    """A minimal but schema-complete megsim-bench document."""
    speedups = speedups if speedups is not None else {"bbr1": 8.0, "hwh": 6.0}
    hist = Histogram("fig7/cycles_rel_error")
    for value in (1.0, 2.0, 3.0, 50.0):
        hist.record(value)
    config = {} if backend is None else {"backend": backend}
    return {
        "schema": "megsim-bench",
        "version": 1,
        "suite": "smoke",
        "scale": 0.05,
        "total_wall_seconds": wall,
        "manifest": {"config": config},
        "metrics": {
            "fig7/cycles_rel_error": {
                "aggregates": hist.aggregates(),
                "state": hist.to_dict(),
            },
        },
        "benchmarks": {
            "fig7": {
                "description": "accuracy",
                "results": {
                    "accuracy": {
                        "rel_error.cycles": rel_error,
                        "rel_error.dram": rel_error * 2,
                    },
                    "counters": {},
                    "info": {},
                },
                "timing": {
                    "wall_seconds": 4.0,
                    "phases": [
                        {"name": "cycle.simulate", "count": 2,
                         "total_seconds": 3.0},
                        {"name": "functional.profile", "count": 1,
                         "total_seconds": 0.5},
                    ],
                    "timing_info": {},
                },
            },
            "speedup": {
                "description": "wall-clock speedup",
                "results": {"accuracy": {}, "counters": {}, "info": {}},
                "timing": {
                    "wall_seconds": 6.0,
                    "phases": [],
                    "timing_info": {
                        "per_benchmark_speedup": dict(speedups),
                        "overall_speedup": (
                            sum(speedups.values()) / len(speedups)
                            if speedups else 0.0
                        ),
                    },
                },
            },
        },
    }


def _write_artifacts(bench_dir, *artifacts):
    bench_dir.mkdir(parents=True, exist_ok=True)
    for index, artifact in enumerate(artifacts):
        path = bench_dir / f"BENCH_{index:02d}.json"
        path.write_text(json.dumps(artifact), encoding="utf-8")
    return bench_dir


def _service_db(tmp_path, with_trace=True, benchmark="bbr1"):
    """A completed request in a real database, optionally with a trace."""
    db_path = tmp_path / "svc.sqlite3"
    trace_path = None
    if with_trace:
        with collecting() as collector:
            with span("service.schedule", request_id=1, trace_id="t0" * 8):
                pass
            with span("service.job.plan", request_id=1, trace_id="t0" * 8,
                      worker="task:0"):
                pass
        trace_path = str(write_trace_artifact(
            tmp_path / "traces" / "request-1.jsonl", collector.roots,
            "t0" * 8, meta={"request_id": 1, "benchmark": benchmark,
                            "scale": 0.05},
        ))
    with ResultsDB(db_path) as db:
        request_id = db.insert_request(
            "fp", benchmark, 0.05, 1234, "{}", trace_id="t0" * 8,
        )
        db.claim_request(request_id)
        db.record_result(
            request_id,
            {"relative_errors": {"cycles": 0.004},
             "reduction_factor": 9.1},
            trace_path=trace_path,
        )
        db.finish_request(request_id, "completed")
    return db_path


class TestDataAssembly:
    def test_empty_inputs_yield_an_empty_document(self, tmp_path):
        data = report_data()
        assert data["schema"] == "megsim-report"
        assert data["bench"]["artifacts"] == []
        assert data["service"] == {"available": False}
        missing = report_data(db_path=tmp_path / "absent.sqlite3",
                              bench_dir=tmp_path / "absent")
        assert missing["service"] == {"available": False}

    def test_discovery_is_sorted_and_filtered(self, tmp_path):
        bench = tmp_path / "bench"
        bench.mkdir()
        (bench / "BENCH_b.json").write_text("{}")
        (bench / "BENCH_a.json").write_text("{}")
        (bench / "notes.txt").write_text("")
        (bench / "other.json").write_text("{}")
        names = [p.name for p in discover_bench_artifacts(bench)]
        assert names == ["BENCH_a.json", "BENCH_b.json"]
        assert discover_bench_artifacts(tmp_path / "absent") == []

    def test_corrupt_artifact_fails_loudly(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text("{not json")
        with pytest.raises(ReportError, match="cannot read"):
            load_bench_artifact(bad)
        bad.write_text('{"schema": "something-else"}')
        with pytest.raises(ReportError, match="not a megsim-bench"):
            load_bench_artifact(bad)

    def test_artifact_summary_and_backend_default(self, tmp_path):
        # Artifacts from when the cycle simulator had a selectable
        # backend carry a manifest tag; it no longer splits the history.
        bench = _write_artifacts(
            tmp_path / "bench", _bench_artifact(),
            _bench_artifact(backend="vector"),
        )
        data = report_data(bench_dir=bench)
        artifacts = data["bench"]["artifacts"]
        assert [a["name"] for a in artifacts] == [
            "BENCH_00.json", "BENCH_01.json",
        ]
        assert all("backend" not in a for a in artifacts)
        assert data["bench"]["newest"] == "BENCH_01.json"
        fig7 = artifacts[0]["benchmarks"]["fig7"]
        assert fig7["accuracy"]["rel_error.cycles"] == 0.01
        assert fig7["phases"][0]["name"] == "cycle.simulate"

    def test_accuracy_speedup_points(self, tmp_path):
        bench = _write_artifacts(tmp_path / "bench", _bench_artifact())
        points = report_data(bench_dir=bench)["bench"]["points"]
        assert [(p["alias"], p["speedup"]) for p in points] == [
            ("bbr1", 8.0), ("hwh", 6.0),
        ]
        # Mean of rel_error.cycles (0.01) and rel_error.dram (0.02).
        assert all(p["rel_error"] == pytest.approx(0.015) for p in points)
        # No speedup section, or no accuracy section: no points.
        assert accuracy_speedup_points([{
            "name": "x", "benchmarks": {},
        }]) == []

    def test_histogram_rows_quote_rebuilt_percentiles(self, tmp_path):
        bench = _write_artifacts(tmp_path / "bench", _bench_artifact())
        data = report_data(bench_dir=bench)
        (row,) = data["bench"]["histograms"]
        assert row["name"] == "fig7/cycles_rel_error"
        assert row["count"] == 4
        # p95 is not in the artifact's precomputed aggregates; it only
        # exists because the histogram was rebuilt from state.
        assert row["p95"] == pytest.approx(50.0)

    def test_document_is_json_serializable(self, tmp_path):
        bench = _write_artifacts(tmp_path / "bench", _bench_artifact())
        db_path = _service_db(tmp_path)
        data = report_data(db_path=db_path, bench_dir=bench)
        json.dumps(data)  # must not raise


class TestServiceSections:
    def test_newest_traced_run_is_selected(self, tmp_path):
        db_path = _service_db(tmp_path)
        data = report_data(db_path=db_path)
        service = data["service"]
        assert service["available"]
        assert service["schema_version"] >= 3
        assert service["counts"]["requests"]["completed"] == 1
        trace = service["trace"]
        assert trace["request_id"] == 1
        assert trace["trace_id"] == "t0" * 8
        names = [row["name"] for row in trace["spans"]]
        assert names == ["service.schedule", "service.job.plan"]
        # Roots lay out sequentially; offsets are cumulative.
        assert trace["spans"][0]["offset"] == 0.0
        assert trace["spans"][1]["offset"] == pytest.approx(
            trace["spans"][0]["elapsed_seconds"]
        )

    def test_run_selector_without_a_trace_raises(self, tmp_path):
        db_path = _service_db(tmp_path, with_trace=False)
        with pytest.raises(ReportError, match="no persisted trace"):
            report_data(db_path=db_path, run=1)
        # And without --run the report degrades to no trace section.
        assert report_data(db_path=db_path)["service"]["trace"] is None

    def test_missing_trace_file_is_skipped_by_default(self, tmp_path):
        db_path = _service_db(tmp_path)
        (tmp_path / "traces" / "request-1.jsonl").unlink()
        assert report_data(db_path=db_path)["service"]["trace"] is None


class TestRendering:
    def _full_data(self, tmp_path):
        bench = _write_artifacts(
            tmp_path / "bench", _bench_artifact(),
            _bench_artifact(backend="vector"),
        )
        db_path = _service_db(tmp_path)
        return report_data(db_path=db_path, bench_dir=bench)

    def test_double_render_is_byte_identical(self, tmp_path):
        data = self._full_data(tmp_path)
        first = render_html(data)
        second = render_html(report_data(
            db_path=tmp_path / "svc.sqlite3", bench_dir=tmp_path / "bench",
        ))
        assert first == second

    def test_every_section_renders(self, tmp_path):
        page = render_html(self._full_data(tmp_path))
        for heading in ("Overview", "Accuracy vs speedup",
                        "Stage waterfalls", "Histogram percentiles",
                        "Experiment service", "Request trace"):
            assert f"<h2>{heading}</h2>" in page
        assert "<svg" in page
        assert "task:0" in page  # worker lineage on the waterfall
        assert "t0" * 8 in page  # the trace id

    def test_waterfall_shows_the_newest_artifact(self, tmp_path):
        page = render_html(self._full_data(tmp_path))
        waterfall = page.split("<h2>Stage waterfalls</h2>")[1].split("<h2>")[0]
        assert "newest artifact (BENCH_01.json)" in waterfall
        assert waterfall.count("cycle.simulate") == 1

    def test_page_is_self_contained(self, tmp_path):
        page = render_html(self._full_data(tmp_path))
        for banned in ("<script", "http://", "https://", "src="):
            assert banned not in page

    def test_empty_document_still_renders_every_section(self):
        page = render_html(report_data())
        assert page.count("<h2>") == 6
        assert "no results database" in page

    def test_hostile_strings_are_escaped(self, tmp_path):
        db_path = _service_db(tmp_path, benchmark="<script>alert(1)")
        page = render_html(report_data(db_path=db_path))
        assert "<script>" not in page
        assert "&lt;script&gt;" in page

    def test_no_wall_clock_in_output(self, tmp_path):
        # Render, let the clock move, render again: byte-equal.
        import time

        data = self._full_data(tmp_path)
        first = render_html(data)
        time.sleep(0.01)
        assert render_html(data) == first


class TestWriteAndBuild:
    def test_write_report_creates_parents(self, tmp_path):
        target = write_report(
            tmp_path / "deep" / "nested" / "report.html", report_data(),
        )
        assert target.is_file()
        assert target.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_build_report_end_to_end(self, tmp_path):
        bench = _write_artifacts(tmp_path / "bench", _bench_artifact())
        db_path = _service_db(tmp_path)
        target = build_report(
            tmp_path / "report.html", db_path=db_path, bench_dir=bench,
        )
        page = target.read_text(encoding="utf-8")
        assert "Accuracy vs speedup" in page
        assert "bbr1" in page
