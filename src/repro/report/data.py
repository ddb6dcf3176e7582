"""Report data assembly: every number the dashboard renders, as plain JSON.

The report pipeline is a strict two-step — :func:`report_data` gathers
and shapes, :func:`repro.report.html.render_html` formats — so the
``megsim report --json`` surface, the HTML renderer and the tests all
consume one well-defined document instead of three ad-hoc scrapes.

Inputs (each optional; the report renders whatever it has):

* **bench artifacts** — every ``BENCH_*.json`` in ``--bench-dir``
  (schema ``megsim-bench`` v1, written by ``megsim bench --out``),
  ordered by filename so the history reads oldest-first and two renders
  over the same directory see the same sequence.
* **the results database** — request/job tallies, per-run result
  documents and the scheduler's dedup ledger via
  :class:`~repro.service.ResultsDB`.
* **trace artifacts** — the per-request ``megsim-trace`` span trees the
  daemon persists (``results.trace_path``), rebuilt through
  :func:`repro.obs.read_trace_artifact`.

Nothing here reads the wall clock and nothing depends on iteration
nondeterminism: for fixed input files the returned document — and hence
the rendered HTML — is byte-stable (the property the CI gate hashes).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ReportError
from repro.obs import Histogram, read_trace_artifact, span_to_dict
from repro.service import ResultsDB

#: Filename pattern of bench artifacts picked up from ``--bench-dir``.
BENCH_GLOB = "BENCH_*.json"

#: Schema tag bench artifacts must carry (``repro.bench``).
BENCH_SCHEMA = "megsim-bench"

#: The percentile columns every histogram table in the report shows.
REPORT_QUANTILES = (50.0, 90.0, 95.0, 99.0)


def discover_bench_artifacts(bench_dir) -> list[Path]:
    """Every ``BENCH_*.json`` under ``bench_dir``, sorted by filename.

    Filename order is the report's notion of history (artifact names
    embed their suite and a counter/tag chosen by the user); a missing
    or empty directory is simply no history, not an error.
    """
    root = Path(bench_dir)
    if not root.is_dir():
        return []
    return sorted(path for path in root.glob(BENCH_GLOB) if path.is_file())


def load_bench_artifact(path) -> dict:
    """One parsed, schema-checked bench artifact.

    Raises:
        ReportError: when the file is not JSON or not a
            ``megsim-bench`` document — a corrupt history should fail
            loudly, not silently shrink the report.
    """
    source = Path(path)
    try:
        doc = json.loads(source.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReportError(f"cannot read bench artifact {source}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
        raise ReportError(
            f"{source} is not a {BENCH_SCHEMA} artifact "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    return doc


def _artifact_summary(name: str, doc: dict) -> dict:
    """The per-artifact slice of the report document."""
    manifest = doc.get("manifest") or {}
    config = manifest.get("config") or {}
    benchmarks = {}
    for bench_name in sorted(doc.get("benchmarks") or {}):
        section = doc["benchmarks"][bench_name]
        results = section.get("results") or {}
        timing = section.get("timing") or {}
        benchmarks[bench_name] = {
            "description": section.get("description", ""),
            "accuracy": dict(results.get("accuracy") or {}),
            "counters": dict(results.get("counters") or {}),
            "info": dict(results.get("info") or {}),
            "wall_seconds": float(timing.get("wall_seconds") or 0.0),
            "phases": list(timing.get("phases") or []),
            "timing_info": dict(timing.get("timing_info") or {}),
        }
    return {
        "name": name,
        "suite": doc.get("suite"),
        "scale": doc.get("scale"),
        "warm": bool(config.get("warm", False)),
        "total_wall_seconds": float(doc.get("total_wall_seconds") or 0.0),
        "benchmarks": benchmarks,
        "metrics": dict(doc.get("metrics") or {}),
    }


def histogram_rows(metrics: dict) -> list[dict]:
    """Percentile table rows from a serialized metrics registry.

    Each entry of ``metrics`` is ``name -> {"aggregates", "state"}`` as
    bench artifacts store them; the histogram is *rebuilt* from its
    state so the report can quote quantiles (p95) the artifact's
    precomputed aggregates do not carry.
    """
    rows = []
    for name in sorted(metrics):
        state = (metrics[name] or {}).get("state")
        if not isinstance(state, dict):
            continue
        hist = Histogram.from_dict(name, state)
        row = {"name": name}
        row.update(hist.aggregates(REPORT_QUANTILES))
        rows.append(row)
    return rows


def accuracy_speedup_points(artifacts: list[dict]) -> list[dict]:
    """The scatter behind the headline trade-off plot.

    One point per (artifact, benchmark alias) pairing the alias's
    wall-clock speedup (the ``speedup`` spec's per-benchmark timing)
    with the artifact's mean key-metric relative error (the ``fig7``
    spec's accuracy section).  Accuracy is artifact-level — the paper
    reports it aggregated — so points from one artifact share a y.
    """
    points = []
    for artifact in artifacts:
        benches = artifact["benchmarks"]
        speedup = (benches.get("speedup") or {}).get("timing_info") or {}
        per_alias = speedup.get("per_benchmark_speedup") or {}
        accuracy = (benches.get("fig7") or {}).get("accuracy") or {}
        errors = [value for key, value in sorted(accuracy.items())
                  if key.startswith("rel_error.")]
        if not per_alias or not errors:
            continue
        mean_error = sum(errors) / len(errors)
        for alias in sorted(per_alias):
            points.append({
                "artifact": artifact["name"],
                "alias": alias,
                "speedup": float(per_alias[alias]),
                "rel_error": float(mean_error),
            })
    return points


def _span_rows(record: dict, depth: int, offset: float, rows: list) -> float:
    """Flatten one span subtree into waterfall rows (depth, offset, span).

    Children are laid out cumulatively from their parent's offset —
    rebased spans only carry durations, so sequential layout is the
    honest reconstruction of their timeline.
    """
    rows.append({
        "depth": depth,
        "offset": offset,
        "name": record["name"],
        "elapsed_seconds": float(record["elapsed_seconds"]),
        "attrs": dict(record.get("attrs") or {}),
        "span_id": record.get("span_id"),
        "parent_id": record.get("parent_id"),
    })
    child_offset = offset
    for child in record.get("children") or []:
        child_offset = _span_rows(child, depth + 1, child_offset, rows)
    return offset + float(record["elapsed_seconds"])


def load_trace(path) -> dict:
    """One persisted trace artifact as waterfall-ready rows."""
    artifact = read_trace_artifact(path)
    rows: list[dict] = []
    offset = 0.0
    for root in artifact["roots"]:
        offset = _span_rows(span_to_dict(root), 0, offset, rows)
    return {
        "path": Path(path).name,
        "trace_id": artifact["trace_id"],
        "meta": artifact["meta"],
        "spans": rows,
        "total_seconds": sum(
            row["elapsed_seconds"] for row in rows if row["depth"] == 0
        ),
    }


def _service_data(db_path, run: int | None) -> dict:
    """The database-backed sections: tallies, runs, dedup, one trace."""
    path = Path(db_path)
    if not path.is_file():
        return {"available": False}
    with ResultsDB(path) as db:
        counts = db.counts()
        runs = db.runs(limit=50)
        dedup = db.dedup_stats()
        schema_version = db.schema_version()
    for entry in runs:
        entry.pop("request_json", None)
    trace = None
    if run is not None:
        selected = [entry for entry in runs if entry["id"] == run]
        if not selected or not selected[0].get("trace_path"):
            raise ReportError(
                f"run {run} has no persisted trace (is it completed, and "
                f"was it served by a v3-schema daemon?)"
            )
        trace = load_trace(selected[0]["trace_path"])
        trace["request_id"] = run
    else:
        # Default: the newest completed run that has a trace on disk.
        for entry in runs:
            if entry["status"] != "completed" or not entry.get("trace_path"):
                continue
            if not Path(entry["trace_path"]).is_file():
                continue
            trace = load_trace(entry["trace_path"])
            trace["request_id"] = entry["id"]
            break
    return {
        "available": True,
        "db_name": path.name,
        "schema_version": schema_version,
        "counts": counts,
        "runs": runs,
        "dedup": dedup,
        "trace": trace,
    }


def report_data(
    db_path=None,
    bench_dir=None,
    run: int | None = None,
) -> dict[str, Any]:
    """Assemble the full report document.

    Args:
        db_path: results database (``--db``); ``None`` or a missing
            file renders the report without the service sections.
        bench_dir: directory holding ``BENCH_*.json`` history
            (``--bench-dir``); ``None`` skips the bench sections.
        run: request id whose persisted trace the waterfall should
            show; ``None`` picks the newest completed run with a trace.

    Raises:
        ReportError: for a malformed artifact, or a ``run`` selector
            naming a request without a persisted trace.
    """
    artifacts = []
    if bench_dir is not None:
        for path in discover_bench_artifacts(bench_dir):
            artifacts.append(_artifact_summary(path.name, load_bench_artifact(path)))
    newest = artifacts[-1] if artifacts else None
    service = (
        _service_data(db_path, run) if db_path is not None
        else {"available": False}
    )
    return {
        "schema": "megsim-report",
        "version": 1,
        "bench": {
            "artifacts": artifacts,
            "points": accuracy_speedup_points(artifacts),
            "histograms": (
                histogram_rows(newest["metrics"]) if newest else []
            ),
            "newest": newest["name"] if newest else None,
        },
        "service": service,
    }
