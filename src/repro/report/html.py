"""The static-HTML renderer behind ``megsim report``.

One self-contained page, stdlib only: inline CSS, inline SVG, zero
JavaScript, zero external assets — the file works from ``file://``, an
artifact tab in CI, or an email attachment.  Rendering is a pure
function of the :func:`repro.report.data.report_data` document:

* every string is escaped through :func:`html.escape`;
* every float goes through one fixed format (no locale, no wall
  clock, no environment reads);
* iteration follows either explicit sorts or the document's own order
  (which is itself deterministic for fixed inputs);

so two renders of the same inputs are byte-identical — the property
``scripts/ci_check.sh`` enforces with a sha256 double-render gate.
"""

from __future__ import annotations

import html as _html
from typing import Any

#: Bar and point color (inline, no external palette).
BAR_COLOR = "#4878a8"

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1d2733; background: #fcfcfd; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #d6dde6;
     padding-bottom: .4rem; }
h2 { font-size: 1.15rem; margin-top: 2.2rem; }
h3 { font-size: .95rem; margin-bottom: .3rem; color: #3c4b5d; }
table { border-collapse: collapse; font-size: .82rem; margin: .6rem 0; }
th, td { border: 1px solid #d6dde6; padding: .25rem .55rem;
         text-align: right; }
th { background: #eef2f6; font-weight: 600; }
td.label, th.label { text-align: left; font-family: ui-monospace,
         'SF Mono', Menlo, monospace; }
.note { color: #5b6b7d; font-size: .8rem; }
.missing { color: #8a97a5; font-style: italic; margin: .5rem 0; }
.bar-row { display: flex; align-items: center; font-size: .78rem;
           margin: 1px 0; }
.bar-name { width: 17rem; flex: none; font-family: ui-monospace,
            'SF Mono', Menlo, monospace; overflow: hidden;
            text-overflow: ellipsis; white-space: nowrap; }
.bar-track { flex: 1; background: #eef2f6; position: relative;
             height: .95rem; }
.bar-fill { position: absolute; top: 0; height: 100%; }
.bar-value { width: 6rem; flex: none; padding-left: .5rem;
             color: #3c4b5d; }
svg text { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif; }
"""


def _esc(value: Any) -> str:
    return _html.escape(str(value), quote=True)


def _num(value: Any) -> str:
    """One fixed numeric format for the whole page."""
    if value is None:
        return "-"
    number = float(value)
    if number == int(number) and abs(number) < 1e12:
        return str(int(number))
    return f"{number:.4g}"


def _pct(value: float) -> str:
    return f"{value * 100:.2f}%"


def _table(headers: list[str], rows: list[list[str]],
           label_columns: int = 1) -> list[str]:
    """A table whose first ``label_columns`` columns are left-aligned.

    Cell values must already be rendered strings; label cells are
    escaped here, so callers only pre-escape when they embed markup.
    """
    out = ["<table>", "<tr>"]
    for index, header in enumerate(headers):
        cls = ' class="label"' if index < label_columns else ""
        out.append(f"<th{cls}>{_esc(header)}</th>")
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        for index, cell in enumerate(row):
            cls = ' class="label"' if index < label_columns else ""
            out.append(f"<td{cls}>{_esc(cell)}</td>")
        out.append("</tr>")
    out.append("</table>")
    return out


def _bar(name: str, seconds: float, max_seconds: float, color: str,
         offset_fraction: float = 0.0, indent: int = 0) -> str:
    """One horizontal waterfall bar (pure CSS, fixed formatting)."""
    scale = max_seconds if max_seconds > 0 else 1.0
    left = min(offset_fraction * 100.0, 100.0)
    width = max(0.15, seconds / scale * 100.0)
    width = min(width, 100.0 - left)
    pad = "&nbsp;" * (2 * indent)
    return (
        '<div class="bar-row">'
        f'<div class="bar-name">{pad}{_esc(name)}</div>'
        '<div class="bar-track">'
        f'<div class="bar-fill" style="left:{left:.3f}%;'
        f'width:{width:.3f}%;background:{color}"></div></div>'
        f'<div class="bar-value">{seconds:.3f}s</div>'
        "</div>"
    )


# ----------------------------------------------------------------------
# Sections.
# ----------------------------------------------------------------------


def _overview(data: dict) -> list[str]:
    bench = data["bench"]
    service = data["service"]
    rows = [["bench artifacts", str(len(bench["artifacts"]))]]
    if bench["newest"]:
        rows.append(["newest artifact", bench["newest"]])
    if service.get("available"):
        counts = service["counts"]
        rows.append(["results database", service["db_name"]])
        rows.append(["database schema", f"v{service['schema_version']}"])
        rows.append(["requests completed",
                     str(counts["requests"]["completed"])])
        rows.append(["requests failed", str(counts["requests"]["failed"])])
        rows.append(["jobs done", str(counts["jobs"]["done"])])
    return ["<h2>Overview</h2>", *_table(["input", "value"], rows)]


def _scatter_svg(points: list[dict]) -> list[str]:
    """Accuracy-vs-speedup scatter: the paper's trade-off, one glance."""
    width, height = 640, 320
    margin = 46
    max_x = max((p["speedup"] for p in points), default=1.0) * 1.1 or 1.0
    max_y = max((p["rel_error"] for p in points), default=0.01) * 1.25 or 0.01
    out = [
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} '
        f'{height}" role="img" aria-label="accuracy vs speedup">',
        f'<rect x="{margin}" y="10" width="{width - margin - 10}" '
        f'height="{height - margin - 10}" fill="#ffffff" '
        'stroke="#d6dde6"/>',
    ]
    plot_w = width - margin - 10
    plot_h = height - margin - 10
    for tick in range(5):
        frac = tick / 4
        x = margin + frac * plot_w
        y = 10 + plot_h - frac * plot_h
        out.append(
            f'<text x="{x:.1f}" y="{height - margin + 16}" '
            f'font-size="10" text-anchor="middle" fill="#5b6b7d">'
            f"{frac * max_x:.1f}x</text>"
        )
        out.append(
            f'<text x="{margin - 6}" y="{y + 3:.1f}" font-size="10" '
            f'text-anchor="end" fill="#5b6b7d">'
            f"{frac * max_y * 100:.1f}%</text>"
        )
    out.append(
        f'<text x="{margin + plot_w / 2:.1f}" y="{height - 8}" '
        'font-size="11" text-anchor="middle" fill="#1d2733">'
        "wall-clock speedup (full sim / MEGsim)</text>"
    )
    out.append(
        f'<text x="12" y="{10 + plot_h / 2:.1f}" font-size="11" '
        f'text-anchor="middle" fill="#1d2733" '
        f'transform="rotate(-90 12 {10 + plot_h / 2:.1f})">'
        "mean relative error</text>"
    )
    for point in points:
        x = margin + point["speedup"] / max_x * plot_w
        y = 10 + plot_h - point["rel_error"] / max_y * plot_h
        title = (
            f"{point['alias']} @ {point['artifact']}: "
            f"{point['speedup']:.2f}x, {point['rel_error'] * 100:.2f}%"
        )
        out.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{BAR_COLOR}" '
            f'fill-opacity="0.75"><title>{_esc(title)}</title></circle>'
        )
    out.append("</svg>")
    return out


def _accuracy_section(data: dict) -> list[str]:
    bench = data["bench"]
    out = ["<h2>Accuracy vs speedup</h2>"]
    if not bench["points"]:
        out.append('<p class="missing">no bench artifacts with both a '
                   "speedup and a fig7 section</p>")
        return out
    out.append(
        '<p class="note">One point per benchmark per artifact; error is '
        "the artifact-level mean of the four key-metric relative errors "
        "(the granularity the paper reports).</p>"
    )
    out.extend(_scatter_svg(bench["points"]))
    rows = []
    for artifact in bench["artifacts"]:
        benches = artifact["benchmarks"]
        speedup_info = (benches.get("speedup") or {}).get("timing_info") or {}
        accuracy = (benches.get("fig7") or {}).get("accuracy") or {}
        errors = [v for k, v in sorted(accuracy.items())
                  if k.startswith("rel_error.")]
        parity = (benches.get("parity") or {}).get("accuracy") or {}
        rows.append([
            artifact["name"],
            _num(artifact["scale"]),
            (f"{speedup_info['overall_speedup']:.2f}x"
             if "overall_speedup" in speedup_info else "-"),
            _pct(sum(errors) / len(errors)) if errors else "-",
            (_num(parity["parity.identical"])
             if "parity.identical" in parity else "-"),
            f"{artifact['total_wall_seconds']:.1f}s",
        ])
    out.append("<h3>History (oldest first)</h3>")
    out.extend(_table(
        ["artifact", "scale", "speedup", "mean rel. error",
         "engine parity", "wall"],
        rows, label_columns=1,
    ))
    return out


def _waterfall_section(data: dict) -> list[str]:
    """Per-stage time per bench spec, from the newest artifact."""
    artifacts = data["bench"]["artifacts"]
    out = ["<h2>Stage waterfalls</h2>"]
    if not artifacts:
        out.append('<p class="missing">no bench artifacts</p>')
        return out
    newest = artifacts[-1]
    out.append(
        '<p class="note">Cumulative span time per phase, from the newest '
        f"artifact ({_esc(newest['name'])}).</p>"
    )
    for spec in sorted(newest["benchmarks"]):
        phases = newest["benchmarks"][spec]["phases"]
        if not phases:
            continue
        totals = {
            str(phase["name"]): float(phase["total_seconds"])
            for phase in phases
        }
        max_seconds = max(totals.values())
        out.append(f"<h3>{_esc(spec)}</h3>")
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, seconds in ranked:
            out.append(_bar(name, seconds, max_seconds, BAR_COLOR))
    return out


def _histogram_section(data: dict) -> list[str]:
    rows = data["bench"]["histograms"]
    out = ["<h2>Histogram percentiles</h2>"]
    if not rows:
        out.append('<p class="missing">no metrics registry in the bench '
                   "history</p>")
        return out
    out.append(
        f'<p class="note">Rebuilt from the newest artifact '
        f"({_esc(data['bench']['newest'])}) histogram state; quantiles "
        "are nearest-rank, clamped to the exact extremes.</p>"
    )
    out.extend(_table(
        ["metric", "count", "mean", "p50", "p90", "p95", "p99", "max"],
        [[row["name"], _num(row["count"]), _num(row["mean"]),
          _num(row["p50"]), _num(row["p90"]), _num(row["p95"]),
          _num(row["p99"]), _num(row["max"])] for row in rows],
    ))
    return out


def _service_section(data: dict) -> list[str]:
    service = data["service"]
    out = ["<h2>Experiment service</h2>"]
    if not service.get("available"):
        out.append('<p class="missing">no results database</p>')
        return out
    counts = service["counts"]
    out.append("<h3>Queue</h3>")
    out.extend(_table(
        ["table", *sorted(counts["requests"])],
        [
            ["requests", *[str(counts["requests"][k])
                           for k in sorted(counts["requests"])]],
        ],
    ))
    out.extend(_table(
        ["table", *sorted(counts["jobs"])],
        [["jobs", *[str(counts["jobs"][k]) for k in sorted(counts["jobs"])]]],
    ))
    dedup = service["dedup"]
    out.append("<h3>Dedup</h3>")
    out.append(
        '<p class="note">Every request↔job link beyond one per job is an '
        "execution the scheduler deduplicated; ``store`` rows were "
        "adopted from the artifact store without running at all.</p>"
    )
    source_rows = []
    for source in sorted(dedup["sources"]):
        statuses = dedup["sources"][source]
        source_rows.append([
            source,
            *[str(statuses.get(status, 0))
              for status in ("pending", "running", "done", "failed")],
        ])
    out.extend(_table(
        ["job source", "pending", "running", "done", "failed"], source_rows,
    ))
    out.extend(_table(
        ["links", "distinct jobs", "shared jobs"],
        [[str(dedup["links"]), str(dedup["jobs"]),
          str(dedup["shared_jobs"])]],
        label_columns=0,
    ))
    out.append("<h3>Runs (newest first)</h3>")
    run_rows = []
    for run in service["runs"]:
        metrics = run.get("metrics") or {}
        errors = metrics.get("relative_errors") or {}
        run_rows.append([
            str(run["id"]),
            str(run["benchmark"]),
            _num(run["scale"]),
            str(run["status"]),
            (_pct(errors["cycles"]) if "cycles" in errors else "-"),
            (f"{metrics['reduction_factor']:.1f}x"
             if "reduction_factor" in metrics else "-"),
            str(run.get("trace_id") or "-"),
            ("yes" if run.get("trace_path") else "-"),
        ])
    out.extend(_table(
        ["id", "benchmark", "scale", "status", "cycles err", "reduction",
         "trace id", "trace"],
        run_rows, label_columns=2,
    ))
    return out


def _trace_section(data: dict) -> list[str]:
    trace = data["service"].get("trace") if data["service"] else None
    out = ["<h2>Request trace</h2>"]
    if not trace:
        out.append('<p class="missing">no persisted trace (serve a '
                   "request under the v3 schema, or pass --run)</p>")
        return out
    meta = trace["meta"]
    out.append(
        f'<p class="note">request {_esc(trace.get("request_id", "?"))} '
        f"({_esc(meta.get('benchmark', '?'))} @ scale "
        f"{_num(meta.get('scale'))}) — trace "
        f"<code>{_esc(trace['trace_id'] or 'n/a')}</code>, "
        f"{len(trace['spans'])} span(s) from "
        f"<code>{_esc(trace['path'])}</code>.  Offsets are cumulative "
        "within each parent: persisted spans carry durations, not "
        "absolute timestamps.</p>"
    )
    total = trace["total_seconds"] or 1.0
    for row in trace["spans"]:
        name = row["name"]
        worker = row["attrs"].get("worker")
        if worker:
            name = f"{name} [{worker}]"
        out.append(_bar(
            name,
            row["elapsed_seconds"],
            total,
            BAR_COLOR if row["depth"] == 0 else "#7aa0c4",
            offset_fraction=(row["offset"] / total if total else 0.0),
            indent=row["depth"],
        ))
    return out


def render_html(data: dict) -> str:
    """Render the :func:`~repro.report.data.report_data` document.

    A pure function: same document in, same bytes out.  The page title
    is fixed and no timestamp is embedded — provenance belongs to the
    inputs (artifacts and database rows carry their own recorded
    times), not to the moment someone happened to render them.
    """
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8"/>',
        "<title>MEGsim experiment report</title>",
        f"<style>{_CSS}</style>",
        "</head>",
        "<body>",
        "<h1>MEGsim experiment report</h1>",
        '<p class="note">Accuracy-for-speed evidence in one page: bench '
        "history, per-stage waterfalls, metric distributions and the "
        "experiment service's ledger.</p>",
        *_overview(data),
        *_accuracy_section(data),
        *_waterfall_section(data),
        *_histogram_section(data),
        *_service_section(data),
        *_trace_section(data),
        "</body>",
        "</html>",
    ]
    return "\n".join(parts) + "\n"
