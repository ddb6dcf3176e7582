"""Regression gating between two ``BENCH_*.json`` artifacts.

``megsim bench --compare baseline.json`` calls
:func:`compare_artifacts` with the freshly produced artifact and a
checked-in baseline, then exits non-zero when any *enforced* ratio
exceeds the threshold.  What is enforced follows the artifact's
results/timing split (see :mod:`repro.bench.harness`):

* **accuracy** deltas (relative error vs. full simulation) and **work**
  counters (frames simulated, k-means iterations, ...) are
  deterministic, so a threshold breach is a real behavioural regression
  — always enforced.
* **wall-time** ratios are only meaningful between runs on the same
  machine, so they are enforced when the two artifacts' platform
  strings match and demoted to advisory otherwise (CI baselines
  regenerated on new runner images stop gating until refreshed).

Ratios are directional: only *increases* beyond ``threshold`` regress
(getting faster or more accurate never fails), which is what lets a
doctored-slower baseline pass while a doctored-faster one fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.bench.harness import BENCH_SCHEMA, BENCH_SCHEMA_VERSION
from repro.errors import ConfigError

#: Default regression threshold: current/baseline ratios above this fail.
DEFAULT_THRESHOLD = 1.15

#: Baselines at or below this are treated as zero (ratio undefined):
#: any materially non-zero current value then counts as an infinite
#: ratio, because a quantity that used to be exactly zero appearing at
#: all is a regression.
_ZERO_BASELINE = 1e-12


def load_artifact(path) -> dict:
    """Read and validate one ``BENCH_*.json`` artifact.

    Raises:
        ConfigError: when the file is missing, not JSON, or not a
            ``megsim-bench`` artifact of the supported schema version.
    """
    target = Path(path)
    if not target.is_file():
        raise ConfigError(f"benchmark artifact not found: {target}")
    try:
        artifact = json.loads(target.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {target}: {exc}") from exc
    if not isinstance(artifact, dict) or artifact.get("schema") != BENCH_SCHEMA:
        raise ConfigError(f"{target} is not a {BENCH_SCHEMA} artifact")
    version = artifact.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ConfigError(
            f"{target} has schema_version {version!r}; this build reads "
            f"version {BENCH_SCHEMA_VERSION}"
        )
    return artifact


@dataclass(frozen=True)
class Delta:
    """One compared quantity between a current and a baseline artifact.

    Attributes:
        kind: ``"wall_time"``, ``"accuracy"`` or ``"work"``.
        name: dotted quantity name (``"<benchmark>.<quantity>"``).
        current / baseline: the two values.
        ratio: ``current / baseline`` (``inf`` over a zero baseline).
        regression: whether the ratio exceeded the threshold.
        enforced: whether this delta counts toward the exit code.
    """

    kind: str
    name: str
    current: float
    baseline: float
    ratio: float
    regression: bool
    enforced: bool


def compare_artifacts(
    current: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[Delta]:
    """Compare two artifacts; returns every delta, sorted by name.

    Only quantities present in *both* artifacts are compared (a renamed
    counter or a benchmark added to the suite does not fail the gate;
    refreshing the baseline picks it up).

    Raises:
        ConfigError: when ``threshold`` is below 1.0 — a gate that fails
            on *improvement* is always a configuration mistake — or when
            the two artifacts ran a different suite or scale, whose
            accuracy and work are not comparable.
    """
    if not math.isfinite(threshold) or threshold < 1.0:
        raise ConfigError(f"threshold must be >= 1.0, got {threshold!r}")
    for key in ("suite", "scale"):
        if current.get(key) != baseline.get(key):
            raise ConfigError(
                f"cannot compare artifacts of different {key}: current "
                f"{current.get(key)!r}, baseline {baseline.get(key)!r}"
            )
    same_platform = (
        current.get("manifest", {}).get("platform")
        == baseline.get("manifest", {}).get("platform")
    )
    deltas: list[Delta] = []

    def add(kind: str, name: str, cur, base, enforced: bool) -> None:
        if cur is None or base is None:
            return
        cur = float(cur)
        base = float(base)
        if base <= _ZERO_BASELINE:
            ratio = 1.0 if cur <= _ZERO_BASELINE else math.inf
        else:
            ratio = cur / base
        deltas.append(
            Delta(kind, name, cur, base, ratio, ratio > threshold, enforced)
        )

    current_benches = current.get("benchmarks", {})
    baseline_benches = baseline.get("benchmarks", {})
    for name in sorted(set(current_benches) & set(baseline_benches)):
        cur_bench = current_benches[name]
        base_bench = baseline_benches[name]
        add(
            "wall_time",
            f"{name}.wall_seconds",
            cur_bench.get("timing", {}).get("wall_seconds"),
            base_bench.get("timing", {}).get("wall_seconds"),
            same_platform,
        )
        cur_results = cur_bench.get("results", {})
        base_results = base_bench.get("results", {})
        cur_accuracy = cur_results.get("accuracy", {})
        base_accuracy = base_results.get("accuracy", {})
        for key in sorted(set(cur_accuracy) & set(base_accuracy)):
            add(
                "accuracy",
                f"{name}.{key}",
                cur_accuracy[key],
                base_accuracy[key],
                True,
            )
        cur_work = cur_results.get("counters", {})
        base_work = base_results.get("counters", {})
        for key in sorted(set(cur_work) & set(base_work)):
            add(
                "work", f"{name}.{key}", cur_work[key], base_work[key], True
            )
    add(
        "wall_time",
        "suite.total_wall_seconds",
        current.get("total_wall_seconds"),
        baseline.get("total_wall_seconds"),
        same_platform,
    )
    deltas.sort(key=lambda delta: (delta.kind, delta.name))
    return deltas


def regressions(deltas: list[Delta]) -> list[Delta]:
    """The enforced regressions of a comparison (non-empty => exit 1)."""
    return [d for d in deltas if d.regression and d.enforced]


def render_comparison(
    deltas: list[Delta], threshold: float = DEFAULT_THRESHOLD
) -> str:
    """Human-readable comparison summary (the CLI's stdout)."""
    failed = regressions(deltas)
    advisory = [d for d in deltas if d.regression and not d.enforced]
    lines = [
        f"compared {len(deltas)} quantities against baseline "
        f"(threshold {threshold:g}x)"
    ]
    if not any(d.enforced for d in deltas if d.kind == "wall_time"):
        lines.append(
            "  platforms differ: wall-time ratios are advisory only"
        )
    for delta in deltas:
        if not delta.regression:
            continue
        marker = "REGRESSION" if delta.enforced else "advisory"
        lines.append(
            f"  {marker:<10s} {delta.kind:<9s} {delta.name}: "
            f"{delta.current:.6g} vs {delta.baseline:.6g} "
            f"({delta.ratio:.2f}x)"
        )
    ok = len(deltas) - len(failed) - len(advisory)
    lines.append(
        f"{ok} within threshold, {len(advisory)} advisory, "
        f"{len(failed)} regression(s)"
    )
    return "\n".join(lines)
