"""Benchmark harness: registry, suite runner and regression comparison.

``repro.bench`` is the one front-end for the paper's experiments
(``megsim bench`` on the command line):

* :data:`BENCHES` / :class:`BenchSpec` / :class:`BenchOutcome` /
  :class:`Claim` — the registry of named, parameterized benchmarks
  wrapping every table, figure and study, each with the paper-shape
  claims its result must pass; :data:`SUITE_SCALES` /
  :func:`suite_scale` / :func:`artifact_name` — per-suite defaults
  (:mod:`repro.bench.registry`).
* :func:`run_suite` / :func:`write_artifact` /
  :func:`render_bench_report` / :func:`raise_for_failures` — run a
  suite (``smoke`` or ``full``), optionally writing each experiment's
  text report, and emit a schema-versioned ``BENCH_<suite>.json``
  artifact whose deterministic *results* section is byte-identical for
  any ``--jobs`` value; failed claims are recorded in it, and raised
  once everything is written (:mod:`repro.bench.harness`).
* :func:`compare_artifacts` / :func:`regressions` /
  :func:`render_comparison` / :func:`load_artifact` — gate a fresh
  artifact against a checked-in baseline; accuracy and work-count
  regressions always fail, wall-time regressions fail on matching
  platforms (:mod:`repro.bench.compare`).

Quickstart::

    from repro.bench import (
        compare_artifacts, raise_for_failures, regressions, run_suite,
    )

    artifact = run_suite("smoke")
    raise_for_failures(artifact)
    deltas = compare_artifacts(artifact, baseline, threshold=1.15)
    assert not regressions(deltas)

See ``docs/benchmarking.md`` for the artifact schema and the CI gate.
"""

from repro.bench.compare import (
    DEFAULT_THRESHOLD,
    Delta,
    compare_artifacts,
    load_artifact,
    regressions,
    render_comparison,
)
from repro.bench.harness import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    raise_for_failures,
    render_bench_report,
    run_suite,
    write_artifact,
)
from repro.bench.registry import (
    BENCHES,
    SUITE_SCALES,
    SUITES,
    BenchOutcome,
    BenchSpec,
    Claim,
    artifact_name,
    bench_names,
    suite_scale,
)

__all__ = [
    "BENCHES",
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "BenchOutcome",
    "BenchSpec",
    "Claim",
    "DEFAULT_THRESHOLD",
    "Delta",
    "SUITES",
    "SUITE_SCALES",
    "artifact_name",
    "bench_names",
    "compare_artifacts",
    "load_artifact",
    "raise_for_failures",
    "regressions",
    "render_bench_report",
    "render_comparison",
    "run_suite",
    "suite_scale",
    "write_artifact",
]
