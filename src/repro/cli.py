"""Command-line interface: ``megsim`` / ``python -m repro``.

Examples::

    megsim list                       # available experiments & benchmarks
    megsim run table3 --scale 0.25    # regenerate Table III, quick
    megsim run fig7 --scale 1.0       # full-length Figure 7
    megsim plan bbr1 --scale 0.2      # show a sampling plan
    megsim lint                       # static analysis (docs/linting.md)
    megsim bench --suite smoke        # benchmark suite -> BENCH_smoke.json
    megsim bench --suite full --reports out/  # every experiment's report
    megsim cache stats                # artifact-store occupancy
    megsim submit --suite smoke       # queue evaluations for the service
    megsim serve --once               # drain the queue through the worker pool
    megsim status                     # request/job/result tallies
    megsim runs --benchmark bbr1      # query recorded results

The experiment service (see ``docs/service.md``): ``megsim submit``
queues evaluation requests in a SQLite results database (default
``~/.cache/megsim/service.sqlite3``, overridden by ``MEGSIM_DB`` or
``--db``), ``megsim serve`` expands them into fingerprint-keyed stage
jobs — deduplicated against prior work and the artifact store — and
executes them through the worker pool; ``megsim status`` and ``megsim
runs`` query the database.

Caching (see ``docs/pipeline.md``): every evaluation runs through the
staged pipeline backed by the persistent artifact store (default
``~/.cache/megsim``, overridden by the ``MEGSIM_STORE`` environment
variable), so repeated experiments reuse profiles, plans and
cycle-simulation results across commands and sessions.  ``--no-store``
runs a command against a throwaway in-memory store; ``megsim cache``
inspects (``stats``), empties (``clear``) or garbage-collects (``gc``)
the persistent tree.

Observability (see ``docs/observability.md``): every command accepts
``--trace out.jsonl`` (stream span/counter/gauge events as JSON Lines,
plus a run manifest ``out.manifest.json``), ``--profile`` (print a
phase-timing report when done), ``--manifest path.json`` and
``--metrics path`` (export the run's histograms/counters as Prometheus
text or JSON Lines).  Setting the ``MEGSIM_TRACE`` environment variable
to a path is equivalent to passing ``--trace`` with that path.

Benchmarking (see ``docs/benchmarking.md``): ``megsim bench`` runs a
named suite, checks each experiment's paper-shape claims, writes a
schema-versioned artifact (and with ``--reports DIR`` every experiment's
text report) and, with ``--compare baseline.json``, exits non-zero on
performance or accuracy regressions.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from pathlib import Path

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.bench import DEFAULT_THRESHOLD, SUITE_SCALES, SUITES, suite_scale
from repro.core.sampler import MEGsimOptions
from repro.errors import ConfigError
from repro.obs import (
    Collector,
    JsonlSink,
    RunManifest,
    render_report,
    set_collector,
    span,
    wall_clock,
    write_metrics,
)
from repro.parallel import JOBS_ENV_VAR, ParallelConfig, resolve_jobs
from repro.pipeline import PipelineRequest, materialize_stage
from repro.store import get_store, memory_store, store_scope
from repro.workloads.benchmarks import benchmark_aliases
from repro.workloads.registry import (
    BUILTIN_WORKLOADS,
    get_workload,
    register_workload_file,
    workload_keys,
)

#: Subcommands that operate on the service results database.
_SERVICE_COMMANDS = ("serve", "submit", "status", "runs", "report")


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="sequence-length scale (1.0 = the paper's frame counts)",
    )


def _add_workload(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--workload", default=None, metavar="KEY|FILE",
        help=help_text + " (a registry key from 'megsim workloads list', "
             "or a megsim-workload v1 capture file, which is registered "
             "on the fly)",
    )


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", "-j", metavar="N", default=None,
        help="worker processes for parallelizable stages: a positive "
             "number or 'auto' (all available CPUs); defaults to the "
             "MEGSIM_JOBS environment variable, else 1 (serial). "
             "Results are byte-identical for any value "
             "(see docs/parallelism.md)",
    )


def _add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-store", dest="no_store", action="store_true",
        help="run against a throwaway in-memory artifact store: nothing "
             "is read from or written to MEGSIM_STORE (docs/pipeline.md)",
    )


def _add_db(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db", default=None, metavar="PATH",
        help="results database file; defaults to the MEGSIM_DB "
             "environment variable, else ~/.cache/megsim/service.sqlite3 "
             "(docs/service.md)",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", dest="trace_out", metavar="PATH", default=None,
        help="write span/counter/gauge events as JSON Lines to PATH "
             "(also honours the MEGSIM_TRACE environment variable)",
    )
    group.add_argument(
        "--profile", action="store_true",
        help="print a phase-timing report when the command finishes",
    )
    group.add_argument(
        "--manifest", dest="manifest_out", metavar="PATH", default=None,
        help="write a run manifest (config, seed, version, per-phase "
             "timings) to PATH; defaults to <trace>.manifest.json when "
             "--trace is given",
    )
    group.add_argument(
        "--metrics", dest="metrics_out", metavar="PATH", default=None,
        help="export the run's counters/gauges/histograms to PATH when "
             "done: .jsonl/.json writes JSON Lines, anything else "
             "Prometheus text exposition",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="megsim", description="MEGsim reproduction harness"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiments and benchmarks")

    run = commands.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    _add_scale(run)
    _add_workload(run, "evaluate this workload instead of the "
                       "experiment's default (fig5/fig6 only)")
    _add_store(run)
    _add_obs(run)

    plan = commands.add_parser("plan", help="show a workload's sampling plan")
    plan.add_argument("benchmark", nargs="?", default=None, metavar="WORKLOAD",
                      help="workload registry key (see 'megsim workloads "
                           "list'); alternative to --workload")
    _add_scale(plan)
    _add_workload(plan, "workload to plan")
    _add_store(plan)
    _add_obs(plan)

    inspect = commands.add_parser(
        "inspect", help="per-stage statistics of a workload"
    )
    inspect.add_argument("benchmark", nargs="?", default=None,
                         metavar="WORKLOAD",
                         help="workload registry key (see 'megsim workloads "
                              "list'); alternative to --workload")
    _add_scale(inspect)
    _add_workload(inspect, "workload to inspect")
    _add_store(inspect)
    _add_obs(inspect)

    workloads = commands.add_parser(
        "workloads", help="list or describe the workload registry"
    )
    workloads.add_argument("action", nargs="?", choices=("list", "describe"),
                           default="list",
                           help="list (the default): one line per registry "
                                "key; describe: full details of one workload")
    workloads.add_argument("key", nargs="?", default=None,
                           help="registry key (required for describe)")

    export = commands.add_parser(
        "export-trace",
        help="export a workload as a replayable megsim-workload v1 capture",
    )
    export.add_argument("benchmark", metavar="WORKLOAD",
                        help="workload registry key to export")
    export.add_argument("--out", required=True,
                        help="capture output path (JSONL)")
    _add_scale(export)
    _add_obs(export)

    figures = commands.add_parser(
        "figures", help="write Figure 5/6 images (PGM/PPM)"
    )
    figures.add_argument("benchmark", choices=benchmark_aliases())
    figures.add_argument("--frames", type=int, default=900,
                         help="frames to analyse (paper: 900)")
    figures.add_argument("--outdir", default=".",
                         help="directory for fig5.pgm / fig6.ppm")
    _add_scale(figures)
    _add_store(figures)
    _add_obs(figures)

    bench = commands.add_parser(
        "bench", help="run a benchmark suite -> BENCH_<suite>.json"
    )
    bench.add_argument("--suite", choices=SUITES, default="smoke",
                       help="which registered suite to run")
    bench.add_argument("--scale", type=float, default=None,
                       help="sequence-length scale override "
                            "(default: the suite's own scale)")
    bench.add_argument("--out", default=None,
                       help="artifact path (default: BENCH_<suite>.json)")
    bench.add_argument("--reports", default=None, metavar="DIR",
                       help="also write each experiment's text report to "
                            "DIR/<name>.txt")
    bench.add_argument("--compare", dest="baseline", metavar="BASELINE",
                       default=None,
                       help="compare against a baseline artifact and exit "
                            "non-zero on regressions")
    bench.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                       help="regression threshold for --compare: "
                            "current/baseline ratios above this fail "
                            "(default %(default)s)")
    bench.add_argument("--list", dest="list_benches", action="store_true",
                       help="print the benchmark registry and exit")
    bench.add_argument("--warm", action="store_true",
                       help="share the persistent artifact store across "
                            "specs instead of running each one cold; "
                            "measures the incremental cost of a suite "
                            "over a populated MEGSIM_STORE")
    _add_jobs(bench)
    _add_store(bench)
    _add_obs(bench)

    cache = commands.add_parser(
        "cache", help="inspect or maintain the persistent artifact store"
    )
    cache.add_argument("action", choices=("stats", "clear", "gc"),
                       help="stats: occupancy per artifact kind; "
                            "clear: delete every stored artifact; "
                            "gc: remove stale temp files and old store "
                            "versions, optionally trimming to --max-bytes")
    cache.add_argument("--max-bytes", dest="max_bytes", type=int, default=None,
                       help="for gc: evict least-recently-used artifacts "
                            "until the store fits in this many bytes")

    serve = commands.add_parser(
        "serve", help="run the experiment-service dispatcher (docs/service.md)"
    )
    serve.add_argument("--once", action="store_true",
                       help="drain the queue and exit instead of polling "
                            "for new submissions")
    serve.add_argument("--poll", type=float, default=1.0, metavar="SECONDS",
                       help="sleep between empty polls in daemon mode "
                            "(default %(default)s)")
    serve.add_argument("--idle-limit", dest="idle_limit", type=int,
                       default=None, metavar="N",
                       help="exit after N consecutive empty polls "
                            "(default: poll forever)")
    serve.add_argument("--report", dest="report_out", default=None,
                       metavar="PATH",
                       help="regenerate the HTML experiment report at PATH "
                            "each time the queue drains")
    serve.add_argument("--bench-dir", dest="bench_dir", default=None,
                       metavar="DIR",
                       help="BENCH_*.json history folded into the --report "
                            "page (default: database sections only)")
    _add_db(serve)
    _add_jobs(serve)
    _add_store(serve)
    _add_obs(serve)

    submit = commands.add_parser(
        "submit", help="queue benchmark evaluations for the service"
    )
    submit.add_argument("benchmarks", nargs="*", metavar="WORKLOAD",
                        help="workload keys to evaluate (default: every "
                             "Table II benchmark); validated against the "
                             "workload registry at submit time")
    _add_workload(submit, "additional workload to queue")
    submit.add_argument("--suite", choices=sorted(SUITE_SCALES), default=None,
                        help="queue every benchmark at this suite's default "
                             "scale (an explicit --scale still wins)")
    submit.add_argument("--scale", type=float, default=None,
                        help="sequence-length scale "
                             "(default: the suite's scale, else 1.0)")
    submit.add_argument("--seed", type=int, default=None,
                        help="clustering seed override "
                             "(default: the paper configuration's seed)")
    _add_db(submit)
    _add_obs(submit)

    status = commands.add_parser(
        "status", help="request/job/result tallies of the service database"
    )
    status.add_argument("--json", dest="as_json", action="store_true",
                        help="print the status document as JSON")
    _add_db(status)
    _add_obs(status)

    runs = commands.add_parser(
        "runs", help="query recorded evaluations (newest first)"
    )
    runs.add_argument("--benchmark", choices=benchmark_aliases(), default=None,
                      help="only runs of this benchmark")
    runs.add_argument("--status", choices=("pending", "running", "completed",
                                           "failed"), default=None,
                      help="only runs in this request state")
    runs.add_argument("--limit", type=int, default=20,
                      help="show at most this many runs (default %(default)s)")
    runs.add_argument("--json", dest="as_json", action="store_true",
                      help="print the joined request+result rows as JSON")
    _add_db(runs)
    _add_obs(runs)

    report = commands.add_parser(
        "report", help="render the static HTML experiment dashboard"
    )
    report.add_argument("--bench-dir", dest="bench_dir", default=None,
                        metavar="DIR",
                        help="directory of BENCH_*.json artifacts to chart "
                             "(default: no bench sections)")
    report.add_argument("--run", type=int, default=None, metavar="ID",
                        help="request id whose persisted trace to render "
                             "(default: newest completed run with one)")
    report.add_argument("--out", default="report.html", metavar="PATH",
                        help="output HTML file (default %(default)s)")
    report.add_argument("--json", dest="as_json", action="store_true",
                        help="print the report data document as JSON "
                             "instead of writing HTML")
    _add_db(report)
    _add_obs(report)

    lint = commands.add_parser(
        "lint", help="static analysis: determinism/layering/doc invariants"
    )
    lint.add_argument("--root", default=".",
                      help="project root to lint (default: cwd)")
    lint.add_argument("--format", dest="lint_format",
                      choices=("text", "json"), default="text",
                      help="report format; json is sorted and machine-stable")
    lint.add_argument("--select", default="",
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--effects", default="", metavar="MODULE:FUNC",
                      help="print one function's inferred effect summary "
                           "(declared/direct/ambient, with call-site "
                           "chains) as deterministic JSON and exit")

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    trace_path = (
        getattr(args, "trace_out", None) or os.environ.get("MEGSIM_TRACE") or None
    )
    manifest_path = getattr(args, "manifest_out", None)
    metrics_path = getattr(args, "metrics_out", None)
    profiling = bool(getattr(args, "profile", False))
    if not (trace_path or manifest_path or metrics_path or profiling):
        return _dispatch(args)

    sink = JsonlSink(trace_path) if trace_path else None
    collector = Collector(sink=sink)
    set_collector(collector)
    manifest = RunManifest.begin(
        command=tuple(argv) if argv is not None else tuple(sys.argv[1:]),
        experiment=getattr(args, "experiment", None)
        or getattr(args, "benchmark", None),
        scale=getattr(args, "scale", None),
        seed=MEGsimOptions().seed,
        config={"command": args.command},
    )
    manifest.record_jobs(*_jobs_facts(args))
    if args.command in _SERVICE_COMMANDS:
        from repro.service import SCHEMA_VERSION, resolve_db_path

        # The version the command migrates the file to on open; the
        # path after --db / MEGSIM_DB / default resolution.
        manifest.record_service(
            resolve_db_path(getattr(args, "db", None)), SCHEMA_VERSION
        )
    try:
        with span(f"cli.{args.command}", command=args.command):
            return _dispatch(args)
    finally:
        set_collector(None)
        manifest.finish(collector)
        if sink is not None:
            sink.emit({
                "type": "manifest",
                "ts": wall_clock(),
                "manifest": manifest.to_dict(),
            })
        collector.close()
        if manifest_path is None and trace_path:
            manifest_path = str(Path(trace_path).with_suffix(".manifest.json"))
        if manifest_path:
            manifest.write(manifest_path)
        if metrics_path:
            write_metrics(collector, metrics_path)
        if profiling:
            print(render_report(collector))


def _jobs_facts(args: argparse.Namespace) -> tuple[str | None, int | None]:
    """The (requested, resolved) parallelism facts for the manifest.

    ``requested`` is the raw ``--jobs`` value, falling back to the
    ``MEGSIM_JOBS`` environment variable; ``resolved`` is the worker
    count it maps to, or ``None`` when the request is malformed (the
    command itself will then fail with the real error message).
    """
    requested = getattr(args, "jobs", None)
    if requested is None:
        requested = os.environ.get(JOBS_ENV_VAR)
    try:
        resolved = resolve_jobs(getattr(args, "jobs", None))
    except ConfigError:
        resolved = None
    return requested, resolved


def _dispatch(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code.

    ``--no-store`` swaps in a throwaway in-memory artifact store for the
    duration of the command, so nothing touches ``MEGSIM_STORE``.
    """
    _validate_scale(args)
    if getattr(args, "no_store", False):
        with store_scope(memory_store()):
            return _run_command(args)
    return _run_command(args)


def _validate_scale(args: argparse.Namespace) -> None:
    """Reject bad ``--scale`` values before any expensive work starts.

    A non-positive scale is always an error; for a builtin workload the
    scaled script is also dry-run, so a scale that would round a script
    segment below 1 frame fails here with the flag named instead of
    deep inside the generator.

    Raises:
        ConfigError: naming ``--scale``.
    """
    scale = getattr(args, "scale", None)
    if scale is None:
        return
    if scale <= 0:
        raise ConfigError(f"--scale must be > 0, got {scale}")
    key = getattr(args, "workload", None) or getattr(args, "benchmark", None)
    workload = BUILTIN_WORKLOADS.get(key) if isinstance(key, str) else None
    if workload is not None and scale != 1.0:
        try:
            workload.spec.scaled(scale)
        except ConfigError as exc:
            raise ConfigError(f"--scale {scale}: {exc}") from exc


def _resolve_workload_arg(value: str) -> str:
    """Map a ``--workload`` value to a registry key.

    A value naming an existing file is loaded as a ``megsim-workload``
    capture and registered on the fly; anything else is treated as a
    registry key (unknown keys fail downstream with the full key list).
    """
    if value in workload_keys():
        return value
    if Path(value).is_file():
        ref = register_workload_file(value)
        print(f"registered capture {value} as {ref.name}")
        return ref.name
    return value


def _cache(args: argparse.Namespace) -> int:
    """The ``megsim cache`` subcommand: store inspection and maintenance."""
    store = get_store()
    if args.action == "stats":
        stats = store.stats()
        disk = stats["disk"]
        memory = stats["memory"]
        print(f"store root: {disk['root'] or '(memory only)'}")
        print(
            f"memory    : {memory['entries']}/{memory['capacity']} live "
            f"objects, {memory['evictions']} evictions"
        )
        print(f"disk      : {disk['entries']} artifacts, {disk['bytes']} bytes")
        for kind, row in disk["kinds"].items():
            print(f"  {kind:<16s} {row['entries']:6d} entries "
                  f"{row['bytes']:12d} bytes")
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} artifacts from {store.root or 'memory'}")
        return 0
    # gc
    outcome = store.gc(args.max_bytes)
    print(
        f"gc {store.root or '(memory only)'}: "
        f"{outcome['removed_tmp']} temp files, "
        f"{outcome['removed_old_versions']} old-version files, "
        f"{outcome['removed_artifacts']} artifacts removed"
    )
    return 0


def _run_command(args: argparse.Namespace) -> int:
    """Execute one parsed command against the active store."""
    if args.command == "cache":
        return _cache(args)

    if args.command == "list":
        print("experiments:", ", ".join(EXPERIMENTS))
        print("benchmarks:", ", ".join(benchmark_aliases()))
        print("workloads:", ", ".join(workload_keys()))
        return 0

    if args.command == "workloads":
        return _workloads(args)

    if args.command == "export-trace":
        workload = get_workload(args.benchmark)
        trace = workload.build(scale=args.scale)
        from repro.workloads.replay import export_workload_file

        digest = export_workload_file(trace, args.out)
        print(f"wrote {trace.frame_count}-frame capture to {args.out} "
              f"(content sha256 {digest[:12]})")
        return 0

    if args.command == "bench":
        return _bench(args)

    if args.command in _SERVICE_COMMANDS:
        return _service(args)

    if args.command == "lint":
        from repro.lint.engine import main as lint_main

        argv = ["--root", args.root, "--format", args.lint_format]
        if args.select:
            argv += ["--select", args.select]
        if args.effects:
            argv += ["--effects", args.effects]
        if args.list_rules:
            argv.append("--list-rules")
        return lint_main(argv)

    if args.command == "run":
        experiment = EXPERIMENTS[args.experiment]
        takes_scale = "scale" in inspect.signature(experiment).parameters
        kwargs = {"scale": args.scale} if takes_scale else {}
        if args.workload is not None:
            if args.experiment not in ("fig5", "fig6"):
                raise ConfigError(
                    f"--workload only applies to the single-workload "
                    f"experiments fig5 and fig6, not {args.experiment!r}"
                )
            kwargs["alias"] = _resolve_workload_arg(args.workload)
        result = run_experiment(args.experiment, **kwargs)
        print(result.report)
        return 0

    if args.command == "plan":
        key = _require_workload_key(args, "plan")
        plan = materialize_stage(
            PipelineRequest.create(key, scale=args.scale), "plan",
            store=get_store(),
        )
        print(
            f"{key}: {plan.total_frames} frames -> "
            f"{plan.selected_frame_count} representatives "
            f"(reduction {plan.reduction_factor:.0f}x)"
        )
        for cluster in plan.clusters:
            print(
                f"  cluster {cluster.index:3d}: frame {cluster.representative:5d} "
                f"represents {cluster.weight} frames"
            )
        return 0

    if args.command == "inspect":
        _inspect(_require_workload_key(args, "inspect"), args.scale)
        return 0

    if args.command == "figures":
        _figures(args.benchmark, args.frames, args.scale, args.outdir)
        return 0

    return 1  # unreachable: argparse enforces the command set


def _require_workload_key(args: argparse.Namespace, command: str) -> str:
    """The workload key a command operates on (positional or --workload).

    Raises:
        ConfigError: when neither was given, listing the registry keys.
    """
    if args.workload is not None:
        return _resolve_workload_arg(args.workload)
    if args.benchmark is not None:
        return args.benchmark
    raise ConfigError(
        f"megsim {command} needs a workload: pass a key or --workload "
        f"(available: {', '.join(workload_keys())})"
    )


def _workloads(args: argparse.Namespace) -> int:
    """The ``megsim workloads`` subcommand: registry listing/details."""
    if args.action == "list":
        for key in workload_keys():
            workload = get_workload(key)
            print(f"{key:<12s} [{workload.kind:<9s}] {workload.describe()}")
        return 0
    # describe
    if args.key is None:
        raise ConfigError(
            "megsim workloads describe needs a KEY "
            f"(available: {', '.join(workload_keys())})"
        )
    workload = get_workload(args.key)
    ref = workload.ref()
    print(f"key        : {workload.key}")
    print(f"kind       : {workload.kind}")
    print(f"fingerprint: {ref.fingerprint}")
    if ref.path is not None:
        print(f"path       : {ref.path}")
    print(f"describe   : {workload.describe()}")
    trace_frames = getattr(getattr(workload, "spec", None), "frames", None)
    if trace_frames is None:
        trace_frames = getattr(
            getattr(workload, "trace", None), "frame_count", None
        )
    if trace_frames is not None:
        print(f"frames     : {trace_frames}")
    return 0


def _service(args: argparse.Namespace) -> int:
    """The service subcommands: serve / submit / status / runs / report."""
    import json

    from repro.service import (
        ResultsDB,
        build_requests,
        render_runs,
        render_status,
        serve,
        service_status,
        submit_requests,
    )

    if args.command == "serve":
        on_drain = None
        if args.report_out:
            from repro.report import build_report

            def on_drain(db, _args=args):
                target = build_report(
                    _args.report_out, db_path=db.path,
                    bench_dir=_args.bench_dir,
                )
                print(f"report: {target}", flush=True)

        summary = serve(
            args.db,
            parallel=ParallelConfig.from_cli(args.jobs),
            once=args.once,
            poll_seconds=args.poll,
            idle_limit=args.idle_limit,
            on_drain=on_drain,
        )
        print(render_status(summary))
        print(f"ticks:    {summary['ticks']}  "
              f"(idle polls: {summary['idle_polls']})")
        return 0

    if args.command == "report":
        from repro.report import report_data, write_report
        from repro.service import resolve_db_path

        data = report_data(
            db_path=resolve_db_path(args.db),
            bench_dir=args.bench_dir,
            run=args.run,
        )
        if args.as_json:
            print(json.dumps(data, indent=2, sort_keys=True))
            return 0
        target = write_report(args.out, data)
        print(f"wrote report to {target}")
        return 0

    if args.command == "submit":
        if args.suite is not None:
            scale = suite_scale(args.suite, args.scale)
        else:
            scale = args.scale if args.scale is not None else 1.0
        options = None if args.seed is None else MEGsimOptions(seed=args.seed)
        keys = list(args.benchmarks)
        if args.workload is not None:
            keys.append(_resolve_workload_arg(args.workload))
        requests = build_requests(keys, scale=scale, options=options)
        with ResultsDB(args.db) as db:
            ids = submit_requests(db, requests)
            for request, request_id in zip(requests, ids):
                print(f"submitted #{request_id}: {request.alias} "
                      f"scale={request.scale}")
            print(f"{len(ids)} request(s) queued in {db.path}")
        return 0

    if args.command == "status":
        with ResultsDB(args.db) as db:
            document = service_status(db)
        if args.as_json:
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            print(render_status(document))
        return 0

    # runs
    with ResultsDB(args.db) as db:
        rows = db.runs(
            benchmark=args.benchmark, status=args.status, limit=args.limit
        )
    if args.as_json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(render_runs(rows))
    return 0


def _bench(args: argparse.Namespace) -> int:
    """Run a benchmark suite; optionally gate against a baseline."""
    from repro.bench import (
        BENCHES,
        compare_artifacts,
        load_artifact,
        regressions,
        render_bench_report,
        raise_for_failures,
        render_comparison,
        run_suite,
        artifact_name,
        write_artifact,
    )

    if args.list_benches:
        for name, spec in BENCHES.items():
            suites = ",".join(spec.suites)
            print(f"{name:<24s} [{suites:<11s}] {spec.description}")
        return 0

    artifact = run_suite(
        args.suite,
        scale=args.scale,
        parallel=ParallelConfig.from_cli(args.jobs),
        jobs_requested=args.jobs or os.environ.get(JOBS_ENV_VAR),
        warm=args.warm,
        reports=args.reports,
    )
    out = args.out if args.out else artifact_name(args.suite)
    write_artifact(artifact, out)
    print(render_bench_report(artifact))
    print(f"wrote {out}")
    if args.reports:
        print(f"wrote {len(artifact['benchmarks'])} report(s) to "
              f"{args.reports}")

    code = 0
    if args.baseline:
        deltas = compare_artifacts(
            artifact, load_artifact(args.baseline), threshold=args.threshold
        )
        print(render_comparison(deltas, threshold=args.threshold))
        if regressions(deltas):
            code = 1
    # Failed claims surface only after the artifact, every report and the
    # comparison are written, so one broken spec loses nothing else.
    raise_for_failures(artifact)
    return code


def _inspect(alias: str, scale: float) -> None:
    """Print a per-stage breakdown of one benchmark's simulation."""
    from repro.analysis.runner import evaluate_benchmark

    evaluation = evaluate_benchmark(alias, scale=scale)
    totals = evaluation.totals
    frames = evaluation.plan.total_frames
    geometry, raster, tiling = totals.power_fractions()
    print(f"{alias}: {frames} frames, {totals.cycles:.3e} cycles "
          f"({totals.cycles / frames / 1e6:.2f}M/frame), IPC {totals.ipc:.2f}")
    print(f"  work     : {totals.vertices_shaded:.3e} vertices, "
          f"{totals.primitives_binned:.3e} primitives, "
          f"{totals.fragments_shaded:.3e} fragments shaded "
          f"({totals.fragments_generated:.3e} generated)")
    print(f"  phases   : geometry {totals.geometry_cycles:.3e} | "
          f"tiling {totals.tiling_cycles:.3e} | "
          f"raster {totals.raster_cycles:.3e} cycles")
    for name, cache in (
        ("vertex$", totals.vertex_cache), ("texture$", totals.texture_cache),
        ("tile$", totals.tile_cache), ("L2$", totals.l2_cache),
    ):
        print(f"  {name:9s}: {cache.accesses:.3e} accesses, "
              f"hit rate {cache.hit_rate:.3f}")
    print(f"  DRAM     : {totals.dram.total_accesses:.3e} lines "
          f"({totals.dram.read_accesses:.2e} rd / "
          f"{totals.dram.write_accesses:.2e} wr), "
          f"row hit rate {totals.dram.row_hit_rate:.3f}")
    print(f"  power    : geometry {geometry:.1%} | tiling {tiling:.1%} | "
          f"raster {raster:.1%}")
    print(f"  MEGsim   : {evaluation.plan.selected_frame_count} "
          f"representatives (reduction {evaluation.reduction_factor:.0f}x), "
          "errors "
          + ", ".join(f"{m} {e:.2%}"
                      for m, e in evaluation.relative_errors().items()))


def _figures(alias: str, frames: int, scale: float, outdir: str) -> None:
    """Write Figure 5/6 images for one benchmark."""
    from repro.analysis.experiments import fig5_similarity, fig6_clusters
    from repro.analysis.images import cluster_image, similarity_image

    fig5 = fig5_similarity(alias, frames=frames, scale=scale)
    fig6 = fig6_clusters(alias, frames=frames, scale=scale)
    distances = fig5.data["distances"]
    analysed = fig5.data["frames"]

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    fig5_path = out / f"fig5_{alias}.pgm"
    fig6_path = out / f"fig6_{alias}.ppm"
    similarity_image(distances, fig5_path)
    cluster_image(distances, fig6.data["labels"], fig6_path)
    print(f"wrote {fig5_path} ({analysed}x{analysed}, dark = similar)")
    print(f"wrote {fig6_path} (k={fig6.data['k']} clusters along the diagonal)")


if __name__ == "__main__":
    sys.exit(main())
