"""MEGsim benchmark: one workload, one seed, timed from outside the program.

    python3 perfbench/run.py --workload truth-sweep --seed 1 --seconds 20 --trace 0

Runs as many rounds of the workload as fill ``--seconds`` on the
reference host (:data:`ROUND_S`, at least :data:`MIN_ROUNDS`), checks
every output (``check.py``), prints each metric with its unit and, as
the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` first runs the untraced rounds, then as many
traced ones, and reports the per-layer metrics of the traced rounds
(per round) plus the tracing overhead.  A result file with the platform record goes to
``.perfbench_out/``; traced runs also write their spans there.
README.md documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy  # noqa: E402
from repro.obs import collecting  # noqa: E402

from perfbench.check import Checker, load_reference  # noqa: E402
from perfbench.layers import (  # noqa: E402
    LAYER_METRICS,
    LayerTracer,
    layer_metrics,
    span_records,
)
from perfbench.workloads import (  # noqa: E402
    KNOB_JOBS,
    WORKLOADS,
    host_loop_seconds,
    job_rows,
    prepare_knob_store,
    requests_for,
    run_estimate_round,
    run_knob_round,
    run_truth_round,
)

WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

#: Fresh processes timed per run for ``setup_s`` (median reported):
#: half before the rounds, half after, so they meet more than one phase
#: of a host whose speed swings.
SETUP_PROBES = 4

#: What ``probe.py --baseline`` takes on the reference host; set-up
#: probes are scaled to it.
REFERENCE_BASELINE_S = 0.4

#: Rounds every run makes at least, however long they take.
MIN_ROUNDS = 2

#: Host seconds one round of each workload takes on the reference host
#: (a 2-CPU Xeon VM).  A run makes ``max(MIN_ROUNDS, round(--seconds /
#: ROUND_S))`` rounds: the same number on any host, because the best-of
#: score shifts with the number of rounds it picks from.
ROUND_S = {"truth-sweep": 10.0, "estimate-only": 7.0, "knob-sweep": 4.0}

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "frames_per_s": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mean_rel_error_pct": "%",
    "reduction_x": "x",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--prepare", metavar="DIR",
        help="internal: build the knob sweep's starting store in DIR",
    )
    return parser.parse_args(argv)


def platform_record() -> dict:
    """Where a result was measured; results from another host are flagged."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "calibration_s": min(host_loop_seconds() for _ in range(5)),
    }


def probe_seconds(*args: str) -> float:
    """Seconds ``probe.py`` reports for one fresh process."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), *args],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, workdir: Path, probes: int) -> list[float]:
    """Import + store (+ database) open, timed in ``probes`` fresh processes.

    Each probe's seconds are scaled to the reference host by the
    baseline processes timed just before and after it.  The baseline
    loads the external libraries the program loads and none of the
    program, so it slows down with the host the way the probe does
    (the host loop the rounds use tracked process start-up poorly).
    """
    baselines = [probe_seconds("--baseline")] if probes else []
    samples = []
    for index in range(probes):
        target = workdir / f"probe-{index}"
        args = [str(target / "store")]
        if workload == "knob-sweep":
            args.append(str(target / "service.sqlite3"))
        seconds = probe_seconds(*args)
        baselines.append(probe_seconds("--baseline"))
        host = (baselines[-2] + baselines[-1]) / 2
        samples.append(seconds * REFERENCE_BASELINE_S / host)
        shutil.rmtree(target, ignore_errors=True)
    return samples


def prepare_knob(target: Path, seed: int) -> None:
    """Child-process half of the knob sweep's preparation."""
    direct = prepare_knob_store(requests_for("knob-sweep", seed), target / "store")
    (target / "direct.json").write_text(json.dumps(direct, sort_keys=True))


def make_runner(workload: str, requests, workdir: Path, seed: int):
    """The workload's round runner: ``runner(rounddir, timed) -> RoundResult``.

    The knob sweep's starting store is built first, in a child process,
    so its memory never counts towards ``peak_rss_mb``.
    """
    if workload == "truth-sweep":
        return lambda rounddir, timed: run_truth_round(requests, rounddir, timed)
    if workload == "estimate-only":
        return lambda rounddir, timed: run_estimate_round(requests, rounddir, timed)
    prepared = workdir / "prepared"
    prepared.mkdir()
    subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--prepare", str(prepared),
            "--workload", workload, "--seed", str(seed),
        ],
        check=True, timeout=170,
    )
    direct = json.loads((prepared / "direct.json").read_text())
    return lambda rounddir, timed: run_knob_round(
        requests, rounddir, prepared / "store", direct, timed
    )


class Tally:
    """Requests attempted and failed over a run, with the first problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_round(self, result, checks: list[list[str]]) -> None:
        for error, problems in zip(result.errors, checks):
            self.attempted += 1
            if error is not None:
                problems = [error]
            if problems:
                self.failed += 1
                self.problems.extend(problems)


def run_rounds(runner, workdir: Path, rounds: int, checker, tally, traced=False):
    """Run ``rounds`` rounds, checking each.

    Returns ``(results, layers)``; when ``traced``, ``layers`` holds one
    ``(collector, per-layer metrics)`` pair per round.
    """
    results, layers = [], []
    while len(results) < rounds:
        rounddir = workdir / f"round-{len(results)}-{int(traced)}"
        rounddir.mkdir()
        collectors = []

        @contextmanager
        def collect():
            with collecting() as collector:
                collectors.append(collector)
                yield

        result = runner(rounddir, collect if traced else nullcontext)
        tally.add_round(result, checker.check_round(result.outputs))
        if traced:
            db = rounddir / "service.sqlite3"
            rows = job_rows(db) if db.exists() else {"jobs_done": 0, "job_attempts": 0}
            layers.append((collectors[0], layer_metrics(collectors[0], rows, KNOB_JOBS)))
        results.append(result)
        shutil.rmtree(rounddir)
    return results, layers


def best_seconds(results) -> float:
    """Reference seconds of one round at the best the run observed.

    Sum over the round's timed units (requests) of each unit's fewest
    reference seconds across rounds.  A round timed as one unit (the
    knob sweep's service batch) is scaled only at its two ends, so its
    normalised time errs both ways; it takes the median round, because
    the fastest would pick the largest error.
    """
    columns = list(zip(*(r.reference_seconds for r in results)))
    if len(columns) == 1:
        return statistics.median(columns[0])
    return sum(min(column) for column in columns)


def end_to_end(results, checker, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    first = [o for o in results[0].outputs if o is not None]
    # A repeated submission is the same evaluation: its error counts once.
    distinct = {o.label: o for o in first}.values()
    errors = [e for e in checker.errors_pct(distinct) if numpy.isfinite(e)]
    frames = sum(o.frames for o in first)
    representatives = sum(o.representatives for o in first)
    return {
        "frames_per_s": frames / best_seconds(results),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_rel_error_pct": statistics.fmean(errors) if errors else 0.0,
        "reduction_x": frames / representatives if representatives else 0.0,
    }


def per_layer(layers, untraced, traced) -> dict[str, float]:
    """Per-layer metrics averaged over the traced rounds."""
    values = {
        name: statistics.fmean(metrics[name] for _, metrics in layers)
        for name in LAYER_METRICS
    }
    ratio = best_seconds(traced) / best_seconds(untraced)
    values["trace.overhead_pct"] = (ratio - 1.0) * 100.0
    return values


def write_spans(path: Path, layers, workload: str, seed: int) -> None:
    with path.open("w") as handle:
        for index, (collector, _) in enumerate(layers):
            for record in span_records(collector, f"{workload}/seed{seed}/round{index}"):
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.prepare:
        prepare_knob(Path(args.prepare), args.seed)
        return 0

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Anything resolving the program's default store or database stays
    # inside the run's own directory.
    os.environ["MEGSIM_STORE"] = str(workdir / "default-store")
    os.environ["MEGSIM_DB"] = str(workdir / "default.sqlite3")
    try:
        host = platform_record()
        probes = 0 if args.trace else SETUP_PROBES
        setup = setup_seconds(args.workload, workdir, probes // 2)
        requests = requests_for(args.workload, args.seed)
        runner = make_runner(args.workload, requests, workdir, args.seed)
        checker = Checker(args.workload, args.seed, load_reference())
        tally = Tally()
        rounds = max(MIN_ROUNDS, round(args.seconds / ROUND_S[args.workload]))
        results, _ = run_rounds(runner, workdir, rounds, checker, tally)
        setup += setup_seconds(args.workload, workdir, probes - probes // 2)
        if args.trace:
            with LayerTracer():
                traced, layers = run_rounds(
                    runner, workdir, rounds, checker, tally, traced=True
                )
            values, units = per_layer(layers, results, traced), LAYER_METRICS
        else:
            values = end_to_end(results, checker, statistics.median(setup))
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    summary = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_spans(OUT_DIR / f"{stem}.spans.jsonl", layers, args.workload, args.seed)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "platform": host,
        "round_seconds": [r.seconds for r in results],
        "round_reference_seconds": [sum(r.reference_seconds) for r in results],
        "setup_samples": setup,
        "digests": checker.digest_status,
    }, indent=2, sort_keys=True))

    print(f"workload {args.workload}  seed {args.seed}  requests/round "
          f"{len(requests)}  rounds {len(results)}")
    print("platform " + "  ".join(f"{k}={v}" for k, v in host.items()))
    print(f"digests  {checker.digest_status}")
    for problem in tally.problems[:20]:
        print(f"FAILED   {problem}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
