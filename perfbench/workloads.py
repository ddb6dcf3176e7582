"""The benchmark's three workloads: their requests and one timed round each.

A *request* is one MEGsim evaluation: a workload key, a sequence-length
scale and the two knobs the benchmark varies (the k-means seed and the
BIC threshold T).  :func:`requests_for` derives a workload's request
list from the benchmark seed alone, so the same seed always yields the
same requests and the program only ever sees the generated inputs.

A *round* runs every request of a workload once, cold, through the
program's public entry points, and returns the host time of the timed
section plus one :class:`Output` per request.  Everything a round does
outside that section (copying the prepared store, opening the results
database, reading artifacts back for the correctness check) is
excluded from the time.
"""

from __future__ import annotations

import json
import random
import shutil
import sqlite3
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ContextManager

from repro.analysis.runner import evaluate_benchmark
from repro.core.sampler import MEGsimOptions
from repro.gpu.stats import KEY_METRICS
from repro.parallel import ParallelConfig, available_cpus
from repro.pipeline import PipelineRequest, STAGES, materialize_stage, stage_fingerprints
from repro.service import ResultsDB, serve, submit_requests
from repro.store import ArtifactStore, store_scope
from repro.workloads.benchmarks import benchmark_aliases
from repro.workloads.scripted import scripted_keys

from perfbench.check import output_digest

WORKLOADS = ("truth-sweep", "estimate-only", "knob-sweep")

#: Sequence-length scale of each workload (1.0 = the paper's lengths).
SCALES = {"truth-sweep": 0.03, "estimate-only": 0.1, "knob-sweep": 0.05}

#: k-means seeds per workload key and round.  One seed's error is a
#: single draw from MEGsim's accuracy distribution (Section V-C); several
#: per key keep the reported error steady from one benchmark seed to the
#: next.
SEEDS_PER_KEY = {"truth-sweep": 3, "estimate-only": 3}

#: The BIC-spread thresholds the knob sweep pairs with every benchmark
#: (the paper's T = 0.85 and a step to either side).
KNOB_THRESHOLDS = (0.80, 0.85, 0.90)

#: Worker processes the knob sweep's service uses.
KNOB_JOBS = min(2, available_cpus())

_PAPER_THRESHOLD = MEGsimOptions().threshold

#: Context manager factory entered around a round's timed section only
#: (the traced run installs its collector there).
Timed = Callable[[], ContextManager]


@dataclass(frozen=True)
class RequestSpec:
    """One evaluation a workload issues."""

    key: str
    scale: float
    seed: int
    threshold: float = _PAPER_THRESHOLD

    @property
    def label(self) -> str:
        """Stable identifier of the request (unique within a workload)."""
        return f"{self.key}/T{self.threshold:.2f}/s{self.seed}"

    def options(self) -> MEGsimOptions:
        """The MEGsim knobs of the request."""
        return MEGsimOptions(seed=self.seed, threshold=self.threshold)

    def request(self) -> PipelineRequest:
        """The program's request object for this evaluation."""
        return PipelineRequest.create(
            self.key, scale=self.scale, options=self.options()
        )


@dataclass
class Output:
    """What one request produced, reduced to what the checks need."""

    label: str
    key: str
    frames: int
    representatives: int
    estimate: dict[str, float]
    truth: dict[str, float] | None
    digest: str


@dataclass
class RoundResult:
    """One timed round: host seconds, and per request an output or an error.

    ``reference_seconds`` is the round's time in reference-host seconds
    (see :func:`host_loop_seconds`): one entry per request when the
    round issues them one at a time, one entry for the whole batch when
    the service drains it in one call.
    """

    seconds: float
    outputs: list[Output | None]
    errors: list[str | None]
    reference_seconds: list[float]


#: What :func:`host_loop_seconds` takes on the reference host (an
#: uncontended 2-CPU Xeon VM); host seconds are scaled to this speed.
REFERENCE_LOOP_S = 0.008


def host_loop_seconds() -> float:
    """Time a fixed pure-Python loop: the host's speed right now.

    A virtual machine on a shared host alternates between fast and slow
    phases lasting seconds to a minute; on a 2-CPU Xeon VM the
    program's time tracked this loop's time better than the other
    probes tried (dict churn, numpy over a 32 MB array).
    """
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - started


def to_reference(seconds: float, before: float, after: float) -> float:
    """Scale host seconds to the reference host by the loop time around them."""
    return seconds * REFERENCE_LOOP_S / ((before + after) / 2)


def workload_keys(workload: str) -> tuple[str, ...]:
    """The program's workload keys a workload evaluates."""
    if workload == "estimate-only":
        return benchmark_aliases() + scripted_keys()
    return benchmark_aliases()


def _kmeans_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def requests_for(workload: str, seed: int) -> list[RequestSpec]:
    """Every request one round of ``workload`` issues, in issue order.

    Deterministic in ``(workload, seed)``; the seed picks each request's
    k-means seed and, in the knob sweep, which submissions repeat.  The
    knob sweep repeats one submission per workload key (a quarter of the
    batch with three thresholds), so every seed's batch holds the same
    frames.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    scale = SCALES[workload]
    if workload in SEEDS_PER_KEY:
        return [
            RequestSpec(key, scale, _kmeans_seed(rng))
            for key in workload_keys(workload)
            for _ in range(SEEDS_PER_KEY[workload])
        ]
    unique = [
        RequestSpec(key, scale, _kmeans_seed(rng), threshold)
        for key in workload_keys(workload)
        for threshold in KNOB_THRESHOLDS
    ]
    batch = list(unique)
    for key in workload_keys(workload):
        original = rng.choice([spec for spec in unique if spec.key == key])
        earliest = batch.index(original) + 1
        batch.insert(rng.randrange(earliest, len(batch) + 1), original)
    return batch


def unique_requests(requests: list[RequestSpec]) -> list[RequestSpec]:
    """``requests`` without repeats, first occurrence order."""
    return list(dict.fromkeys(requests))


def _output(spec: RequestSpec, store: ArtifactStore, with_truth: bool) -> Output:
    """Read one finished request's artifacts back from ``store``."""
    request = spec.request()
    fps = stage_fingerprints(request)
    plan = materialize_stage(request, "plan", store, fps)
    reps = materialize_stage(request, "representatives", store, fps)
    estimate = materialize_stage(request, "estimate", store, fps)
    truth = (
        materialize_stage(request, "ground_truth", store, fps).totals
        if with_truth else None
    )
    return Output(
        label=spec.label,
        key=spec.key,
        frames=plan.total_frames,
        representatives=plan.selected_frame_count,
        estimate={m: getattr(estimate, m) for m in KEY_METRICS},
        truth=None if truth is None else {m: getattr(truth, m) for m in KEY_METRICS},
        digest=output_digest(plan, reps, estimate, truth),
    )


def _issue(requests: list[RequestSpec], call) -> tuple[list, list, list]:
    """Call ``call(spec)`` per request, timing each between two host loops.

    Returns per-request host seconds, reference seconds and errors.
    """
    seconds: list[float] = []
    errors: list[str | None] = []
    loops = [host_loop_seconds()]
    for spec in requests:
        started = time.perf_counter()
        try:
            call(spec)
            errors.append(None)
        except Exception as exc:  # a failed request is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
        seconds.append(time.perf_counter() - started)
        loops.append(host_loop_seconds())
    reference = [
        to_reference(t, before, after)
        for t, before, after in zip(seconds, loops, loops[1:])
    ]
    return seconds, reference, errors


def run_truth_round(
    requests: list[RequestSpec], workdir: Path, timed: Timed
) -> RoundResult:
    """``evaluate_benchmark`` on every request, cold, into a fresh disk store."""
    store = ArtifactStore(workdir / "store")
    with store_scope(store), timed():
        seconds, reference, errors = _issue(
            requests,
            lambda spec: evaluate_benchmark(
                spec.key, scale=spec.scale, options=spec.options()
            ),
        )
    outputs = [
        None if error else _output(spec, store, with_truth=True)
        for spec, error in zip(requests, errors)
    ]
    return RoundResult(sum(seconds), outputs, errors, reference)


def run_estimate_round(
    requests: list[RequestSpec], workdir: Path, timed: Timed
) -> RoundResult:
    """``materialize_stage(..., "estimate")`` per request, cold, no ground truth.

    The store is a fresh in-memory one (the ``--no-store`` path): the
    workload times the estimate itself, not artifact persistence, which
    truth-sweep and knob-sweep cover.
    """
    store = ArtifactStore(root=None, memory_entries=100_000)
    with timed():
        seconds, reference, errors = _issue(
            requests,
            lambda spec: materialize_stage(spec.request(), "estimate", store),
        )
    outputs = [
        None if error else _output(spec, store, with_truth=False)
        for spec, error in zip(requests, errors)
    ]
    return RoundResult(sum(seconds), outputs, errors, reference)


def _prepare_key(key: str, specs: list[RequestSpec], target: Path) -> dict:
    """One benchmark's share of :func:`prepare_knob_store`."""
    scratch = ArtifactStore(root=None, memory_entries=100_000)
    seeded = ArtifactStore(target)
    by_name = {stage.name: stage for stage in STAGES}
    request = PipelineRequest.create(key, scale=SCALES["knob-sweep"])
    fps = stage_fingerprints(request)
    for name in ("trace", "profile", "ground_truth"):
        stage = by_name[name]
        artifact = materialize_stage(request, name, scratch, fps)
        seeded.put(stage.kind, fps[name], artifact, encode=stage.encode)
    answers = {}
    for spec in specs:
        estimate = materialize_stage(spec.request(), "estimate", scratch)
        answers[spec.label] = {m: getattr(estimate, m) for m in KEY_METRICS}
    return answers


def prepare_knob_store(
    requests: list[RequestSpec], target: Path
) -> dict[str, dict]:
    """Build the knob sweep's starting store and the direct answers.

    Writes traces, profiles and ground truth of every benchmark to the
    disk store at ``target``; plans, representatives and estimates are
    left for the sweep to compute.  Returns the estimate of every
    unique request computed directly with :func:`materialize_stage`,
    keyed by request label.  Benchmarks are prepared on
    :data:`KNOB_JOBS` processes; each writes its own store entries.
    """
    keys = workload_keys("knob-sweep")
    specs = [[s for s in unique_requests(requests) if s.key == key] for key in keys]
    answers = {}
    with ProcessPoolExecutor(KNOB_JOBS) as pool:
        for part in pool.map(_prepare_key, keys, specs, [target] * len(keys)):
            answers.update(part)
    return answers


def job_rows(db_path: Path) -> dict[str, int]:
    """Done jobs and total execution attempts, from the ``jobs`` table."""
    with sqlite3.connect(db_path) as conn:
        done, attempts = conn.execute(
            "SELECT SUM(status = 'done'), COALESCE(SUM(attempts), 0) FROM jobs"
        ).fetchone()
    return {"jobs_done": int(done or 0), "job_attempts": int(attempts or 0)}


def run_knob_round(
    requests: list[RequestSpec],
    workdir: Path,
    seed_store: Path,
    direct: dict[str, dict],
    timed: Timed,
) -> RoundResult:
    """Submit the batch, drain it with ``serve(once=True)``, check each result.

    Each served estimate must equal ``direct``, the estimate the direct
    :func:`materialize_stage` path computed for its request.
    """
    root = workdir / "store"
    shutil.copytree(seed_store, root)
    store = ArtifactStore(root)
    db_path = workdir / "service.sqlite3"
    with ResultsDB(db_path) as db:
        before = statistics.median(host_loop_seconds() for _ in range(25))
        with timed():
            started = time.perf_counter()
            ids = submit_requests(db, [spec.request() for spec in requests])
            serve(
                str(db_path),
                parallel=ParallelConfig(jobs=KNOB_JOBS),
                once=True,
                store=store,
            )
            seconds = time.perf_counter() - started
        after = statistics.median(host_loop_seconds() for _ in range(25))
        rows = [(db.request(i), db.result(i)) for i in ids]
    outputs: list[Output | None] = []
    errors: list[str | None] = []
    for spec, (row, result) in zip(requests, rows):
        if row is None or row["status"] != "completed" or result is None:
            status = "missing" if row is None else row["status"]
            error = row["error"] if row is not None else None
            outputs.append(None)
            errors.append(f"request {status}: {error}")
            continue
        output = _output(spec, store, with_truth=True)
        served = {m: result["estimates"][m] for m in KEY_METRICS}
        expected = direct[spec.label]
        if served != expected:
            outputs.append(None)
            errors.append(
                "served estimate differs from the direct materialize_stage "
                f"estimate: {json.dumps(served)} vs "
                f"{json.dumps(expected)}"
            )
            continue
        outputs.append(output)
        errors.append(None)
    return RoundResult(
        seconds, outputs, errors, [to_reference(seconds, before, after)]
    )
