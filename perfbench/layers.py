"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public calls into each layer of the
program in a ``bench:<layer>.<call>`` span of the program's own
:mod:`repro.obs` collector, so spans recorded in the service's forked
pool workers come back with the program's worker buffers.  Nothing in
the program changes; :meth:`LayerTracer.remove` restores every wrapped
attribute.

:func:`layer_metrics` turns one traced round's collector into the
per-layer metrics.  A layer's time is the *self* time of its spans: a
span's duration minus the duration of the nearest ``bench:`` spans
nested in it, so the layer times add up to the traced round.  Counts
are the program's obs counters plus the benchmark's own ``bench.*``
counters.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict

from repro.core.sampler import MEGsim
from repro.gpu.cycle_sim import CycleAccurateSimulator
from repro.gpu.functional_sim import FunctionalSimulator
from repro.obs import counter, span
from repro.parallel import parallel_map
from repro.pipeline import materialize_stage, run_pipeline, stage_fingerprints
from repro.analysis.runner import evaluate_benchmark
from repro.service import (
    ResultsDB,
    assemble_result,
    decode_request,
    encode_request,
    serve,
    submit_requests,
)
from repro.store import ArtifactStore
from repro.workloads.base import Workload

PREFIX = "bench:"

#: Span name -> the per-layer time metric its self time adds to.
SELF_TIME_METRICS = {
    "workloads.build": "workloads.build_s",
    "functional_sim.profile": "functional_sim.profile_s",
    "core.plan": "core.plan_s",
    "cycle_sim.ground_truth": "cycle_sim.ground_truth_s",
    "cycle_sim.representatives": "cycle_sim.representatives_s",
    "pipeline.fingerprint": "pipeline.fingerprint_s",
    "pipeline.evaluate": "pipeline.self_s",
    "pipeline.run": "pipeline.self_s",
    "pipeline.materialize": "pipeline.self_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "service.submit": "service.self_s",
    "service.serve": "service.self_s",
    "service.db": "service.db_s",
    "service.codec": "service.codec_s",
    "service.assemble": "service.assemble_s",
}

#: Every per-layer metric and its unit, in report order.
LAYER_METRICS = {
    "workloads.build_s": "s",
    "workloads.frames": "count",
    "workloads.draws": "count",
    "functional_sim.profile_s": "s",
    "functional_sim.us_per_frame": "us",
    "core.plan_s": "s",
    "core.kmeans_runs": "count",
    "core.kmeans_iterations": "count",
    "core.k_explored": "count",
    "core.representatives": "count",
    "cycle_sim.ground_truth_s": "s",
    "cycle_sim.representatives_s": "s",
    "cycle_sim.frames_simulated": "count",
    "cycle_sim.warmup_frames": "count",
    "cycle_sim.us_per_frame": "us",
    "cycle_sim.us_per_draw": "us",
    "pipeline.fingerprint_s": "s",
    "pipeline.self_s": "s",
    "pipeline.stages_computed": "count",
    "pipeline.stages_hit": "count",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.hits_memory": "count",
    "store.hits_disk": "count",
    "store.misses": "count",
    "store.hit_ratio": "ratio",
    "store.bytes_read": "bytes",
    "store.bytes_written": "bytes",
    "service.submit_s": "s",
    "service.drain_s": "s",
    "service.db_s": "s",
    "service.codec_s": "s",
    "service.assemble_s": "s",
    "service.self_s": "s",
    "service.ticks": "count",
    "service.jobs_done": "count",
    "service.jobs_deduped": "count",
    "service.job_attempts": "count",
    "parallel.map_s": "s",
    "parallel.overhead_s": "s",
    "parallel.waves": "count",
    "parallel.tasks": "count",
    "trace.overhead_pct": "%",
}


def _draws(trace, frame_ids=None) -> int:
    frames = trace.frames if frame_ids is None else [
        trace.frames[i] for i in set(frame_ids)
    ]
    return sum(len(frame.draw_calls) for frame in frames)


def _spanned(name, fn, on_result=None, on_call=None):
    """``fn`` wrapped in a ``bench:<name>`` span (name may depend on args)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(*args, **kwargs) if callable(name) else name
        if on_call is not None:
            on_call(*args, **kwargs)
        with span(PREFIX + span_name):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(result, *args, **kwargs)
        return result

    return wrapper


def _count_build(trace, *args, **kwargs):
    counter("bench.workloads.frames", trace.frame_count)
    counter("bench.workloads.draws", _draws(trace))


def _simulate_kind(self, trace, frame_ids=None, *args, **kwargs):
    kind = "ground_truth" if frame_ids is None else "representatives"
    return f"cycle_sim.{kind}"


def _count_simulated_draws(self, trace, frame_ids=None, *args, **kwargs):
    counter("bench.cycle_sim.draws", _draws(trace, frame_ids))


def _count_ticks(summary, *args, **kwargs):
    counter("bench.service.ticks", summary["ticks"])


def _count_tasks(fn, items, *args, **kwargs):
    counter("bench.parallel.waves")
    if isinstance(items, (list, tuple)):
        counter("bench.parallel.tasks", len(items))


class LayerTracer:
    """Installs and removes the benchmark's layer spans."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_method(self, cls, attr, name, **hooks) -> None:
        self._patch(cls, attr, _spanned(name, cls.__dict__[attr], **hooks))

    def _wrap_function(self, fn, name, **hooks) -> None:
        """Rebind every attribute bound to ``fn`` in the program's modules
        and the benchmark's own (except this one, which keeps originals)."""
        wrapper = _spanned(name, fn, **hooks)
        for module_name, module in list(sys.modules.items()):
            package = module_name.split(".")[0]
            if (
                package not in ("repro", "perfbench")
                or module_name == __name__
                or module is None
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics need."""
        pending = [Workload]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "build" in cls.__dict__ and cls is not Workload:
                self._wrap_method(
                    cls, "build", "workloads.build", on_result=_count_build
                )
        self._wrap_method(FunctionalSimulator, "profile", "functional_sim.profile")
        self._wrap_method(MEGsim, "plan_from_profile", "core.plan")
        self._wrap_method(
            CycleAccurateSimulator, "simulate", _simulate_kind,
            on_call=_count_simulated_draws,
        )
        self._wrap_function(stage_fingerprints, "pipeline.fingerprint")
        self._wrap_function(evaluate_benchmark, "pipeline.evaluate")
        self._wrap_function(run_pipeline, "pipeline.run")
        self._wrap_function(materialize_stage, "pipeline.materialize")
        self._wrap_method(ArtifactStore, "get", "store.get")
        self._wrap_method(ArtifactStore, "put", "store.put")
        self._wrap_function(submit_requests, "service.submit")
        self._wrap_function(serve, "service.serve", on_result=_count_ticks)
        self._wrap_function(encode_request, "service.codec")
        self._wrap_function(decode_request, "service.codec")
        self._wrap_function(assemble_result, "service.assemble")
        for attr, value in list(vars(ResultsDB).items()):
            if inspect.isfunction(value) and (
                not attr.startswith("_") or attr == "__init__"
            ):
                self._wrap_method(ResultsDB, attr, "service.db")
        self._wrap_function(parallel_map, "parallel.map", on_call=_count_tasks)

    def remove(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


def _bench_children(record):
    """The nearest ``bench:`` spans below ``record``."""
    for child in record.children:
        if child.name.startswith(PREFIX):
            yield child
        else:
            yield from _bench_children(child)


def _walk(record):
    yield record
    for child in record.children:
        yield from _walk(child)


def bench_spans(collector):
    """Every ``bench:`` span of a collector with its nearest bench parent.

    Yields ``(span, parent_span_or_None, self_seconds)``.
    """

    def visit(record, parent):
        if record.name.startswith(PREFIX):
            inner = list(_bench_children(record))
            own = record.elapsed_seconds - sum(c.elapsed_seconds for c in inner)
            yield record, parent, max(0.0, own)
            parent = record
        for child in record.children:
            yield from visit(child, parent)

    for root in collector.roots:
        yield from visit(root, None)


def layer_metrics(collector, jobs_rows: dict[str, int], jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    Args:
        collector: the :class:`repro.obs.Collector` the round ran under.
        jobs_rows: ``jobs_done``/``job_attempts`` read from the service
            database (zeros when the round used no service).
        jobs: worker processes the round's ``parallel_map`` calls used.
    """
    values: dict[str, float] = defaultdict(float)
    for record, _parent, own in bench_spans(collector):
        name = record.name[len(PREFIX):]
        if name in SELF_TIME_METRICS:
            values[SELF_TIME_METRICS[name]] += own
        if name == "service.submit":
            values["service.submit_s"] += record.elapsed_seconds
        elif name == "service.serve":
            values["service.drain_s"] += record.elapsed_seconds
        elif name == "parallel.map":
            # Pool waves adopt each task's span trees labelled with a
            # worker attr; inline waves record straight into the tree.
            adopted = [r for r in _walk(record) if "worker" in r.attrs]
            busy = sum(r.elapsed_seconds for r in adopted or record.children)
            width = min(jobs, len({r.attrs["worker"] for r in adopted})) or 1
            values["parallel.map_s"] += record.elapsed_seconds
            values["parallel.overhead_s"] += max(
                0.0, record.elapsed_seconds - busy / width
            )
    counters = collector.counters

    def total(prefix: str) -> float:
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    values["workloads.frames"] = counters.get("bench.workloads.frames", 0.0)
    values["workloads.draws"] = counters.get("bench.workloads.draws", 0.0)
    profiled = counters.get("functional.frames_profiled", 0.0)
    values["functional_sim.us_per_frame"] = (
        values["functional_sim.profile_s"] / profiled * 1e6 if profiled else 0.0
    )
    values["core.kmeans_runs"] = counters.get("cluster.kmeans_runs", 0.0)
    values["core.kmeans_iterations"] = counters.get("cluster.kmeans_iterations", 0.0)
    values["core.k_explored"] = counters.get("cluster.k_explored", 0.0)
    values["core.representatives"] = counters.get("megsim.representatives", 0.0)
    simulated = counters.get("cycle.frames_simulated", 0.0)
    draws = counters.get("bench.cycle_sim.draws", 0.0)
    cycle_s = values["cycle_sim.ground_truth_s"] + values["cycle_sim.representatives_s"]
    values["cycle_sim.frames_simulated"] = simulated
    values["cycle_sim.warmup_frames"] = counters.get("cycle.warmup_frames", 0.0)
    values["cycle_sim.us_per_frame"] = cycle_s / simulated * 1e6 if simulated else 0.0
    values["cycle_sim.us_per_draw"] = cycle_s / draws * 1e6 if draws else 0.0
    values["pipeline.stages_computed"] = total("pipeline.computed.")
    values["pipeline.stages_hit"] = total("pipeline.hits.")
    hits_memory = counters.get("store.hits.memory", 0.0)
    hits_disk = counters.get("store.hits.disk", 0.0)
    misses = counters.get("store.misses", 0.0)
    lookups = hits_memory + hits_disk + misses
    values["store.hits_memory"] = hits_memory
    values["store.hits_disk"] = hits_disk
    values["store.misses"] = misses
    values["store.hit_ratio"] = (hits_memory + hits_disk) / lookups if lookups else 0.0
    values["store.bytes_read"] = counters.get("store.bytes_read", 0.0)
    values["store.bytes_written"] = counters.get("store.bytes_written", 0.0)
    values["service.ticks"] = counters.get("bench.service.ticks", 0.0)
    values["service.jobs_done"] = float(jobs_rows["jobs_done"])
    values["service.jobs_deduped"] = total("service.jobs.deduped.")
    values["service.job_attempts"] = float(jobs_rows["job_attempts"])
    values["parallel.waves"] = counters.get("bench.parallel.waves", 0.0)
    values["parallel.tasks"] = counters.get("bench.parallel.tasks", 0.0)
    return {name: values.get(name, 0.0) for name in LAYER_METRICS}


def span_records(collector, run_id: str) -> list[dict]:
    """The round's ``bench:`` spans as plain dicts, for the trace file.

    ``start``/``end`` are ``perf_counter`` seconds; spans recorded in a
    pool worker start at 0, because the program's worker buffers keep
    only durations.
    """
    records = []
    for record, parent, own in bench_spans(collector):
        records.append({
            "run_id": run_id,
            "trace_id": collector.trace_id,
            "span_id": record.span_id,
            "parent": None if parent is None else parent.span_id,
            "name": record.name[len(PREFIX):],
            "start": record.started,
            "end": record.ended,
            "self_s": own,
        })
    return records
