"""The typed stage graph of the evaluation pipeline.

Each :class:`Stage` declares what :class:`~repro.pipeline.request.PipelineRequest`
parameters it reads (``params``), which upstream stages it consumes
(``requires``), how to compute its artifact (``compute``) and how the
artifact round-trips through the store (``encode``/``decode``).  The
six stages, in dependency order::

    trace ──────────────┬──> profile ──> plan ──┐
      │                 │                       ├──> representatives ──┐
      ├──> ground_truth─┼───────────────────────┘                      ├──> estimate
      └─────────────────┘                                              │
                                      (plan) ──────────────────────────┘

A stage's codec decides where its artifact lives: the five stages with
``encode``/``decode`` hooks are written to the store's disk tier, while
the trace has none — it is derived, kept in the memory tier only and
regenerated from ``(workload, scale)`` whenever a downstream stage
misses.

Fingerprints are content addresses over *inputs*, computed without
running anything: a stage's fingerprint hashes its name, its schema
``version``, the package version, its request parameters and the
fingerprints of every stage it requires — so any upstream change
(different alias, scale, GPU configuration, MEGsim knobs, or a bumped
stage version) transparently invalidates all downstream artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.sampler import MEGsim, SamplingPlan
from repro.errors import ConfigError
from repro.gpu.cycle_sim import CycleAccurateSimulator, SequenceResult
from repro.gpu.functional_sim import FunctionalSimulator, SequenceProfile
from repro.gpu.stats import FrameStats
from repro.obs import span
from repro.pipeline.request import PipelineRequest
from repro.scene.trace import WorkloadTrace
from repro.store.fingerprint import fingerprint
from repro.version import __version__
from repro.workloads.registry import resolve_workload


@dataclass(frozen=True)
class Stage:
    """One typed pipeline stage.

    Attributes:
        name: stage identifier, unique across :data:`STAGES`.
        kind: artifact kind in the store (also the directory name).
        version: stage schema version; bump when the computation or the
            serialized layout changes incompatibly — old artifacts then
            stop matching by fingerprint instead of being misread.
        requires: names of the upstream stages ``compute`` consumes.
        params: request parameters folded into the fingerprint.
        compute: produce the artifact from the request and the upstream
            artifacts (a ``name -> artifact`` mapping).
        encode / decode: store serialization hooks.  They also decide
            disk residency: a stage whose hooks are ``None`` is derived
            — kept in the store's memory tier only and recomputed from
            its inputs whenever a fresh process needs it.
    """

    name: str
    kind: str
    version: int
    requires: tuple[str, ...]
    params: Callable[[PipelineRequest], dict]
    compute: Callable[[PipelineRequest, dict[str, Any]], Any]
    encode: Callable[[Any], dict] | None
    decode: Callable[[dict], Any] | None

    @property
    def stored(self) -> bool:
        """Whether the artifact goes to the disk tier (it has a codec)."""
        return self.encode is not None


def _compute_trace(request: PipelineRequest, artifacts: dict) -> WorkloadTrace:
    with span("workload.generate", benchmark=request.alias, scale=request.scale):
        workload = resolve_workload(request.workload, request.alias)
        return workload.build(scale=request.scale)


def _trace_params(request: PipelineRequest) -> dict:
    # Synthetic benchmarks (workload=None) keep the exact pre-registry
    # parameter shape, so their stage fingerprints — and every stored
    # artifact keyed on them — remain byte-identical.  Only explicit
    # workload refs add a key, and only via their path-free identity.
    params = {"alias": request.alias, "scale": request.scale}
    if request.workload is not None:
        params["workload"] = request.workload.identity()
    return params


def _compute_profile(request: PipelineRequest, artifacts: dict) -> SequenceProfile:
    return FunctionalSimulator(request.config).profile(artifacts["trace"])


def _compute_plan(request: PipelineRequest, artifacts: dict) -> SamplingPlan:
    return MEGsim(request.options).plan_from_profile(artifacts["profile"])


def _compute_ground_truth(
    request: PipelineRequest, artifacts: dict
) -> SequenceResult:
    with span("evaluate.ground_truth", benchmark=request.alias):
        return CycleAccurateSimulator(request.config).simulate(
            artifacts["trace"]
        )


def _compute_representatives(
    request: PipelineRequest, artifacts: dict
) -> SequenceResult:
    plan = artifacts["plan"]
    with span(
        "evaluate.representatives",
        benchmark=request.alias,
        frames=plan.selected_frame_count,
    ):
        return CycleAccurateSimulator(request.config).simulate(
            artifacts["trace"], frame_ids=list(plan.representative_frames)
        )


def _compute_estimate(request: PipelineRequest, artifacts: dict) -> FrameStats:
    representatives = artifacts["representatives"]
    return artifacts["plan"].estimate(
        dict(zip(representatives.frame_ids, representatives.frame_stats))
    )


#: The pipeline, in dependency order (``requires`` only points backwards).
STAGES: tuple[Stage, ...] = (
    Stage(
        name="trace",
        kind="trace",
        version=1,
        requires=(),
        params=_trace_params,
        compute=_compute_trace,
        # Derived, never stored: a synthetic trace is a pure function of
        # (workload, scale) and a replay is re-read from its capture, so
        # regenerating is cheaper than storing, reading and decoding.
        encode=None,
        decode=None,
    ),
    Stage(
        name="profile",
        kind="profile",
        version=1,
        requires=("trace",),
        params=lambda request: {"config": request.config},
        compute=_compute_profile,
        encode=lambda profile: profile.to_dict(),
        decode=SequenceProfile.from_dict,
    ),
    Stage(
        name="plan",
        kind="plan",
        # v2: warm-started BIC sweep (split seeding, mixed per-k seeds,
        # saturation/plateau stopping) — plans are not comparable to v1's.
        version=2,
        requires=("profile",),
        params=lambda request: {"options": request.options},
        compute=_compute_plan,
        encode=lambda plan: plan.to_dict(include_features=True),
        decode=SamplingPlan.from_dict,
    ),
    Stage(
        name="ground_truth",
        kind="ground_truth",
        version=1,
        requires=("trace",),
        params=lambda request: {"config": request.config},
        compute=_compute_ground_truth,
        encode=lambda result: result.to_dict(),
        decode=SequenceResult.from_dict,
    ),
    Stage(
        name="representatives",
        kind="representatives",
        version=1,
        requires=("trace", "plan"),
        params=lambda request: {"config": request.config},
        compute=_compute_representatives,
        encode=lambda result: result.to_dict(),
        decode=SequenceResult.from_dict,
    ),
    Stage(
        name="estimate",
        kind="estimate",
        version=1,
        requires=("plan", "representatives"),
        params=lambda request: {},
        compute=_compute_estimate,
        encode=lambda stats: stats.to_dict(),
        decode=FrameStats.from_dict,
    ),
)


def validate_stages(stages: tuple[Stage, ...] = STAGES) -> None:
    """Check the stage graph is a forward-only DAG with unique names.

    Raises:
        ConfigError: on a duplicate name/kind or a ``requires`` entry
            that does not point at an *earlier* stage.
    """
    seen: set[str] = set()
    kinds: set[str] = set()
    for stage in stages:
        if stage.name in seen:
            raise ConfigError(f"duplicate stage name {stage.name!r}")
        if stage.kind in kinds:
            raise ConfigError(f"duplicate stage kind {stage.kind!r}")
        for dependency in stage.requires:
            if dependency not in seen:
                raise ConfigError(
                    f"stage {stage.name!r} requires {dependency!r}, which is "
                    "not an earlier stage"
                )
        seen.add(stage.name)
        kinds.add(stage.kind)


def stage_fingerprints(request: PipelineRequest) -> dict[str, str]:
    """Compute every stage's input fingerprint, without running anything.

    Returns a ``stage name -> hex digest`` mapping covering the whole
    graph; downstream fingerprints embed their upstreams', so equality
    of one fingerprint implies equality of its entire input cone.
    """
    fps: dict[str, str] = {}
    for stage in STAGES:
        fps[stage.name] = fingerprint(
            {
                "stage": stage.name,
                "version": stage.version,
                "repro": __version__,
                "params": stage.params(request),
                "requires": {name: fps[name] for name in stage.requires},
            }
        )
    return fps


def evaluation_fingerprint(
    request: PipelineRequest, fingerprints: dict[str, str] | None = None
) -> str:
    """Address of the fully assembled evaluation (memory-tier only).

    The ``estimate`` stage's fingerprint already covers the whole input
    cone — alias, scale, options and config — so the assembled
    :class:`~repro.analysis.runner.BenchmarkEvaluation` is keyed off it.
    """
    fps = fingerprints if fingerprints is not None else stage_fingerprints(request)
    return fingerprint({"evaluation": 1, "estimate": fps["estimate"]})
