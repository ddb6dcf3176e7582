"""Engine parity harness: the batched engine vs. the scalar reference.

The batched engine (:mod:`repro.gpu.vector`) behind
:class:`~repro.gpu.cycle_sim.CycleAccurateSimulator` is only admissible
because it is *exactly* the per-access scalar event loop executed
differently — every :class:`~repro.gpu.stats.FrameStats` field, including
floats whose value depends on addition order, must match bit for bit.
This module keeps that scalar loop, :func:`reference_simulate`, as the
oracle, and checks the claim directly: run both over a deterministic
sample of a trace's frames and compare every per-frame statistic.

Sampling is a fixed stride over the frame range (no RNG — the harness
must itself be reproducible), so the same trace always checks the same
subset.  ``megsim bench`` exposes it as the ``backend_compare``
experiment (the ``parity`` spec) together with the measured speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import SimulationError
from repro.gpu.cache import CacheStats
from repro.gpu.config import FRAME_OVERHEAD_CYCLES, GPUConfig, default_config
from repro.gpu.cycle_sim import (
    CycleAccurateSimulator,
    SequenceResult,
    build_schedule,
)
from repro.gpu.dram import DRAMStats
from repro.gpu.geometry import simulate_geometry
from repro.gpu.hierarchy import MemorySystem
from repro.gpu.power import PowerModel
from repro.gpu.raster import simulate_raster
from repro.gpu.stats import FrameStats
from repro.gpu.tiling import simulate_tiling
from repro.gpu.workmodel import compute_frame_work
from repro.obs import span
from repro.scene.trace import WorkloadTrace

#: Default ceiling on sampled frames per parity run.
DEFAULT_SAMPLE_FRAMES = 16


def reference_simulate(
    trace: WorkloadTrace,
    schedule: list[tuple[int, bool]],
    config: GPUConfig,
    cache_model: str = "region",
) -> list[FrameStats]:
    """Simulate ``schedule`` with the per-access scalar event loop.

    Every draw call of every scheduled frame walks the stage models
    through one persistent :class:`~repro.gpu.hierarchy.MemorySystem`;
    per-frame memory statistics are deltas of cache/DRAM snapshots taken
    around the frame.  ``schedule`` comes from
    :func:`~repro.gpu.cycle_sim.build_schedule`, like the engine's;
    statistics are returned for kept frames only, in schedule order.

    ``cache_model="line"`` swaps in the exact set-associative caches
    (:mod:`repro.gpu.line_adapter`), which the engine does not model.
    """
    mem = MemorySystem(config, cache_model=cache_model)
    power_model = PowerModel()
    textures = {t.texture_id: t for t in trace.textures}
    kept: list[FrameStats] = []
    for fid, keep in schedule:
        before = _snapshot(mem)
        # Per-frame phase attribution is rebuilt from scratch each frame.
        mem.l2_accesses_by_phase = {p: 0 for p in mem.l2_accesses_by_phase}
        mem.dram_lines_by_phase = {p: 0 for p in mem.dram_lines_by_phase}

        work = compute_frame_work(trace.frames[fid], config)
        geometry = simulate_geometry(work, config, mem)
        tiling = simulate_tiling(work, config, mem)
        raster = simulate_raster(work, config, mem, textures)

        stats = FrameStats(
            geometry_cycles=geometry.cycles,
            tiling_cycles=tiling.cycles,
            raster_cycles=raster.cycles,
            stall_cycles=geometry.stall_cycles
            + tiling.stall_cycles
            + raster.stall_cycles,
            vertex_instructions=geometry.vertex_instructions,
            fragment_instructions=raster.fragment_instructions,
            vertices_shaded=work.vertices_shaded,
            primitives_submitted=work.primitives_submitted,
            primitives_binned=work.primitives_binned,
            prim_tile_pairs=work.prim_tile_pairs,
            fragments_generated=work.fragments_generated,
            fragments_shaded=work.fragments_shaded,
        )
        after = _snapshot(mem)
        _fill_memory_deltas(stats, before, after)

        if config.rendering_mode == "imr":
            # No binning barrier: geometry streams straight into the
            # rasterizer, so the phases fully overlap.
            cycles = max(geometry.cycles, raster.cycles) + FRAME_OVERHEAD_CYCLES
        else:
            # TBR/TBDR: rasterization of a frame starts only once its
            # polygon lists are complete; geometry and binning overlap.
            cycles = (
                max(geometry.cycles, tiling.cycles)
                + raster.cycles
                + FRAME_OVERHEAD_CYCLES
            )
        dram_busy = after["dram"].busy_cycles - before["dram"].busy_cycles
        stats.cycles = max(cycles, float(dram_busy))

        power_model.attribute_frame(stats, mem)
        if keep:
            kept.append(stats)
    return kept


def _copy_cache_stats(stats: CacheStats) -> CacheStats:
    return CacheStats(
        accesses=stats.accesses,
        hits=stats.hits,
        misses=stats.misses,
        writebacks=stats.writebacks,
    )


def _snapshot(mem: MemorySystem) -> dict:
    return {
        "vertex": _copy_cache_stats(mem.vertex_cache.stats),
        "texture": _copy_cache_stats(mem.texture_stats()),
        "tile": _copy_cache_stats(mem.tile_cache.stats),
        "l2": _copy_cache_stats(mem.l2.stats),
        "color": _copy_cache_stats(mem.color_buffer),
        "depth": _copy_cache_stats(mem.depth_buffer),
        "dram": DRAMStats(
            read_accesses=mem.dram.stats.read_accesses,
            write_accesses=mem.dram.stats.write_accesses,
            row_hits=mem.dram.stats.row_hits,
            row_misses=mem.dram.stats.row_misses,
            busy_cycles=mem.dram.stats.busy_cycles,
        ),
    }


def _cache_delta(after: CacheStats, before: CacheStats) -> CacheStats:
    return CacheStats(
        accesses=after.accesses - before.accesses,
        hits=after.hits - before.hits,
        misses=after.misses - before.misses,
        writebacks=after.writebacks - before.writebacks,
    )


def _fill_memory_deltas(stats: FrameStats, before: dict, after: dict) -> None:
    stats.vertex_cache = _cache_delta(after["vertex"], before["vertex"])
    stats.texture_cache = _cache_delta(after["texture"], before["texture"])
    stats.tile_cache = _cache_delta(after["tile"], before["tile"])
    stats.l2_cache = _cache_delta(after["l2"], before["l2"])
    stats.color_buffer = _cache_delta(after["color"], before["color"])
    stats.depth_buffer = _cache_delta(after["depth"], before["depth"])
    stats.dram = DRAMStats(
        read_accesses=after["dram"].read_accesses - before["dram"].read_accesses,
        write_accesses=after["dram"].write_accesses - before["dram"].write_accesses,
        row_hits=after["dram"].row_hits - before["dram"].row_hits,
        row_misses=after["dram"].row_misses - before["dram"].row_misses,
        busy_cycles=after["dram"].busy_cycles - before["dram"].busy_cycles,
    )


@dataclass(frozen=True, slots=True)
class ParityReport:
    """Outcome of one engine-vs-reference comparison."""

    trace_name: str
    frame_ids: tuple[int, ...]
    identical: bool
    mismatches: tuple[str, ...]
    scalar_seconds: float
    vector_seconds: float

    @property
    def speedup(self) -> float:
        """Reference wall time over engine wall time (>1 = engine faster)."""
        if self.vector_seconds <= 0.0:
            return float("inf")
        return self.scalar_seconds / self.vector_seconds

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "trace_name": self.trace_name,
            "frame_ids": list(self.frame_ids),
            "identical": self.identical,
            "mismatches": list(self.mismatches),
            "scalar_seconds": self.scalar_seconds,
            "vector_seconds": self.vector_seconds,
        }


def sample_frame_ids(
    frame_count: int, max_frames: int = DEFAULT_SAMPLE_FRAMES
) -> list[int]:
    """Deterministically sample up to ``max_frames`` ids from a trace.

    A fixed stride starting at frame 0 and always including the last
    frame: early frames exercise cold caches, late frames warmed state.
    """
    if frame_count < 1:
        raise SimulationError("cannot sample an empty trace")
    if max_frames < 1:
        raise SimulationError(f"max_frames must be >= 1, got {max_frames}")
    if frame_count <= max_frames:
        return list(range(frame_count))
    stride = frame_count // max_frames
    sampled = list(range(0, frame_count, stride))[:max_frames]
    sampled[-1] = frame_count - 1
    return sampled


def compare_results(
    scalar: SequenceResult, vector: SequenceResult
) -> tuple[str, ...]:
    """Field-level differences between two runs (empty = bit-identical).

    ``elapsed_seconds`` is excluded: wall time is the one field the
    reference and the engine are *supposed* to disagree on.
    """
    mismatches: list[str] = []
    if scalar.frame_ids != vector.frame_ids:
        return (
            f"frame_ids differ: {scalar.frame_ids} vs {vector.frame_ids}",
        )
    stat_fields = [f.name for f in fields(type(scalar.frame_stats[0]))] if (
        scalar.frame_stats
    ) else []
    for frame_id, left, right in zip(
        scalar.frame_ids, scalar.frame_stats, vector.frame_stats
    ):
        if left == right:
            continue
        for name in stat_fields:
            a, b = getattr(left, name), getattr(right, name)
            if a != b:
                mismatches.append(
                    f"frame {frame_id}: {name} {a!r} != {b!r}"
                )
    return tuple(mismatches)


def check_backend_parity(
    trace: WorkloadTrace,
    config: GPUConfig | None = None,
    frame_ids: list[int] | None = None,
    max_frames: int = DEFAULT_SAMPLE_FRAMES,
    warmup_frames: int = 0,
) -> ParityReport:
    """Run the reference and the engine over a frame sample, bit for bit.

    Args:
        trace: the workload to check.
        config: GPU configuration (``None`` = Table I baseline).
        frame_ids: explicit frame subset; ``None`` uses
            :func:`sample_frame_ids`.
        max_frames: sample ceiling when ``frame_ids`` is ``None``.
        warmup_frames: warmup depth passed to both.

    Returns:
        A report whose ``identical`` flag is the parity verdict.
    """
    config = config if config is not None else default_config()
    if frame_ids is None:
        frame_ids = sample_frame_ids(trace.frame_count, max_frames)
    selected, schedule = build_schedule(trace, frame_ids, warmup_frames)
    with span(
        "parity.reference", trace=trace.name, frames=len(selected)
    ) as timing:
        reference_stats = reference_simulate(trace, schedule, config)
    scalar = SequenceResult(
        trace_name=trace.name,
        frame_ids=tuple(selected),
        frame_stats=tuple(reference_stats),
        elapsed_seconds=timing.elapsed_seconds,
    )
    vector = CycleAccurateSimulator(config).simulate(
        trace, frame_ids=frame_ids, warmup_frames=warmup_frames
    )
    mismatches = compare_results(scalar, vector)
    return ParityReport(
        trace_name=trace.name,
        frame_ids=scalar.frame_ids,
        identical=not mismatches,
        mismatches=mismatches,
        scalar_seconds=scalar.elapsed_seconds,
        vector_seconds=vector.elapsed_seconds,
    )
