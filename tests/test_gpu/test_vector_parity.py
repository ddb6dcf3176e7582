"""Engine parity: the batched engine must match the scalar reference.

The batched engine behind ``CycleAccurateSimulator`` is only admissible
because it is bit-identical to the scalar reference loop
(docs/simulation-backends.md).  These tests assert that contract on every
rendering mode — with the Table I caches and with caches small enough to
drive the replay's over-capacity and eviction branches under overlapping
warmup windows — plus the harness's own guarantees (deterministic
sampling, field-level mismatch reporting) and the frame-selection fixes
(duplicate dedup, empty-selection error).
"""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.gpu.config import CacheConfig, GPUConfig
from repro.gpu.cycle_sim import CycleAccurateSimulator, build_schedule
from repro.gpu.parity import (
    check_backend_parity,
    compare_results,
    reference_simulate,
    sample_frame_ids,
)
from repro.workloads.benchmarks import make_benchmark

#: Caches a few regions deep: on the short benchmark below, every L1,
#: the tile cache and the L2 see both regions larger than the whole
#: cache (the over-capacity branch) and LRU evictions of resident ones.
SMALL_CACHES = GPUConfig(
    vertex_cache=CacheConfig("vertex", 2 * 1024, latency_cycles=1),
    texture_cache=CacheConfig("texture", 4 * 1024, latency_cycles=2),
    tile_cache=CacheConfig("tile", 8 * 1024, latency_cycles=2),
    l2_cache=CacheConfig("l2", 32 * 1024, banks=8, latency_cycles=18),
)


@pytest.fixture(scope="module")
def short_benchmark():
    """A 20-frame Table II benchmark (enough frames for wide warmups)."""
    return make_benchmark("hcr", scale=0.01)


class TestParity:
    @pytest.mark.parametrize(
        "mode, small_caches",
        [(mode, False) for mode in ("tbr", "tbdr", "imr")]
        + [(mode, True) for mode in ("tbr", "tbdr", "imr")],
        ids=["tbr", "tbdr", "imr", "tbr-small-caches", "tbdr-small-caches",
             "imr-small-caches"],
    )
    def test_bit_identical_per_mode(self, request, mode, small_caches):
        if small_caches:
            # Warmup windows of 3 before frames 3, 4 and 9 overlap: frame
            # 4's window is frame 3 itself, so the schedule interleaves
            # kept and warmup frames against already-thrashed caches.
            report = check_backend_parity(
                request.getfixturevalue("short_benchmark"),
                config=dataclasses.replace(SMALL_CACHES, rendering_mode=mode),
                frame_ids=[3, 4, 9],
                warmup_frames=3,
            )
        else:
            report = check_backend_parity(
                request.getfixturevalue("tiny_trace"),
                config=GPUConfig(rendering_mode=mode),
            )
        assert report.identical, report.mismatches
        assert report.mismatches == ()

    def test_full_sequence_identity(self, tiny_trace):
        _, schedule = build_schedule(tiny_trace)
        reference = reference_simulate(tiny_trace, schedule, GPUConfig())
        engine = CycleAccurateSimulator().simulate(tiny_trace)
        assert engine.frame_ids == tuple(range(tiny_trace.frame_count))
        assert list(engine.frame_stats) == reference

    def test_parity_with_warmup(self, tiny_trace):
        report = check_backend_parity(
            tiny_trace, frame_ids=[2, 4], warmup_frames=2
        )
        assert report.identical, report.mismatches

    def test_report_shape(self, tiny_trace):
        report = check_backend_parity(tiny_trace)
        assert report.trace_name == tiny_trace.name
        assert report.frame_ids == tuple(range(tiny_trace.frame_count))
        payload = report.to_dict()
        assert payload["identical"] is True
        assert payload["mismatches"] == []

    def test_compare_reports_field_mismatch(self, tiny_trace):
        result = CycleAccurateSimulator().simulate(tiny_trace, frame_ids=[0, 1])
        stats = list(result.frame_stats)
        stats[1] = dataclasses.replace(stats[1], cycles=stats[1].cycles + 1.0)
        doctored = dataclasses.replace(result, frame_stats=tuple(stats))
        mismatches = compare_results(result, doctored)
        assert len(mismatches) == 1
        assert "frame 1" in mismatches[0] and "cycles" in mismatches[0]


class TestSampling:
    def test_small_trace_takes_all_frames(self):
        assert sample_frame_ids(5, max_frames=16) == [0, 1, 2, 3, 4]

    def test_large_trace_strides_and_keeps_last(self):
        sampled = sample_frame_ids(1000, max_frames=16)
        assert len(sampled) == 16
        assert sampled[0] == 0
        assert sampled[-1] == 999
        assert sampled == sorted(set(sampled))

    def test_deterministic(self):
        assert sample_frame_ids(317, max_frames=9) == sample_frame_ids(
            317, max_frames=9
        )

    def test_rejects_empty_trace(self):
        with pytest.raises(SimulationError):
            sample_frame_ids(0)

    def test_rejects_bad_max(self):
        with pytest.raises(SimulationError):
            sample_frame_ids(10, max_frames=0)


class TestFrameSelection:
    """Regression tests for the simulate() frame-selection fixes."""

    def test_duplicate_frame_ids_deduplicated(self, tiny_trace):
        sim = CycleAccurateSimulator()
        duplicated = sim.simulate(tiny_trace, frame_ids=[3, 3, 5, 5, 3])
        clean = sim.simulate(tiny_trace, frame_ids=[3, 5])
        assert duplicated.frame_ids == (3, 5)
        assert duplicated.frame_stats == clean.frame_stats

    def test_empty_frame_ids_rejected(self, tiny_trace):
        # The schedule builder is shared by the engine and the reference.
        with pytest.raises(SimulationError, match="empty frame selection"):
            build_schedule(tiny_trace, frame_ids=[])

    def test_empty_frame_ids_rejected_by_vector_backend(self, tiny_trace):
        with pytest.raises(SimulationError, match="empty frame selection"):
            CycleAccurateSimulator().simulate(tiny_trace, frame_ids=[])

    def test_overlapping_warmup_windows_never_rerun_a_frame(
        self, short_benchmark
    ):
        selected, schedule = build_schedule(
            short_benchmark, frame_ids=[9, 3, 4], warmup_frames=3
        )
        assert selected == [3, 4, 9]
        assert schedule == [
            (0, False), (1, False), (2, False), (3, True), (4, True),
            (6, False), (7, False), (8, False), (9, True),
        ]

