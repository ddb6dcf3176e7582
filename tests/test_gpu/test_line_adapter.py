"""Tests for the line-granular validation mode of the scalar reference
(``reference_simulate(..., cache_model="line")``)."""

import pytest

from repro.errors import SimulationError
from repro.gpu.config import CacheConfig, default_config
from repro.gpu.cycle_sim import build_schedule
from repro.gpu.hierarchy import MemorySystem
from repro.gpu.line_adapter import LineBackedRegionCache
from repro.gpu.parity import reference_simulate
from repro.gpu.region_cache import RegionCache
from repro.gpu.stats import FrameStats


def make_cache(size=1024) -> LineBackedRegionCache:
    return LineBackedRegionCache(CacheConfig("t", size, 64, associativity=2))


class TestAdapter:
    def test_first_sweep_misses_every_line(self):
        cache = make_cache()
        result = cache.access("a", 4, 8)
        assert result.misses == 4
        assert cache.stats.accesses == 8

    def test_resident_region_hits(self):
        cache = make_cache()
        cache.access("a", 4, 4)
        assert cache.access("a", 4, 4).misses == 0

    def test_distinct_keys_do_not_alias(self):
        cache = make_cache(size=64 * 1024)
        cache.access("a", 4, 4)
        cache.access("b", 4, 4)
        assert cache.access("a", 4, 4).misses == 0

    def test_streaming_region_restreams(self):
        cache = make_cache(size=256)  # 4 lines
        cache.access("big", 64, 64)
        assert cache.access("big", 64, 64).misses == 64

    def test_writebacks_on_dirty_eviction(self):
        cache = make_cache(size=256)
        result = cache.access("big", 64, 64, write=True)
        # Streaming dirty lines get evicted (all but the resident tail).
        assert result.writeback_lines >= 64 - 4

    def test_total_accesses_spread_over_lines(self):
        cache = make_cache()
        cache.access("a", 3, 10)
        assert cache.stats.accesses == 10
        assert cache.stats.misses == 3

    def test_invalid_args(self):
        with pytest.raises(SimulationError):
            make_cache().access("a", 0, 1)

    def test_flush(self):
        cache = make_cache()
        cache.access("a", 4, 4, write=True)
        assert cache.flush() == 4


class TestAgreementWithRegionModel:
    def test_sweep_sequence_matches(self):
        """On its design domain (whole-region sweeps, no conflicts) the two
        models agree exactly."""
        config = CacheConfig("t", 2048, 64, associativity=32)  # fully assoc.
        line = LineBackedRegionCache(config)
        region = RegionCache(config)
        sequence = [("a", 8), ("b", 8), ("a", 8), ("c", 20), ("a", 8)]
        for key, lines in sequence:
            got = line.access(key, lines, lines)
            expected = region.access(key, lines, lines)
            assert got.misses == expected.misses, (key, lines)


class TestSimulatorIntegration:
    def test_memory_system_accepts_line_model(self):
        mem = MemorySystem(default_config(), cache_model="line")
        result = mem.access("vertex", "vb", 4, 4, phase="geometry")
        assert result.l1_misses == 4

    def test_unknown_model_rejected(self):
        with pytest.raises(SimulationError):
            MemorySystem(default_config(), cache_model="quantum")

    def test_line_mode_close_to_region_mode(self, tiny_trace):
        _, schedule = build_schedule(tiny_trace)
        config = default_config()
        region = FrameStats.total(
            reference_simulate(tiny_trace, schedule, config)
        )
        line = FrameStats.total(
            reference_simulate(tiny_trace, schedule, config, cache_model="line")
        )
        # Work counts are identical by construction.
        assert line.fragments_shaded == region.fragments_shaded
        # Memory behaviour agrees within the conflict-miss margin the
        # region model ignores.
        assert line.l2_accesses == pytest.approx(region.l2_accesses, rel=0.25)
        assert line.dram_accesses == pytest.approx(
            region.dram_accesses, rel=0.25
        )
