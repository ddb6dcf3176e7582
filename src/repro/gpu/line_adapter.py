"""Line-granular backing for the region access API.

:class:`LineBackedRegionCache` exposes the same region-batch interface as
:class:`repro.gpu.region_cache.RegionCache` but executes every access
against the exact set-associative LRU model in :mod:`repro.gpu.cache`,
enumerating the individual cache lines of each region.

This is the validation path (``cache_model="line"`` on the scalar
reference, :func:`repro.gpu.parity.reference_simulate`): bit-exact set-indexed behaviour including conflict misses, at
a per-line Python cost that limits it to short traces.  Region identities
are mapped to disjoint synthetic address ranges so distinct resources
never alias by construction (matching the region model's assumption).
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import CacheConfig
from repro.gpu.region_cache import RegionAccessResult

# Regions are spaced far apart so a growing region never collides with its
# neighbour: 2^22 lines = 256 MiB of address space per region.
_REGION_SPAN_LINES = 1 << 22


class LineBackedRegionCache:
    """Region-batch facade over the exact line-granular cache model."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._cache = SetAssociativeCache(config)
        self._bases: dict[object, int] = {}

    @property
    def stats(self):
        """Counter object shared with the underlying line cache."""
        return self._cache.stats

    @property
    def capacity_lines(self) -> int:
        """Total line capacity of the cache."""
        return self.config.lines

    @property
    def resident_lines(self) -> int:
        """Lines currently resident in the underlying cache."""
        return self._cache.resident_lines

    def _base_address(self, key: object) -> int:
        base = self._bases.get(key)
        if base is None:
            base = len(self._bases) * _REGION_SPAN_LINES * self.config.line_bytes
            self._bases[key] = base
        return base

    def access(
        self,
        key: object,
        distinct_lines: int,
        total_accesses: int,
        write: bool = False,
    ) -> RegionAccessResult:
        """Sweep the region's lines through the exact cache model.

        The batch's ``total_accesses`` are spread over the distinct lines
        as evenly as possible (a region sweep), preserving both the access
        total and the per-line touch order the region model assumes.
        """
        if distinct_lines < 1:
            raise SimulationError(f"distinct_lines must be >= 1, got {distinct_lines}")
        if total_accesses < 1:
            raise SimulationError(f"total_accesses must be >= 1, got {total_accesses}")
        if distinct_lines > _REGION_SPAN_LINES:
            raise SimulationError(
                f"region of {distinct_lines} lines exceeds the synthetic span"
            )
        total_accesses = max(total_accesses, distinct_lines)
        base = self._base_address(key)
        line_bytes = self.config.line_bytes
        per_line = total_accesses // distinct_lines
        extra = total_accesses - per_line * distinct_lines

        writebacks_before = self._cache.stats.writebacks
        misses = 0
        for index in range(distinct_lines):
            count = per_line + (1 if index < extra else 0)
            if count == 0:
                continue
            misses += self._cache.access(
                base + index * line_bytes, write=write, count=count
            )
        writebacks = self._cache.stats.writebacks - writebacks_before
        return RegionAccessResult(misses=misses, writeback_lines=writebacks)

    def flush(self) -> int:
        """Invalidate everything; return dirty lines written back."""
        return self._cache.flush()
