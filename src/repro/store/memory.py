"""Bounded in-memory artifact tier.

The store's first tier holds live Python objects keyed by
``(kind, fingerprint)`` so repeated requests in one process return the
*same* object — the property :func:`repro.analysis.runner.evaluate_benchmark`'s
callers have always relied on.  Unlike the module-level dictionaries it
replaces, the tier is a bounded LRU: traces and per-frame statistics of
long-retired evaluations are evicted instead of accumulating for the
lifetime of a ``megsim bench --warm`` process.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import StoreError

#: Default number of artifacts kept live (a full evaluation is six).
DEFAULT_MEMORY_ENTRIES = 256


class MemoryTier:
    """LRU mapping of ``(kind, fingerprint)`` to live artifact objects."""

    def __init__(self, capacity: int = DEFAULT_MEMORY_ENTRIES) -> None:
        if capacity < 1:
            raise StoreError(f"memory capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.evictions = 0
        self._entries: OrderedDict[tuple[str, str], object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, kind: str, fp: str):
        """Return the stored object, or ``None``; a hit renews its LRU slot."""
        key = (kind, fp)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, kind: str, fp: str, obj) -> int:
        """Store ``obj``; returns how many entries were evicted (0 or 1)."""
        if obj is None:
            raise StoreError("cannot store None (None means a miss)")
        key = (kind, fp)
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = obj
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def clear(self) -> None:
        """Drop every live entry (eviction statistics are kept)."""
        self._entries.clear()
