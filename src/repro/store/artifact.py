"""The two-tier artifact store and its process-wide access points.

:class:`ArtifactStore` stacks the bounded LRU memory tier
(:mod:`repro.store.memory`) over the persistent content-addressed disk
tier (:mod:`repro.store.disk`).  ``get``/``put`` take the artifact
*kind* plus its input fingerprint and optional ``decode``/``encode``
hooks; a kind whose hooks are ``None`` lives in memory only (used for
assembled objects whose parts are already persisted individually).

Every operation is reported through :mod:`repro.obs` counters —
``store.hits.memory``, ``store.hits.disk``, ``store.misses``,
``store.writes``, ``store.bytes_read``, ``store.bytes_written``,
``store.evictions`` and ``store.corrupt`` — so traces and bench
artifacts show exactly how much work the store absorbed.

The process-wide store is resolved lazily by :func:`get_store` from the
``MEGSIM_STORE`` environment variable (default ``~/.cache/megsim``; the
values ``off``/``none``/``disabled``/``0`` select a memory-only store).
:func:`store_scope` swaps it temporarily — the mechanism behind
``--no-store`` and the bench harness's per-spec cold isolation.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from repro.obs import counter
from repro.store.disk import DiskTier
from repro.store.memory import DEFAULT_MEMORY_ENTRIES, MemoryTier

#: Environment variable selecting the persistent store root.
STORE_ENV_VAR = "MEGSIM_STORE"

#: ``MEGSIM_STORE`` values (case-insensitive) disabling the disk tier.
DISABLE_VALUES = frozenset({"off", "none", "disabled", "0"})

#: Default persistent root when ``MEGSIM_STORE`` is unset.
DEFAULT_ROOT = Path.home() / ".cache" / "megsim"


class ArtifactStore:
    """Content-addressed artifact cache: bounded memory over durable disk."""

    def __init__(
        self,
        root: Path | str | None,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        """Create a store.

        Args:
            root: persistent directory; ``None`` keeps the store
                memory-only (nothing survives the process).
            memory_entries: LRU capacity of the in-memory tier.
        """
        self.memory = MemoryTier(memory_entries)
        self.disk = DiskTier(root) if root is not None else None

    @property
    def root(self) -> Path | None:
        """The persistent root, or ``None`` for a memory-only store."""
        return self.disk.root if self.disk is not None else None

    def get(
        self,
        kind: str,
        fp: str,
        decode: Callable[[dict], object] | None = None,
    ):
        """Fetch an artifact by fingerprint, or ``None`` on a miss.

        The memory tier is consulted first (hits return the identical
        live object); with a ``decode`` hook the disk tier is consulted
        next, and a disk hit is promoted into the memory tier.
        """
        entry = self.memory.get(kind, fp)
        if entry is not None:
            counter("store.hits.memory")
            return entry
        if decode is not None and self.disk is not None:
            loaded = self.disk.read(kind, fp)
            if loaded is not None:
                payload, nbytes = loaded
                obj = decode(payload)
                counter("store.hits.disk")
                counter("store.bytes_read", nbytes)
                counter("store.evictions", self.memory.put(kind, fp, obj))
                return obj
            if self.disk.corrupt_dropped:
                counter("store.corrupt", self.disk.corrupt_dropped)
                self.disk.corrupt_dropped = 0
        counter("store.misses")
        return None

    def put(
        self,
        kind: str,
        fp: str,
        obj,
        encode: Callable[[object], dict] | None = None,
    ) -> None:
        """Record an artifact in memory and, with ``encode``, on disk."""
        counter("store.evictions", self.memory.put(kind, fp, obj))
        if encode is not None and self.disk is not None:
            written = self.disk.write(kind, fp, encode(obj))
            counter("store.writes")
            counter("store.bytes_written", written)

    def clear_memory(self) -> None:
        """Drop the live-object tier (persistent artifacts survive)."""
        self.memory.clear()

    def clear(self) -> int:
        """Drop both tiers; returns the number of disk files removed."""
        self.memory.clear()
        if self.disk is not None:
            return self.disk.clear()
        return 0

    def gc(self, max_bytes: int | None = None) -> dict:
        """Run disk maintenance (see :meth:`repro.store.disk.DiskTier.gc`)."""
        if self.disk is None:
            return {
                "removed_tmp": 0,
                "removed_old_versions": 0,
                "removed_artifacts": 0,
            }
        return self.disk.gc(max_bytes)

    def stats(self) -> dict:
        """Live-memory and on-disk occupancy, for ``megsim cache stats``."""
        disk = (
            self.disk.stats()
            if self.disk is not None
            else {"root": None, "entries": 0, "bytes": 0, "kinds": {}}
        )
        return {
            "memory": {
                "entries": len(self.memory),
                "capacity": self.memory.capacity,
                "evictions": self.memory.evictions,
            },
            "disk": disk,
        }


def memory_store(memory_entries: int = DEFAULT_MEMORY_ENTRIES) -> ArtifactStore:
    """A fresh store with no disk tier (cold, process-private)."""
    return ArtifactStore(root=None, memory_entries=memory_entries)


def _store_from_env() -> ArtifactStore:  # megsim: ambient(env)
    value = os.environ.get(STORE_ENV_VAR, "").strip()
    if value.lower() in DISABLE_VALUES and value:
        return memory_store()
    root = Path(value).expanduser() if value else DEFAULT_ROOT
    return ArtifactStore(root=root)


#: The process-wide store.  The accessors below are the sanctioned
#: process-local ambient surface (their pragmas declare it to MEG011):
#: workers install a per-process store once, then compute purely.
_ACTIVE: ArtifactStore | None = None


# megsim: ambient(global-read, global-write)
def get_store() -> ArtifactStore:
    """The process-wide store, resolved from ``MEGSIM_STORE`` on first use."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _store_from_env()
    return _ACTIVE


def set_store(store: ArtifactStore | None) -> None:  # megsim: ambient(global-write)
    """Install ``store`` process-wide; ``None`` re-enables lazy resolution."""
    global _ACTIVE
    _ACTIVE = store


@contextmanager
def store_scope(  # megsim: ambient(global-read, global-write)
    store: ArtifactStore,
):
    """Temporarily make ``store`` the process-wide store.

    Used by ``--no-store`` (a throwaway :func:`memory_store`) and by the
    bench harness, which scopes each spec to a cold store so results do
    not depend on what ran earlier in the process.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = store
    try:
        yield store
    finally:
        _ACTIVE = previous
