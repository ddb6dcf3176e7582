"""Persistent disk tier: one JSON file per artifact, written atomically.

Layout::

    <root>/v1/<kind>/<fp[:2]>/<fp>.json

Each file holds an *envelope* around the artifact payload, as canonical
JSON (sorted keys, no whitespace, ASCII)::

    {"fingerprint":...,"kind":...,"payload":{...},"payload_sha256":...,
     "schema":"megsim-store","version":1}

Because the keys sort in exactly that order, the envelope is a fixed
head (which depends only on the address), the payload's canonical bytes,
and a fixed-shape tail carrying their SHA-256.  Both directions use that
shape directly: a write serializes the payload once and concatenates, a
read checks head and tail byte for byte, hashes the payload bytes in
place and parses them once.

Concurrency and integrity rules:

* **Atomic writes** — payloads are serialized to a process-private
  ``*.tmp`` sibling and published with :func:`os.replace`, so a reader
  (including a concurrent :mod:`repro.parallel` worker) never observes
  a half-written artifact.  Two processes racing to write the same
  fingerprint produce identical bytes, so either replace wins.
* **Hash-on-read** — :meth:`DiskTier.read` checks the head (kind and
  fingerprint), the tail (schema and version) and the payload's SHA-256
  before trusting anything.  A corrupt, foreign or non-canonical file
  is deleted and reported as a miss, which makes the caller recompute
  instead of propagating garbage.  A file that cannot be *read*
  (permissions, descriptor exhaustion) is a miss but is left in place:
  an I/O failure is not evidence of corruption, and the recompute's
  atomic write replaces the file anyway.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.errors import StoreError
from repro.obs import span

#: Schema tag inside every artifact envelope.
STORE_SCHEMA = "megsim-store"

#: Bumped on incompatible envelope/layout changes; older trees are
#: simply never read (and ``gc`` removes them).
STORE_VERSION = 1

#: The envelope after the payload, around the 64 hex digits of its hash.
_TAIL_OPEN = b',"payload_sha256":"'
_TAIL_CLOSE = (
    f'","schema":{json.dumps(STORE_SCHEMA)},"version":{STORE_VERSION}}}'
).encode("ascii")
_TAIL_LEN = len(_TAIL_OPEN) + 64 + len(_TAIL_CLOSE)


def _head(kind: str, fp: str) -> bytes:
    """The envelope up to the payload; fixed by the artifact's address."""
    return (
        f'{{"fingerprint":{json.dumps(fp)},"kind":{json.dumps(kind)},"payload":'
    ).encode("ascii")


class DiskTier:
    """Content-addressed JSON artifacts under one root directory."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.corrupt_dropped = 0

    @property
    def _tree(self) -> Path:
        return self.root / f"v{STORE_VERSION}"

    def path(self, kind: str, fp: str) -> Path:
        """The artifact file for ``(kind, fp)`` (may not exist)."""
        if not kind or "/" in kind or kind.startswith("."):
            raise StoreError(f"invalid artifact kind {kind!r}")
        if len(fp) < 8 or not all(c in "0123456789abcdef" for c in fp):
            raise StoreError(f"invalid fingerprint {fp!r}")
        return self._tree / kind / fp[:2] / f"{fp}.json"

    # The pid only names the temp file; the stored payload itself is
    # pid-independent.  # megsim: ambient(process)
    def write(self, kind: str, fp: str, payload: dict) -> int:
        """Persist ``payload``; returns the number of bytes written."""
        target = self.path(kind, fp)
        with span("store.write", kind=kind) as record:
            target.parent.mkdir(parents=True, exist_ok=True)
            body = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ).encode("ascii")
            digest = hashlib.sha256(body).hexdigest().encode("ascii")
            envelope = b"".join(
                (_head(kind, fp), body, _TAIL_OPEN, digest, _TAIL_CLOSE)
            )
            tmp = target.parent / f"{fp}.{os.getpid()}.tmp"
            tmp.write_bytes(envelope)
            os.replace(tmp, target)
            record.attrs["bytes"] = len(envelope)
        return len(envelope)

    def read(self, kind: str, fp: str) -> tuple[dict, int] | None:
        """Return ``(payload, bytes_read)``, or ``None`` on miss/corruption.

        Only the canonical envelope :meth:`write` produces is accepted:
        the exact head for ``(kind, fp)``, the fixed-shape tail, a
        payload whose SHA-256 matches the tail's digest, and which parses
        as a JSON object.  Any other content deletes the file and reports
        a miss.  A file that cannot be read is a miss and stays in place.
        """
        target = self.path(kind, fp)
        with span("store.read", kind=kind) as record:
            try:
                data = target.read_bytes()
            except OSError:
                return None
            record.attrs["bytes"] = len(data)
            payload = self._verified_payload(data, _head(kind, fp))
            if payload is None:
                self._drop(target)
                return None
        return payload, len(data)

    @staticmethod
    def _verified_payload(data: bytes, head: bytes) -> dict | None:
        """The payload of a canonical envelope, or ``None``."""
        end = len(data) - _TAIL_LEN
        if (
            end < len(head)
            or not data.startswith(head)
            or not data.startswith(_TAIL_OPEN, end)
            or not data.endswith(_TAIL_CLOSE)
        ):
            return None
        body = memoryview(data)[len(head):end]
        digest = data[end + len(_TAIL_OPEN):len(data) - len(_TAIL_CLOSE)]
        if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
            return None
        try:
            payload = json.loads(str(body, "utf-8"))
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def _drop(self, target: Path) -> None:
        """Delete a corrupt artifact file (best effort)."""
        self.corrupt_dropped += 1
        try:
            target.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Maintenance (the `megsim cache` subcommand).
    # ------------------------------------------------------------------

    def _artifact_files(self) -> list[Path]:
        if not self._tree.is_dir():
            return []
        return sorted(self._tree.glob("*/??/*.json"))

    def stats(self) -> dict:
        """Entry/byte totals, overall and per artifact kind."""
        per_kind: dict[str, dict[str, int]] = {}
        total_files = 0
        total_bytes = 0
        for file in self._artifact_files():
            kind = file.parent.parent.name
            size = file.stat().st_size
            row = per_kind.setdefault(kind, {"entries": 0, "bytes": 0})
            row["entries"] += 1
            row["bytes"] += size
            total_files += 1
            total_bytes += size
        return {
            "root": str(self.root),
            "entries": total_files,
            "bytes": total_bytes,
            "kinds": {kind: per_kind[kind] for kind in sorted(per_kind)},
        }

    def clear(self) -> int:
        """Delete every artifact; returns how many files were removed."""
        removed = 0
        for file in self._artifact_files():
            file.unlink()
            removed += 1
        return removed

    def gc(self, max_bytes: int | None = None) -> dict:
        """Garbage-collect the tree; returns removal statistics.

        Always removes stranded ``*.tmp`` files (a crashed writer) and
        trees of other store versions.  When ``max_bytes`` is given and
        the artifacts exceed it, the least-recently *modified* files are
        deleted until the total fits — modification time approximates
        recency of use well enough for a cache whose entries are
        recomputable.
        """
        removed_tmp = 0
        removed_versions = 0
        if self.root.is_dir():
            for stray in sorted(self.root.rglob("*.tmp")):
                stray.unlink()
                removed_tmp += 1
            for entry in sorted(self.root.iterdir()):
                if entry.is_dir() and entry.name != f"v{STORE_VERSION}":
                    removed_versions += self._remove_tree(entry)
        removed_artifacts = 0
        if max_bytes is not None:
            if max_bytes < 0:
                raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
            files = [
                (file.stat().st_mtime, file.stat().st_size, file)
                for file in self._artifact_files()
            ]
            total = sum(size for _, size, _ in files)
            for _, size, file in sorted(files, key=lambda row: (row[0], row[2])):
                if total <= max_bytes:
                    break
                file.unlink()
                total -= size
                removed_artifacts += 1
        return {
            "removed_tmp": removed_tmp,
            "removed_old_versions": removed_versions,
            "removed_artifacts": removed_artifacts,
        }

    @staticmethod
    def _remove_tree(root: Path) -> int:
        """Recursively delete ``root``; returns the number of files removed."""
        removed = 0
        for file in sorted(root.rglob("*"), reverse=True):
            if file.is_dir():
                file.rmdir()
            else:
                file.unlink()
                removed += 1
        root.rmdir()
        return removed
