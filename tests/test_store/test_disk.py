"""The persistent disk tier: atomicity, corruption handling, maintenance."""

from __future__ import annotations

import errno
import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from repro.errors import StoreError
from repro.obs import collecting
from repro.store import STORE_VERSION, ArtifactStore, DiskTier

FP = "ab" + "0" * 62

#: The exact envelope :meth:`DiskTier.write` produces for
#: :data:`GOLDEN_PAYLOAD` under ``("plan", FP)``.  Changing these bytes
#: orphans every store already on disk, so it needs a ``STORE_VERSION``
#: bump.
GOLDEN = Path(__file__).parent / "golden" / "envelope-v1.json"

GOLDEN_PAYLOAD = {
    "sum": 0.1 + 0.2,
    "nested": {"ids": [1, 2, 3], "inner": {"flag": True, "none": None}},
    "name": "Z\u00fcrich \u2603",
}


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        tier = DiskTier(tmp_path)
        payload = {"cycles": 1.5, "ids": [1, 2, 3]}
        written = tier.write("ground_truth", FP, payload)
        loaded = tier.read("ground_truth", FP)
        assert loaded is not None
        restored, nbytes = loaded
        assert restored == payload
        assert nbytes == written

    def test_layout_shards_by_fingerprint_prefix(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {})
        expected = tmp_path / f"v{STORE_VERSION}" / "plan" / "ab" / f"{FP}.json"
        assert expected.is_file()

    def test_missing_artifact_is_a_miss(self, tmp_path):
        assert DiskTier(tmp_path).read("plan", FP) is None

    def test_no_stray_tmp_files_after_write(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {"a": 1})
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_float_payloads_round_trip_exactly(self, tmp_path):
        tier = DiskTier(tmp_path)
        value = 0.1 + 0.2  # not representable prettily; repr must survive
        tier.write("estimate", FP, {"v": value})
        restored, _ = tier.read("estimate", FP)
        assert restored["v"] == value

    def test_invalid_kind_and_fingerprint_rejected(self, tmp_path):
        tier = DiskTier(tmp_path)
        with pytest.raises(StoreError):
            tier.path("../evil", FP)
        with pytest.raises(StoreError):
            tier.path("plan", "XYZ")


class TestEnvelope:
    def test_write_produces_the_golden_bytes(self, tmp_path):
        tier = DiskTier(tmp_path)
        written = tier.write("plan", FP, GOLDEN_PAYLOAD)
        assert tier.path("plan", FP).read_bytes() == GOLDEN.read_bytes()
        assert written == GOLDEN.stat().st_size

    def test_golden_file_reads_back(self, tmp_path):
        tier = DiskTier(tmp_path)
        target = tier.path("plan", FP)
        target.parent.mkdir(parents=True)
        shutil.copyfile(GOLDEN, target)
        payload, nbytes = tier.read("plan", FP)
        assert payload == GOLDEN_PAYLOAD
        assert nbytes == GOLDEN.stat().st_size
        assert tier.corrupt_dropped == 0

    def test_byte_counters_equal_the_file_size(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with collecting() as collector:
            store.put("plan", FP, GOLDEN_PAYLOAD, encode=dict)
            store.clear_memory()
            assert store.get("plan", FP, decode=dict) == GOLDEN_PAYLOAD
        size = store.disk.path("plan", FP).stat().st_size
        assert collector.counters["store.bytes_written"] == size
        assert collector.counters["store.bytes_read"] == size

    def test_read_and_write_are_spanned(self, tmp_path):
        tier = DiskTier(tmp_path)
        with collecting() as collector:
            written = tier.write("plan", FP, GOLDEN_PAYLOAD)
            tier.read("plan", FP)
        spans = {record.name: record.attrs for record in collector.spans}
        assert spans["store.write"] == {"kind": "plan", "bytes": written}
        assert spans["store.read"] == {"kind": "plan", "bytes": written}


def _with_payload(body: bytes) -> bytes:
    """A canonical envelope at ``("plan", FP)`` around arbitrary bytes."""
    digest = hashlib.sha256(body).hexdigest()
    return (
        f'{{"fingerprint":"{FP}","kind":"plan","payload":'.encode("ascii")
        + body
        + f',"payload_sha256":"{digest}","schema":"megsim-store","version":1}}'
        .encode("ascii")
    )


def _flip_high_bit(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 0x80]) + data[index + 1:]


#: Damage to a canonical envelope, each of which the byte-level reader
#: must refuse: the file is dropped, counted once, and read as a miss.
CORRUPTIONS = {
    "tampered-kind": lambda data: data.replace(b'"kind":"plan"', b'"kind":"plam"'),
    "tampered-fingerprint": lambda data: data.replace(b'"ab0000', b'"ab0001', 1),
    "tampered-digest": lambda data: re.sub(
        rb'"payload_sha256":"[0-9a-f]{64}"',
        b'"payload_sha256":"' + b"0" * 64 + b'"',
        data,
    ),
    "truncated-tail": lambda data: data[:-3],
    "trailing-newline": lambda data: data + b"\n",
    "pretty-printed": lambda data: json.dumps(
        json.loads(data), indent=2, sort_keys=True
    ).encode("ascii"),
    "non-dict-payload": lambda data: _with_payload(b"[1,2,3]"),
    "non-utf8-byte": lambda data: _flip_high_bit(data, 30),
    "non-utf8-payload-with-valid-hash": lambda data: _with_payload(b'{"a":"\xb0"}'),
}


class TestCorruptionMatrix:
    @pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
    def test_damaged_envelope_is_dropped_and_missed(self, tmp_path, damage):
        tier = DiskTier(tmp_path)
        target = tier.path("plan", FP)
        target.parent.mkdir(parents=True)
        damaged = CORRUPTIONS[damage](GOLDEN.read_bytes())
        assert damaged != GOLDEN.read_bytes()
        target.write_bytes(damaged)
        assert tier.read("plan", FP) is None
        assert not target.exists()
        assert tier.corrupt_dropped == 1


class TestReadFailure:
    @pytest.mark.parametrize(
        "error",
        [
            OSError(errno.EMFILE, "Too many open files"),
            PermissionError(errno.EACCES, "Permission denied"),
            IsADirectoryError(errno.EISDIR, "Is a directory"),
        ],
        ids=["EMFILE", "EACCES", "EISDIR"],
    )
    def test_read_failure_is_a_miss_that_keeps_the_file(
        self, tmp_path, monkeypatch, error
    ):
        store = ArtifactStore(tmp_path)
        store.put("plan", FP, {"a": 1}, encode=dict)
        store.clear_memory()

        def fail(self):
            raise error

        monkeypatch.setattr(Path, "read_bytes", fail)
        with collecting() as collector:
            assert store.get("plan", FP, decode=dict) is None
        monkeypatch.undo()
        assert store.disk.path("plan", FP).is_file()
        assert "store.corrupt" not in collector.counters
        assert collector.counters["store.misses"] == 1
        assert store.get("plan", FP, decode=dict) == {"a": 1}


class TestCorruption:
    def _target(self, tier: DiskTier):
        return tier.path("plan", FP)

    def test_truncated_file_is_dropped_and_missed(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {"a": 1})
        target = self._target(tier)
        target.write_text(target.read_text()[:20])
        assert tier.read("plan", FP) is None
        assert not target.exists()
        assert tier.corrupt_dropped == 1

    def test_bit_flip_in_payload_is_detected(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {"a": 1})
        target = self._target(tier)
        envelope = json.loads(target.read_text())
        envelope["payload"]["a"] = 2  # silently altered artifact
        target.write_text(json.dumps(envelope))
        assert tier.read("plan", FP) is None
        assert not target.exists()

    def test_foreign_fingerprint_is_rejected(self, tmp_path):
        tier = DiskTier(tmp_path)
        other = "cd" + "0" * 62
        tier.write("plan", other, {"a": 1})
        # Simulate a mis-filed artifact: copy it under the wrong address.
        target = self._target(tier)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(tier.path("plan", other).read_text())
        assert tier.read("plan", FP) is None


class TestMaintenance:
    def test_stats_counts_entries_and_bytes_per_kind(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {"a": 1})
        tier.write("trace", FP, {"b": [1, 2]})
        stats = tier.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert set(stats["kinds"]) == {"plan", "trace"}
        assert stats["kinds"]["plan"]["entries"] == 1

    def test_clear_removes_everything(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {"a": 1})
        assert tier.clear() == 1
        assert tier.stats()["entries"] == 0

    def test_gc_removes_stray_tmp_and_old_versions(self, tmp_path):
        tier = DiskTier(tmp_path)
        tier.write("plan", FP, {"a": 1})
        (tmp_path / f"v{STORE_VERSION}" / "plan" / "ab" / "crash.tmp").write_text("x")
        old = tmp_path / "v0" / "plan"
        old.mkdir(parents=True)
        (old / "stale.json").write_text("{}")
        outcome = tier.gc()
        assert outcome["removed_tmp"] == 1
        assert outcome["removed_old_versions"] == 1
        assert tier.read("plan", FP) is not None  # current data untouched

    def test_gc_trims_to_max_bytes_oldest_first(self, tmp_path):
        import os

        tier = DiskTier(tmp_path)
        fps = [f"{i:02x}" + "0" * 62 for i in range(3)]
        for index, fp in enumerate(fps):
            tier.write("plan", fp, {"i": index})
            # Deterministic, strictly increasing mtimes.
            os.utime(tier.path("plan", fp), (1000 + index, 1000 + index))
        keep = tier.path("plan", fps[2]).stat().st_size
        outcome = tier.gc(max_bytes=keep)
        assert outcome["removed_artifacts"] == 2
        assert tier.read("plan", fps[2]) is not None
        assert tier.read("plan", fps[0]) is None

    def test_gc_rejects_negative_budget(self, tmp_path):
        with pytest.raises(StoreError):
            DiskTier(tmp_path).gc(max_bytes=-1)
