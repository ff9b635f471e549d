"""JournalStore: WAL framing, torn-tail recovery, compaction."""

import hashlib
import json
import os
import struct

from repro.obs.metrics import MetricsRegistry
from repro.service.journal import JournalStore, WAL_HEADER


def make_store(tmp_path, **kwargs):
    registry = MetricsRegistry()
    store = JournalStore(
        str(tmp_path / "state.json"),
        metrics=registry.scope("service.journal"),
        **kwargs,
    )
    return store, registry


def submit_entry(job_id, seq=1, status="queued", outcomes=None):
    return {
        "type": "submit",
        "seq": seq,
        "job": {
            "id": job_id,
            "tenant": "anon",
            "priority": "batch",
            "status": status,
            "created": 1.0,
            "finished_at": 0.0,
            "tags": {},
            "error": "",
            "deadline_s": None,
            "requests": [],
            "outcomes": dict(outcomes or {}),
        },
    }


class TestReplay:
    def test_append_then_load_round_trips(self, tmp_path):
        store, _ = make_store(tmp_path)
        store.append(submit_entry("a", seq=1))
        store.append({"type": "outcome", "seq": 1, "job": "a", "index": 0,
                      "record": {"status": "ok", "seq": 0}})
        store.append({"type": "finish", "seq": 1, "job": "a",
                      "status": "done", "finished_at": 2.0, "error": ""})
        store.close()

        fresh, registry = make_store(tmp_path)
        records, seq = fresh.load()
        fresh.close()
        assert seq == 1
        assert [r["id"] for r in records] == ["a"]
        assert records[0]["status"] == "done"
        assert records[0]["outcomes"] == {"0": {"status": "ok", "seq": 0}}
        assert registry.as_dict()["service.journal.replayed"] == 3

    def test_duplicate_submit_is_idempotent(self, tmp_path):
        # compaction crash-consistency: a journal replayed on top of a
        # snapshot that already contains its records must not duplicate
        store, _ = make_store(tmp_path)
        store.append(submit_entry("a"))
        store.append(submit_entry("a"))
        store.close()
        fresh, _ = make_store(tmp_path)
        records, _ = fresh.load()
        fresh.close()
        assert [r["id"] for r in records] == ["a"]

    def test_missing_files_load_empty(self, tmp_path):
        store, _ = make_store(tmp_path)
        records, seq = store.load()
        store.close()
        assert records == [] and seq == 0


class TestTornTail:
    def frames(self, tmp_path):
        store, _ = make_store(tmp_path)
        store.append(submit_entry("a", seq=1))
        store.append(submit_entry("b", seq=2))
        store.close()
        return store.wal_path

    def test_half_written_frame_is_truncated(self, tmp_path):
        wal = self.frames(tmp_path)
        good_size = os.path.getsize(wal)
        payload = json.dumps({"type": "submit"}).encode()
        frame = struct.pack("<I", len(payload)) + \
            hashlib.sha256(payload).digest() + payload
        with open(wal, "ab") as fh:
            fh.write(frame[: len(frame) // 2])

        store, registry = make_store(tmp_path)
        records, seq = store.load()
        metrics = registry.as_dict()
        assert [r["id"] for r in records] == ["a", "b"]
        assert seq == 2
        assert metrics["service.journal.torn_tails"] == 1
        assert metrics["service.journal.truncated_bytes"] > 0
        assert os.path.getsize(wal) == good_size
        # the journal keeps working at the truncation point
        store.append(submit_entry("c", seq=3))
        store.close()
        fresh, _ = make_store(tmp_path)
        records, seq = fresh.load()
        fresh.close()
        assert [r["id"] for r in records] == ["a", "b", "c"]
        assert seq == 3

    def test_bitflipped_frame_is_dropped(self, tmp_path):
        wal = self.frames(tmp_path)
        data = bytearray(open(wal, "rb").read())
        data[-1] ^= 0x01  # flip a payload bit in the last frame
        open(wal, "wb").write(bytes(data))
        store, registry = make_store(tmp_path)
        records, _ = store.load()
        store.close()
        assert [r["id"] for r in records] == ["a"]
        assert registry.as_dict()["service.journal.torn_tails"] == 1

    def test_garbage_file_resets_to_header(self, tmp_path):
        store, _ = make_store(tmp_path)
        with open(store.wal_path, "wb") as fh:
            fh.write(b"not a journal at all")
        fresh, registry = make_store(tmp_path)
        records, _ = fresh.load()
        fresh.close()
        assert records == []
        assert registry.as_dict()["service.journal.torn_tails"] == 1
        assert open(store.wal_path, "rb").read() == WAL_HEADER

    def test_absurd_length_is_corruption(self, tmp_path):
        wal = self.frames(tmp_path)
        with open(wal, "ab") as fh:
            fh.write(struct.pack("<I", 2**31) + b"\0" * 40)
        store, _ = make_store(tmp_path)
        records, _ = store.load()
        store.close()
        assert [r["id"] for r in records] == ["a", "b"]


class TestCompaction:
    def test_compact_writes_legacy_snapshot_and_rotates(self, tmp_path):
        store, registry = make_store(tmp_path, compact_every=2)
        store.append(submit_entry("a"))
        assert not store.should_compact()
        store.append({"type": "finish", "seq": 1, "job": "a",
                      "status": "done", "finished_at": 2.0, "error": ""})
        assert store.should_compact()
        record = submit_entry("a", status="done")["job"]
        store.compact([record], 1)
        store.close()

        # snapshot: the versioned JSON job table
        payload = json.load(open(store.path))
        assert payload["version"] == 1
        assert [j["id"] for j in payload["jobs"]] == ["a"]
        # journal rotated down to the bare header
        assert open(store.wal_path, "rb").read() == WAL_HEADER
        assert registry.as_dict()["service.journal.compactions"] == 1

        fresh, _ = make_store(tmp_path)
        records, seq = fresh.load()
        fresh.close()
        assert [r["id"] for r in records] == ["a"] and seq == 1

    def test_wal_survives_on_top_of_snapshot(self, tmp_path):
        store, _ = make_store(tmp_path)
        store.append(submit_entry("a"))
        store.compact([submit_entry("a")["job"]], 1)
        store.append(submit_entry("b", seq=2))
        store.close()
        fresh, _ = make_store(tmp_path)
        records, seq = fresh.load()
        fresh.close()
        assert [r["id"] for r in records] == ["a", "b"]
        assert seq == 2
