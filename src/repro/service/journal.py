"""Write-ahead job journal: crash-consistent persistence for the engine.

The engine used to rewrite one JSON snapshot on every mutation — cheap
to read, but a crash landing mid-rewrite (or between an outcome landing
and the rewrite) lost or duplicated work.  This module replaces that
with the classic WAL discipline:

* Every mutation (``submit`` / ``start`` / ``outcome`` / ``finish`` /
  ``cancel``) is appended to ``<state>.wal`` as a **framed record**
  — ``<u32 payload length> <sha256(payload)> <payload JSON>`` — flushed
  and ``fsync``\\ ed *before* the engine applies it to memory or
  publishes it to clients.  Whatever a client observed is durable.
* Boot replays the snapshot, then the journal.  A torn tail (crash
  mid-append) or a corrupt record (checksum mismatch, absurd length) is
  **truncated and survived**, never fatal: everything up to the last
  good frame is kept, the damage is counted under
  ``service.journal.torn_tails`` / ``service.journal.truncated_bytes``,
  and appends continue at the truncation point.
* Every ``compact_every`` records the journal is folded into the
  snapshot (the same atomic tmp+rename JSON the old store wrote, so old
  state files load unchanged) and the journal restarts empty.  The
  snapshot is replaced *before* the journal is rotated, and replaying a
  journal on top of a snapshot that already contains its records is
  idempotent — a crash between the two steps double-applies nothing.

The store works at the *record* (dict) level — ``Job.to_record()``
shapes in, the same shapes out — so it has no import cycle with the
engine.  Fault hooks (:func:`~repro.harness.faults.service_fault`) sit
on the append and compaction paths for the kill-anywhere chaos suite.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..harness.faults import KILL_EXIT_CODE, service_fault, service_kill_point

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricScope

__all__ = ["JournalStore", "SNAPSHOT_VERSION", "WAL_HEADER"]

#: journal file magic + format version; bumped on frame-layout changes.
WAL_HEADER = b"RGWL\x01"

#: snapshot schema (``version`` / ``seq`` / ``saved_at`` / ``jobs``);
#: unchanged since before the journal existed, so those state files
#: still load.  Bumped on layout changes.
SNAPSHOT_VERSION = 1

_LEN = struct.Struct("<I")
_DIGEST_BYTES = 32

#: a frame claiming a payload larger than this is corruption, not data
#: (the largest real job record is a few MB of SimStats JSON).
MAX_RECORD_BYTES = 64 * 1024 * 1024


class JournalStore:
    """Append-only journal + periodic snapshot for the job table."""

    def __init__(self, path: str, fsync: bool = True,
                 compact_every: int = 256,
                 metrics: Optional["MetricScope"] = None):
        #: snapshot path; the journal is ``<path>.wal``.
        self.path = path
        self.wal_path = path + ".wal"
        self.fsync = fsync
        self.compact_every = max(1, int(compact_every))
        self.metrics = metrics
        self._fh: Optional[Any] = None
        #: records appended since the last compaction.
        self._pending = 0

    # -- metrics -----------------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    # -- boot / replay -----------------------------------------------------

    def load(self) -> Tuple[List[Dict[str, Any]], int]:
        """(job records in submission order, last engine seq).

        Replays the snapshot, then every intact journal record on top of
        it.  Opens the journal for appending at the recovered tail."""
        records, seq = self._load_snapshot()
        jobs: Dict[str, Dict[str, Any]] = {r["id"]: r for r in records}
        order: List[str] = [r["id"] for r in records]
        entries = self._replay_wal()
        for entry in entries:
            try:
                seq = max(seq, int(entry.get("seq", 0)))
                self._apply(jobs, order, entry)
            except (KeyError, TypeError, ValueError):
                self._count("bad_records")
        self._pending = len(entries)
        self._open_wal()
        return [jobs[job_id] for job_id in order], seq

    def _load_snapshot(self) -> Tuple[List[Dict[str, Any]], int]:
        try:
            with open(self.path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return [], 0
        if payload.get("version") != SNAPSHOT_VERSION:
            return [], 0
        return list(payload.get("jobs", [])), int(payload.get("seq", 0))

    @staticmethod
    def _apply(jobs: Dict[str, Dict[str, Any]], order: List[str],
               entry: Dict[str, Any]) -> None:
        """Fold one journal entry into the record table.

        Idempotent by construction (see compaction crash-consistency in
        the module docstring); unknown types are skipped for forward
        compatibility."""
        kind = entry.get("type")
        if kind == "submit":
            record = entry["job"]
            job_id = record["id"]
            if job_id not in jobs:
                jobs[job_id] = record
                order.append(job_id)
        elif kind == "outcome":
            job = jobs.get(entry["job"])
            if job is not None:
                job.setdefault("outcomes", {})[str(entry["index"])] = \
                    entry["record"]
        elif kind == "finish":
            job = jobs.get(entry["job"])
            if job is not None:
                job["status"] = entry["status"]
                job["finished_at"] = entry.get("finished_at", 0.0)
                job["error"] = entry.get("error", "")
        elif kind == "cancel":
            job = jobs.get(entry["job"])
            if job is not None:
                job["status"] = "cancelled"
                job["finished_at"] = entry.get("finished_at", 0.0)
        # "start" records are informational (dispatch audit trail): a
        # non-terminal replayed job resumes from its outcomes regardless
        # of whether its batch had launched.

    def _replay_wal(self) -> List[Dict[str, Any]]:
        """Decode every intact frame; truncate-and-continue past damage."""
        try:
            with open(self.wal_path, "rb") as fh:
                data = fh.read()
        except OSError:
            return []
        entries: List[Dict[str, Any]] = []
        header_ok = data.startswith(WAL_HEADER)
        good = len(WAL_HEADER) if header_ok else 0
        damaged = bool(data) and not header_ok
        if header_ok:
            offset = good
            size = len(data)
            while offset < size:
                end = self._frame_end(data, offset)
                if end is None:
                    damaged = True
                    break
                payload = data[offset + _LEN.size + _DIGEST_BYTES:end]
                try:
                    entries.append(json.loads(payload.decode()))
                except (ValueError, UnicodeDecodeError):
                    damaged = True
                    break
                offset = end
                good = offset
        if damaged:
            dropped = len(data) - good
            self._count("torn_tails")
            self._count("truncated_bytes", dropped)
            with open(self.wal_path, "r+b") as fh:
                if not header_ok:
                    fh.write(WAL_HEADER)
                    good = len(WAL_HEADER)
                fh.truncate(good)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
        if entries:
            self._count("replayed", len(entries))
        return entries

    @staticmethod
    def _frame_end(data: bytes, offset: int) -> Optional[int]:
        """End offset of the frame at ``offset``, or ``None`` if torn or
        checksum-corrupt."""
        start = offset + _LEN.size + _DIGEST_BYTES
        if start > len(data):
            return None
        (length,) = _LEN.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            return None
        end = start + length
        if end > len(data):
            return None
        digest = data[offset + _LEN.size:start]
        if hashlib.sha256(data[start:end]).digest() != digest:
            return None
        return end

    # -- append ------------------------------------------------------------

    def _open_wal(self) -> None:
        directory = os.path.dirname(os.path.abspath(self.wal_path))
        os.makedirs(directory, exist_ok=True)
        fresh = not os.path.exists(self.wal_path)
        self._fh = open(self.wal_path, "ab")
        if fresh or self._fh.tell() == 0:
            self._fh.write(WAL_HEADER)
            self._flush()

    def _flush(self) -> None:
        assert self._fh is not None
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def append(self, entry: Dict[str, Any]) -> None:
        """Durably journal one entry; returns only once it is on disk.

        The engine calls this *before* applying the mutation — the
        journal-before-apply ordering is the exactly-once guarantee."""
        if self._fh is None:
            self._open_wal()
        payload = json.dumps(entry, sort_keys=True).encode()
        frame = _LEN.pack(len(payload)) + \
            hashlib.sha256(payload).digest() + payload
        point = f"journal.{entry.get('type', 'record')}"
        fault = service_fault(point + ".pre")
        if fault == "kill":
            os._exit(KILL_EXIT_CODE)
        elif fault == "torn":
            # crash mid-append: half a frame reaches the disk
            self._fh.write(frame[:max(1, len(frame) // 2)])
            self._flush()
            os._exit(KILL_EXIT_CODE)
        elif fault == "bitflip":
            corrupt = bytearray(frame)
            corrupt[-1] ^= 0x40
            self._fh.write(bytes(corrupt))
            self._flush()
            os._exit(KILL_EXIT_CODE)
        self._fh.write(frame)
        self._flush()
        self._pending += 1
        self._count("records")
        service_kill_point(point + ".post")

    def should_compact(self) -> bool:
        return self._pending >= self.compact_every

    # -- compaction --------------------------------------------------------

    def compact(self, records: List[Dict[str, Any]], seq: int) -> None:
        """Fold state into the snapshot atomically, then rotate the
        journal.  Snapshot first: a crash between the steps replays the
        old journal onto the new snapshot, which is idempotent."""
        service_kill_point("compact.pre")
        payload = {
            "version": SNAPSHOT_VERSION,
            "seq": seq,
            "saved_at": time.time(),
            "jobs": records,
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self.fsync:
            dir_fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        if self._fh is not None:
            self._fh.close()
        self._fh = open(self.wal_path, "wb")
        self._fh.write(WAL_HEADER)
        self._flush()
        self._pending = 0
        self._count("compactions")
        service_kill_point("compact.post")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
