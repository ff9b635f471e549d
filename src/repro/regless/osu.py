"""The operand staging unit (paper section 5.2, Figure 10).

One OSU per shard: 8 banks, each with tag storage and ``lines_per_bank``
128-byte data lines.  Registers map to bank ``(warp_id + reg) % 8`` — the
warp-id rotation spreads bank load while preserving the compiler's per-bank
usage counts.

Each bank tracks three classes of lines:

* **active** — reserved by a running/preloading region; not evictable;
* **clean** — evictable, value matches the L1 copy (drop on reuse);
* **dirty** — evictable, modified (write back to L1 before reuse).

Allocation takes free space first, then clean lines, then dirty lines
(paper's priority; the ``ordered_eviction=False`` ablation takes the
oldest dirty line before any clean one whenever a dirty line exists).

Per-bank preload queues implement the section 5.2.1 pipeline: tag check ->
compressor bit-vector -> compressor cache or L1 fetch.  Evictions and cache
invalidations flow through shard-level queues that compete for the one
L1 request per cycle.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..energy.accounting import Counters
from ..mem.l1 import L1RegCache
from ..sim.events import EventWheel
from ..sim.values import LaneValues, mix_hash
from .compressor import Compressor
from .config import ReglessConfig
from .mapping import RegisterMapping

__all__ = ["OperandStagingUnit", "Bank"]

Key = Tuple[int, int]  # (warp id, register index)


@dataclass(slots=True)
class _Entry:
    state: str  # "active" | "clean" | "dirty"
    dirty: bool  # modified since last L1 read
    #: an (uncompressed) copy of this register may reside in the L1.
    has_l1_copy: bool = False


class Bank:
    """One OSU bank: tags plus free/clean/dirty bookkeeping."""

    def __init__(self, capacity: int, ordered_eviction: bool = True):
        self.capacity = capacity
        self.ordered_eviction = ordered_eviction
        self.tags: Dict[Key, _Entry] = {}
        self.clean: "OrderedDict[Key, None]" = OrderedDict()
        self.dirty: "OrderedDict[Key, None]" = OrderedDict()

    @property
    def free(self) -> int:
        return self.capacity - len(self.tags)

    def has(self, key: Key) -> bool:
        return key in self.tags

    def acquire(self, key: Key) -> bool:
        """Re-reserve a resident line for a new region (preload hit)."""
        entry = self.tags.get(key)
        if entry is None:
            return False
        if entry.state == "clean":
            del self.clean[key]
        elif entry.state == "dirty":
            del self.dirty[key]
        entry.state = "active"
        return True

    def allocate(self, key: Key) -> Tuple[bool, Optional[Key]]:
        """Insert an active line for ``key``.

        Returns ``(ok, victim)``: ``victim`` is an evicted dirty key the
        caller must write back.  When the bank holds only active lines the
        line is allocated anyway (bounded overflow — the capacity manager's
        reservations make this rare) and the overflow is visible via
        ``len(tags) > capacity``.
        """
        if key in self.tags:
            self.acquire(key)
            return True, None
        victim: Optional[Key] = None
        if self.free <= 0:
            if self.clean and (self.ordered_eviction or not self.dirty):
                v, _ = self.clean.popitem(last=False)
                del self.tags[v]
            elif self.dirty:
                v, _ = self.dirty.popitem(last=False)
                del self.tags[v]
                victim = v
        self.tags[key] = _Entry("active", dirty=False)
        return True, victim

    def entry(self, key: Key) -> Optional[_Entry]:
        return self.tags.get(key)

    def erase(self, key: Key) -> bool:
        entry = self.tags.pop(key, None)
        if entry is None:
            return False
        if entry.state == "clean":
            del self.clean[key]
        elif entry.state == "dirty":
            del self.dirty[key]
        return True

    def mark_dirty(self, key: Key) -> None:
        entry = self.tags.get(key)
        if entry is not None:
            entry.dirty = True
            if entry.state == "clean":
                del self.clean[key]
                entry.state = "dirty"
                self.dirty[key] = None

    def mark_evictable(self, key: Key) -> Optional[Key]:
        """Release an active line at region end.

        While the bank is in (bounded) active overflow the evictable lists
        must stay empty — a line released over capacity is reclaimed on the
        spot instead of being parked.  Returns the key when the reclaimed
        line was dirty and the caller must write it back.
        """
        entry = self.tags.get(key)
        if entry is None or entry.state != "active":
            return None
        if len(self.tags) > self.capacity:
            del self.tags[key]
            return key if entry.dirty else None
        if entry.dirty:
            entry.state = "dirty"
            self.dirty[key] = None
        else:
            entry.state = "clean"
            self.clean[key] = None
        return None

    @property
    def active_count(self) -> int:
        return len(self.tags) - len(self.clean) - len(self.dirty)

    @property
    def overflow(self) -> int:
        return max(0, len(self.tags) - self.capacity)


@dataclass(slots=True)
class _PreloadJob:
    warp_id: int
    reg: int
    invalidate: bool
    stage: str = "tag"  # tag -> bitvec -> install/l1 -> wait
    ready_at: int = 0
    compressed: bool = False
    source: str = ""
    #: an uncompressed L1 copy exists and must be invalidated on an
    #: invalidating read.
    l1_copy: bool = False



class OperandStagingUnit:
    """One shard's OSU plus its preload/eviction/invalidation pipelines."""

    def __init__(
        self,
        config: ReglessConfig,
        lines_per_bank: int,
        counters: Counters,
        wheel: EventWheel,
        l1: L1RegCache,
        compressor: Compressor,
        mapping: RegisterMapping,
        value_of: Callable[[int, int], LaneValues],
        on_preload_done: Callable[[int, str], None],
    ):
        self.config = config
        self.counters = counters
        self.wheel = wheel
        self.l1 = l1
        self.compressor = compressor
        self.mapping = mapping
        self.value_of = value_of
        self.on_preload_done = on_preload_done
        self.banks: List[Bank] = [
            Bank(lines_per_bank, config.ordered_eviction)
            for _ in range(config.banks_per_shard)
        ]
        self._n_banks = len(self.banks)
        self._preload_q: List[Deque[_PreloadJob]] = [
            deque() for _ in range(config.banks_per_shard)
        ]
        #: queued preload jobs across all banks (O(1) work test; jobs that
        #: left the queue for the MSHR "wait" stage are excluded — their
        #: completion is wheel-event-backed, not pump-driven).
        self._preload_pending = 0
        #: banks with a non-empty preload queue; the pump walks only these.
        self._active_banks: set = set()
        #: (key, value) register evictions awaiting the compressor/L1.
        self._evict_q: Deque[Tuple[Key, LaneValues]] = deque()
        #: dirty compressed lines awaiting an L1 store slot.
        self._line_store_q: Deque[int] = deque()
        #: dead registers awaiting an L1 invalidate slot.
        self._inval_q: Deque[Key] = deque()
        #: register slots that have a copy in the memory system (evicted at
        #: least once).  Preloads of unmaterialized slots are launch values
        #: (thread ids, kernel parameters) served like compressed constants
        #: by the launch mechanism, not fetched from DRAM.
        self._materialized: set = set()
        #: per-source preload counters, resolved once (hot path).
        self._c_preload_src = {
            s: f"preload_src_{s}"
            for s in ("osu", "const", "compressor", "l1", "l2dram")
        }

    # -- geometry -------------------------------------------------------------

    def bank_of(self, warp_id: int, reg: int) -> int:
        return (warp_id + reg) % len(self.banks)

    def bank(self, warp_id: int, reg: int) -> Bank:
        return self.banks[self.bank_of(warp_id, reg)]

    def rotate_usage(self, usage: Tuple[int, ...], warp_id: int) -> List[int]:
        """Per-bank usage of a region once rotated by the warp id."""
        n = len(self.banks)
        rotated = [0] * n
        for b, count in enumerate(usage):
            rotated[(b + warp_id) % n] = count
        return rotated

    # -- execution-path accesses ---------------------------------------------------

    def read(self, warp_id: int, reg: int) -> None:
        self.counters.inc("osu_read")
        bank = self.banks[(warp_id + reg) % self._n_banks]
        if (warp_id, reg) not in bank.tags:
            # Should not happen when annotations are correct; visible in
            # tests as a hard invariant.
            self.counters.inc("osu_read_miss")

    def reserve_write(self, warp_id: int, reg: int) -> None:
        """Allocate the destination entry at issue time (section 5.2.1:
        interior registers get space at their first write)."""
        key = (warp_id, reg)
        bank = self.banks[(warp_id + reg) % self._n_banks]
        if key in bank.tags:
            bank.acquire(key)
            return
        _, victim = bank.allocate(key)
        if victim is not None:
            self._queue_eviction(victim)
        if bank.overflow:
            self.counters.inc("osu_overflow")

    def complete_write(self, warp_id: int, reg: int) -> None:
        self.counters.inc("osu_write")
        self.banks[(warp_id + reg) % self._n_banks].mark_dirty((warp_id, reg))

    def erase(self, warp_id: int, reg: int) -> None:
        self.banks[(warp_id + reg) % self._n_banks].erase((warp_id, reg))

    def mark_evictable(self, warp_id: int, reg: int) -> None:
        victim = self.banks[
            (warp_id + reg) % self._n_banks
        ].mark_evictable((warp_id, reg))
        if victim is not None:
            # Overflow reclaim of a dirty line: write it back like any
            # other dirty eviction.
            self._queue_eviction(victim)

    def erase_warp(self, warp_id: int, n_regs: int) -> None:
        """Drop every entry of an exiting warp (values are dead)."""
        for reg in range(n_regs):
            self.bank(warp_id, reg).erase((warp_id, reg))

    # -- preload / invalidate entry points ---------------------------------------------

    def enqueue_preload(self, warp_id: int, reg: int, invalidate: bool) -> None:
        bank_id = self.bank_of(warp_id, reg)
        self._preload_q[bank_id].append(_PreloadJob(warp_id, reg, invalidate))
        self._preload_pending += 1
        self._active_banks.add(bank_id)

    def enqueue_invalidate(self, warp_id: int, reg: int) -> None:
        self._inval_q.append((warp_id, reg))

    def preload_blocked_at_l1(self, warp_id: int) -> bool:
        """Is one of this warp's preloads at the head of a bank queue,
        stuck in the ``l1`` stage (waiting for the shared L1 request
        port)?  Pure — used by stall attribution to split ``osu_port``
        from plain ``cm_preloading``."""
        for queue in self._preload_q:
            if queue:
                job = queue[0]
                if job.warp_id == warp_id and job.stage == "l1":
                    return True
        return False

    # -- per-cycle pump -----------------------------------------------------------------

    def cycle(self) -> None:
        # Only the preload and eviction pumps touch the compressor port;
        # opening its cycle when neither has work would be a silent no-op.
        if self._preload_pending or self._evict_q:
            self.compressor.begin_cycle()
        if self._preload_pending:
            # Ascending bank order matches the seed's range() walk; sorted()
            # copies, so pumps may discard drained banks mid-iteration.
            # Preloads are enqueued by the CM (which cycles before the OSU),
            # never by the pumps themselves, so the set cannot grow here.
            for bank_id in sorted(self._active_banks):
                self._pump_preloads(bank_id)
        self._pump_evictions()
        self._pump_line_stores()
        self._pump_invalidations()

    @property
    def work_pending(self) -> bool:
        """Would :meth:`cycle` do anything?  O(1); jobs in the MSHR
        ``wait`` stage complete via wheel events, not the pump."""
        return bool(
            self._preload_pending
            or self._evict_q
            or self._line_store_q
            or self._inval_q
        )

    @property
    def idle(self) -> bool:
        return not (
            self._preload_pending
            or self._evict_q
            or self._line_store_q
            or self._inval_q
        )

    # -- preload pipeline ------------------------------------------------------------------

    def _pump_preloads(self, bank_id: int) -> None:
        queue = self._preload_q[bank_id]
        if not queue:
            return
        job = queue[0]
        now = self.wheel.now
        if now < job.ready_at:
            return
        key = (job.warp_id, job.reg)
        bank = self.banks[bank_id]

        if job.stage == "tag":
            self.counters.inc("osu_tag")
            entry = bank.entry(key)
            if entry is not None:
                job.l1_copy = entry.has_l1_copy
                bank.acquire(key)
                self._finish_preload(bank_id, job, "osu")
                return
            job.stage = "bitvec"
            job.ready_at = now + self.config.bitvec_latency
            return

        if job.stage == "bitvec":
            if (job.warp_id, job.reg) not in self._materialized:
                # Launch value: no memory copy exists anywhere; the value is
                # synthesized like a compressed constant.
                self._allocate_and_finish(bank_id, job, "const")
                return
            if self.compressor.enabled and self.compressor.is_compressed(
                job.reg, job.warp_id
            ):
                job.compressed = True
                result = self.compressor.fetch(job.reg, job.warp_id)
                if result is None:
                    return  # compressor port busy; retry
                if result == "compressor":
                    job.ready_at = now + self.config.decompress_latency
                    job.stage = "install"
                    job.source = "compressor"
                    return
                job.stage = "l1"  # compressed line must come from L1
                return
            job.stage = "l1"
            return

        if job.stage == "install":
            self._allocate_and_finish(bank_id, job, job.source)
            return

        if job.stage == "l1":
            addr = (
                self.mapping.compressed_address(job.reg, job.warp_id)
                if job.compressed
                else self.mapping.address(job.reg, job.warp_id)
            )
            accepted = self.l1.read(
                addr, lambda src, b=bank_id, j=job: self._l1_arrived(b, j, src)
            )
            if accepted:
                self.counters.inc("l1_preload_req")
                job.stage = "wait"
                # The request is in the memory system (MSHR); free the bank
                # queue so later preloads are not head-of-line blocked.
                queue.popleft()
                self._preload_pending -= 1
                if not queue:
                    self._active_banks.discard(bank_id)
            return

    def _l1_arrived(self, bank_id: int, job: _PreloadJob, src: str) -> None:
        if job.compressed:
            victim = self.compressor.install_line(job.reg, job.warp_id)
            if victim is not None:
                self._line_store_q.append(victim)
        source = "l1" if src == "l1" else "l2dram"
        self._allocate_and_finish(bank_id, job, source)

    def _allocate_and_finish(self, bank_id: int, job: _PreloadJob, source: str) -> None:
        bank = self.banks[bank_id]
        key = (job.warp_id, job.reg)
        _, victim = bank.allocate(key)
        if victim is not None:
            self._queue_eviction(victim)
        entry = bank.entry(key)
        if entry is not None and source in ("l1", "l2dram") and not job.compressed:
            entry.has_l1_copy = True
            job.l1_copy = True
        self._finish_preload(bank_id, job, source)

    def _finish_preload(self, bank_id: int, job: _PreloadJob, source: str) -> None:
        queue = self._preload_q[bank_id]
        if queue and queue[0] is job:
            queue.popleft()
            self._preload_pending -= 1
        elif job in queue:  # defensive; waiting jobs were already dequeued
            queue.remove(job)
            self._preload_pending -= 1
        if not queue:
            self._active_banks.discard(bank_id)
        self.counters.inc(self._c_preload_src[source])
        self.counters.inc("preloads")
        if job.invalidate:
            # Invalidating read: the memory copy dies with this preload.
            # The compressor bit clears for free; an L1 request is only
            # needed when an uncompressed L1 copy actually exists.
            self.compressor.invalidate(job.reg, job.warp_id)
            self._materialized.discard((job.warp_id, job.reg))
            if job.l1_copy:
                self.enqueue_invalidate(job.warp_id, job.reg)
                entry = self.banks[bank_id].entry((job.warp_id, job.reg))
                if entry is not None:
                    entry.has_l1_copy = False
        self.on_preload_done(job.warp_id, source)

    # -- eviction pipeline -------------------------------------------------------------------

    def _queue_eviction(self, key: Key) -> None:
        value = self.value_of(key[0], key[1])
        self._materialized.add(key)
        self._evict_q.append((key, value))

    def _pump_evictions(self) -> None:
        if not self._evict_q:
            return
        (warp_id, reg), value = self._evict_q[0]
        if self.compressor.enabled:
            if not self.compressor.port_free:
                return
            compressed, victim = self.compressor.try_compress(reg, warp_id, value)
            if compressed:
                self._evict_q.popleft()
                if victim is not None:
                    self._line_store_q.append(victim)
                return
        # Incompressible: full line store to L1.
        if self.l1.write(self.mapping.address(reg, warp_id)):
            self.counters.inc("l1_evict_store")
            self._evict_q.popleft()

    def _pump_line_stores(self) -> None:
        if not self._line_store_q:
            return
        addr = self._line_store_q[0]
        if self.l1.write(addr):
            self.counters.inc("l1_compressed_store")
            self._line_store_q.popleft()

    def _pump_invalidations(self) -> None:
        if not self._inval_q:
            return
        warp_id, reg = self._inval_q[0]
        if self.l1.invalidate(self.mapping.address(reg, warp_id)):
            self.counters.inc("l1_inval_req")
            self.compressor.invalidate(reg, warp_id)
            self._inval_q.popleft()

    # -- capacity queries (for the CM) -----------------------------------------------------------

    def reservable(self, rotated_usage: List[int], reserved: List[int]) -> bool:
        """Can a region with this rotated usage be reserved on top of the
        CM's current per-bank reservations?"""
        for bank_id, need in enumerate(rotated_usage):
            if reserved[bank_id] + need > self.banks[bank_id].capacity:
                return False
        return True
