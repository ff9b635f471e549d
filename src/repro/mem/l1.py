"""Per-SM L1 cache used as the register backing store.

Per the paper: the L1 services **one request per cycle** (the key bandwidth
constraint motivating region creation), data accesses bypass it entirely
(Table 1), and for register lines it is write-back with a no-fetch-on-write
optimization — an evicted register always overwrites a whole line, so a
write miss allocates without reading memory (section 5.2.3).

Misses go through an MSHR file to the shared L2/DRAM hierarchy.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..energy.accounting import Counters
from ..sim.config import GPUConfig
from ..sim.events import EventWheel
from .cache import MSHRFile, SetAssocCache
from .hierarchy import MemoryHierarchy

__all__ = ["L1RegCache"]


class L1RegCache:
    """One SM's L1, serving register fills/write-backs/invalidations."""

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        counters: Counters,
        wheel: EventWheel,
        hierarchy: MemoryHierarchy,
    ):
        self.sm_id = sm_id
        self.config = config
        self.counters = counters
        self.wheel = wheel
        self.hierarchy = hierarchy
        self.cache = SetAssocCache(config.l1_lines, config.l1_assoc, config.line_bytes)
        self.mshrs = MSHRFile(config.l1_mshrs)
        self._port_used = 0
        self._port_cycle = -1

    # -- port management: one request per cycle --------------------------------
    #
    # The port is cycle-stamped rather than reset by a per-cycle call: the
    # use count only counts against the limit while the stamp matches
    # ``wheel.now``, so an idle L1 costs nothing per cycle (component
    # clocking contract, docs/performance.md).

    def begin_cycle(self) -> None:
        """Explicit port reset for external drivers that do not advance the
        wheel between cycles (unit tests); the simulator relies on the
        cycle stamp instead."""
        self._port_cycle = self.wheel.now
        self._port_used = 0

    @property
    def port_free(self) -> bool:
        return (
            self._port_used < self.config.l1_ports
            or self._port_cycle != self.wheel.now
        )

    def _take_port(self) -> None:
        now = self.wheel.now
        if self._port_cycle != now:
            self._port_cycle = now
            self._port_used = 1
        else:
            self._port_used += 1

    # -- register-space operations ------------------------------------------------

    def read(self, addr: int, callback: Callable[[str], None]) -> bool:
        """Fetch a register line; ``callback(source)`` runs when data is
        ready, with ``source`` in {"l1", "l2dram"}.  Returns False when the
        port or MSHRs are busy (caller retries next cycle)."""
        if not self.port_free:
            self.counters.inc("l1_port_reject")
            return False
        addr = self.cache.align(addr)
        self.counters.inc("l1_access")
        if self.cache.lookup(addr):
            self._take_port()
            self.counters.inc("l1_hit")
            self.wheel.after(self.config.l1_latency, lambda: callback("l1"))
            return True
        if not self.mshrs.can_allocate(addr):
            self.counters.inc("l1_mshr_reject")
            return False
        self._take_port()
        self.counters.inc("l1_miss")
        primary = self.mshrs.allocate(addr, callback)
        if primary:
            self.hierarchy.request(
                self.sm_id, addr, False, lambda: self._fill(addr), kind="reg"
            )
        return True

    def _fill(self, addr: int) -> None:
        victim = self.cache.fill(addr, dirty=False)
        if victim is not None and victim.dirty:
            self.counters.inc("l1_writeback")
            self.hierarchy.request(self.sm_id, victim.addr, True, None, kind="reg")
        for cb in self.mshrs.complete(addr):
            cb("l2dram")

    def write(self, addr: int, callback: Optional[Callable[[], None]] = None) -> bool:
        """Write a full register line (OSU eviction).  No fetch on miss."""
        if not self.port_free:
            self.counters.inc("l1_port_reject")
            return False
        self._take_port()
        addr = self.cache.align(addr)
        self.counters.inc("l1_access")
        self.counters.inc("l1_reg_store")
        victim = self.cache.fill(addr, dirty=True)
        if victim is not None and victim.dirty:
            self.counters.inc("l1_writeback")
            self.hierarchy.request(self.sm_id, victim.addr, True, None, kind="reg")
        if callback is not None:
            self.wheel.after(1, callback)
        return True

    def invalidate(self, addr: int) -> bool:
        """Drop a dead register line (compiler cache-invalidate annotation)."""
        if not self.port_free:
            self.counters.inc("l1_port_reject")
            return False
        self._take_port()
        self.counters.inc("l1_access")
        self.counters.inc("l1_reg_inval")
        self.cache.invalidate(self.cache.align(addr))
        return True

    def contains(self, addr: int) -> bool:
        return self.cache.lookup(addr, touch=False)
