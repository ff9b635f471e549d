"""The RegLess pattern compressor (paper section 5.3).

On the eviction path, register values are matched against a fixed set of
simple patterns — constants (all lanes equal), stride-1 and stride-4
sequences, and their half-warp variants.  A compressed register costs 4-8
bytes instead of a 128-byte line, so 15 compressed registers share one cache
line in a dedicated memory space.

The compressor keeps:

* a **bit vector** indexed by register slot saying whether the current
  memory copy is compressed — checked on every preload so the unit never
  fetches a compressed line just to discover a register is uncompressed;
* a small **cache** of compressed lines (16ish lines), so recently evicted
  compressed registers can be re-inflated without touching the L1.

On our affine lane-value domain the patterns are exact: UNIFORM matches the
constant pattern, AFFINE stride 1/4 match the stride patterns.  Half-warp
patterns are represented by AFFINE values whose stride matches in each half
(the domain cannot express mixed halves, so the half-warp encodings add no
extra coverage here — noted in DESIGN.md).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple

from ..energy.accounting import Counters
from ..sim.values import LaneValues
from .mapping import REGS_PER_COMPRESSED_LINE, RegisterMapping

__all__ = ["Compressor", "match_pattern", "COMPRESS_PATTERNS"]

COMPRESS_PATTERNS = (
    "constant",
    "stride1",
    "stride4",
    "half_stride1",
    "half_stride4",
)


def match_pattern(value: LaneValues) -> Optional[str]:
    """The compression pattern matching ``value``, or None."""
    if value.is_uniform:
        return "constant"
    if value.is_affine:
        if abs(value.stride) == 1:
            return "stride1"
        if abs(value.stride) == 4:
            return "stride4"
    return None


class Compressor:
    """One shard's compressor unit."""

    def __init__(
        self,
        counters: Counters,
        mapping: RegisterMapping,
        cache_lines: int = 12,
        enabled: bool = True,
    ):
        self.counters = counters
        self.mapping = mapping
        self.cache_lines = cache_lines
        self.enabled = enabled
        #: slots whose memory copy is compressed (the bit vector).
        self._bitvec: Set[int] = set()
        #: compressed-line cache: line addr -> dirty flag (LRU order).
        self._cache: "OrderedDict[int, bool]" = OrderedDict()
        #: per-cycle port (one compression/decompression per cycle).
        self._port_used = False
        #: per-pattern store counters, resolved once (hot path).
        self._c_pattern = {p: f"compress_{p}" for p in COMPRESS_PATTERNS}

    # -- per-cycle port ---------------------------------------------------------

    def begin_cycle(self) -> None:
        self._port_used = False

    @property
    def port_free(self) -> bool:
        return not self._port_used

    def _take_port(self) -> None:
        self._port_used = True

    # -- preload path -----------------------------------------------------------------

    def is_compressed(self, reg_index: int, warp_id: int) -> bool:
        """Bit-vector check (adds ``bitvec_latency`` to OSU misses)."""
        return self.mapping.slot(reg_index, warp_id) in self._bitvec

    def cache_has_line(self, reg_index: int, warp_id: int) -> bool:
        addr = self.mapping.compressed_address(reg_index, warp_id)
        return addr in self._cache

    def fetch(self, reg_index: int, warp_id: int) -> Optional[str]:
        """Service a preload of a compressed register.

        Returns ``"compressor"`` on a compressed-cache hit, ``"l1"`` when the
        compressed line must come from L1 (the caller issues that request),
        or None when the port is busy this cycle.
        """
        if not self.port_free:
            return None
        self._take_port()
        self.counters.inc("compressor_access")
        addr = self.mapping.compressed_address(reg_index, warp_id)
        if addr in self._cache:
            self._cache.move_to_end(addr)
            self.counters.inc("compressor_hit")
            return "compressor"
        return "l1"

    def install_line(self, reg_index: int, warp_id: int) -> Optional[int]:
        """Insert the compressed line after an L1 fetch; returns the address
        of a dirty victim line to write back, if any."""
        addr = self.mapping.compressed_address(reg_index, warp_id)
        return self._insert(addr, dirty=False)

    # -- eviction path ------------------------------------------------------------------

    def try_compress(
        self, reg_index: int, warp_id: int, value: LaneValues
    ) -> Tuple[bool, Optional[int]]:
        """Attempt to compress an evicted register.

        Returns ``(compressed, victim_line_addr)``: when compressed, the
        value was folded into a (possibly newly allocated) cache line and
        ``victim_line_addr`` is a dirty compressed line that must be written
        to L1 to make room (or None).  When not compressed the caller sends
        the full register to L1.
        """
        if not self.enabled:
            return False, None
        self.counters.inc("compressor_access")
        pattern = match_pattern(value)
        slot = self.mapping.slot(reg_index, warp_id)
        if pattern is None:
            self._bitvec.discard(slot)
            self._reconcile_line(slot)
            return False, None
        self.counters.inc("compressor_store")
        self.counters.inc(self._c_pattern[pattern])
        self._bitvec.add(slot)
        addr = self.mapping.compressed_address(reg_index, warp_id)
        victim = self._insert(addr, dirty=True)
        return True, victim

    def _insert(self, addr: int, dirty: bool) -> Optional[int]:
        if addr in self._cache:
            self._cache[addr] = self._cache[addr] or dirty
            self._cache.move_to_end(addr)
            return None
        victim: Optional[int] = None
        if len(self._cache) >= self.cache_lines:
            v_addr, v_dirty = self._cache.popitem(last=False)
            if v_dirty:
                victim = v_addr
        self._cache[addr] = dirty
        return victim

    # -- invalidation -------------------------------------------------------------------

    def _reconcile_line(self, slot: int) -> None:
        """Drop the cached compressed line once no live bit-vector slot maps
        to it.  Without this, a register that re-evicts *uncompressed* leaves
        its old compressed copy in the cache; when it later re-evicts
        compressed, ``_insert`` merges into the stale line and its dirty
        write-back resurrects dead neighbours in L1."""
        line = slot // REGS_PER_COMPRESSED_LINE
        addr = self.mapping.compressed_base + line * self.mapping.line_bytes
        if addr not in self._cache:
            return
        lo = line * REGS_PER_COMPRESSED_LINE
        if any(s in self._bitvec
               for s in range(lo, lo + REGS_PER_COMPRESSED_LINE)):
            return  # other registers still live on this line
        del self._cache[addr]
        self.counters.inc("compressor_line_reclaim")

    def invalidate(self, reg_index: int, warp_id: int) -> None:
        """Drop a dead register from the bit vector (cache lines stay while
        any sibling register on them is still compressed)."""
        slot = self.mapping.slot(reg_index, warp_id)
        self._bitvec.discard(slot)
        self._reconcile_line(slot)

    @property
    def compressed_count(self) -> int:
        return len(self._bitvec)
