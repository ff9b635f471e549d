"""Register-file virtualization — Jeon et al. [19] (Figure 1c).

Architectural registers are renamed onto a *half-size* physical register
file: a physical register is allocated at a register's (re)definition and
released when divergence-aware liveness says the value is dead.  When the
free pool runs dry the defining warp stalls — this is the register-pressure
slowdown the paper observed for ``dwt2d`` and ``hotspot``.

The rename table and metadata cost are assumed negligible, matching the
paper's comparison methodology (section 6.1).

Counters: ``rfv_read``/``rfv_write`` (accesses to the half-size structure),
``rfv_stall_cycles`` (issue attempts rejected for lack of a physical
register).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set, Tuple

from ..compiler.pipeline import CompiledKernel
from ..energy.model import RFV_ENTRIES
from ..isa.instructions import Instruction
from .base import OperandStorage

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.warp import Warp

__all__ = ["RFVStorage"]


class RFVStorage(OperandStorage):
    """The RFV backend for one shard."""

    name = "rfv"

    #: ``can_issue`` is impure on failure (it counts the rejected attempt
    #: toward ``rfv_stall_cycles`` and arms the emergency valve), so
    #: pressure-blocked warps must stay in the shard's ready set and be
    #: re-attempted every cycle — parking them would change both counters
    #: and valve timing.
    parkable = False

    #: cycles of shard-wide allocation stall before the emergency valve
    #: opens (renaming deadlock avoidance; counted in ``rfv_overflow``).
    EMERGENCY_CYCLES = 2000

    def __init__(self, compiled: CompiledKernel, entries_per_sm: int = RFV_ENTRIES):
        super().__init__()
        self.compiled = compiled
        self.entries_per_sm = entries_per_sm
        self._deaths = compiled.liveness.death_map()
        #: live rename mappings: (warp id, architectural reg) present.
        self._mapped: Set[Tuple[int, int]] = set()
        self._blocked_since: int = -1
        self._emergency = False
        #: per-warp mapping-state version; any mutation of a warp's
        #: mappings bumps it, invalidating that warp's cached need count.
        self._need_ver: Dict[int, int] = {}
        #: wid -> (insn, version, need) — a pressure-blocked warp calls
        #: ``_needed_allocations`` for the same instruction every cycle
        #: (can_issue + stall_reason) until something actually changes.
        self._need_cache: Dict[int, Tuple[Instruction, int, int]] = {}

    def attach(self, shard) -> None:
        super().attach(shard)
        self.capacity = self.entries_per_sm // shard.sm.config.schedulers_per_sm

    # -- allocation bookkeeping ----------------------------------------------

    @property
    def allocated(self) -> int:
        return len(self._mapped)

    def _needed_allocations(self, warp: "Warp", insn: Instruction) -> int:
        wid = warp.wid
        ver = self._need_ver.get(wid, 0)
        hit = self._need_cache.get(wid)
        if hit is not None and hit[0] is insn and hit[1] == ver:
            return hit[2]
        need = 0
        mapped = self._mapped
        for r in insn.reg_srcs:
            if (wid, r.index) not in mapped:
                need += 1  # first touch (kernel parameter): map on read
        for r in insn.reg_dsts:
            if (wid, r.index) not in mapped:
                need += 1
        self._need_cache[wid] = (insn, ver, need)
        return need

    # -- issue-path hooks -------------------------------------------------------

    def can_issue(self, warp: "Warp", pc: int, insn: Instruction) -> bool:
        need = self._needed_allocations(warp, insn)
        if self.allocated + need > self.capacity:
            if self._emergency:
                self.counters.inc("rfv_overflow")
                return True
            now = self.now
            if self._blocked_since < 0:
                self._blocked_since = now
            elif now - self._blocked_since > self.EMERGENCY_CYCLES:
                # No warp has issued for a long time: every warp is waiting
                # on someone else's physical registers.  Over-allocate until
                # occupancy recovers (visible as rfv_overflow).
                self._emergency = True
                self.counters.inc("rfv_overflow")
                return True
            self.counters.inc("rfv_stall_cycles")
            return False
        return True

    def stall_reason(self, warp: "Warp", pc: int, insn: Instruction):
        """Pure preview of :meth:`can_issue` for stall attribution — no
        emergency-valve bookkeeping, no counter increments."""
        need = self._needed_allocations(warp, insn)
        if self.allocated + need > self.capacity and not self._emergency:
            return "rfv_pressure"
        return None

    def on_issue(self, warp: "Warp", pc: int, insn: Instruction) -> None:
        self._blocked_since = -1
        wid = warp.wid
        for r in insn.reg_srcs:
            self._mapped.add((wid, r.index))
            self.counters.inc("rfv_read")
        for r in insn.reg_dsts:
            self._mapped.add((wid, r.index))
        self._need_ver[wid] = self._need_ver.get(wid, 0) + 1

    def on_writeback(self, warp: "Warp", pc: int, insn: Instruction) -> None:
        wid = warp.wid
        for r in insn.reg_dsts:
            self.counters.inc("rfv_write")
        # Free physical registers whose live range ends at this pc.
        for r in self._deaths.get(pc, ()):
            self._mapped.discard((wid, r.index))
        if self._emergency and self.allocated <= self.capacity:
            self._emergency = False
        self._need_ver[wid] = self._need_ver.get(wid, 0) + 1

    def on_warp_exit(self, warp: "Warp") -> None:
        wid = warp.wid
        self._mapped = {(w, r) for (w, r) in self._mapped if w != wid}
        self._need_ver[wid] = self._need_ver.get(wid, 0) + 1
