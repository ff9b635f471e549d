"""RegLess as an :class:`~repro.regfile.base.OperandStorage` backend.

One instance per shard wires together the capacity manager, the operand
staging unit and the compressor (Figure 8), and translates the simulator's
issue/write-back events into the compiler-annotation actions:

* at issue: OSU reads for sources, entry reservation for destinations,
  ``erase``/``evict`` annotations attached to last *reads*;
* at write-back: OSU write (dirty), ``erase_on_write``/``evict_on_write``
  annotations, drain-completion checks;
* at region start: metadata instruction slots (section 5.4);
* at EXIT: all the warp's entries are dropped.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..compiler.pipeline import CompiledKernel
from ..isa.instructions import Instruction
from ..regfile.base import OperandStorage
from ..sim.values import LaneValues, ZERO
from ..sim.warp import Warp
from .capacity import CapacityManager, WarpState
from .compressor import Compressor
from .config import ReglessConfig
from .mapping import RegisterMapping
from .osu import OperandStagingUnit

__all__ = ["ReglessStorage"]


class ReglessStorage(OperandStorage):
    """The RegLess operand-staging backend for one shard."""

    name = "regless"

    def __init__(self, compiled: CompiledKernel, config: Optional[ReglessConfig] = None):
        super().__init__()
        self.compiled = compiled
        self.rcfg = config or ReglessConfig()
        self.osu: Optional[OperandStagingUnit] = None
        self.cm: Optional[CapacityManager] = None
        self._warp_by_id: Dict[int, Warp] = {}

    # -- wiring --------------------------------------------------------------

    def attach(self, shard) -> None:
        super().attach(shard)
        sm = shard.sm
        cfg = sm.config
        self._warp_by_id = {w.wid: w for w in shard.warps}
        mapping = RegisterMapping(
            n_warps=cfg.warps_per_sm * cfg.n_sms,
            n_regs=max(1, self.compiled.kernel.num_regs),
            line_bytes=cfg.line_bytes,
        )
        compressor = Compressor(
            sm.counters,
            mapping,
            cache_lines=self.rcfg.compressor_cache_lines,
            enabled=self.rcfg.compressor_enabled,
        )
        self.osu = OperandStagingUnit(
            self.rcfg,
            sm.counters,
            sm.wheel,
            sm.l1,
            compressor,
            mapping,
            value_of=self._value_of,
            on_preload_done=self._on_preload_done,
        )
        self.cm = CapacityManager(
            self.rcfg, self.compiled, sm.counters, self.osu, shard.warps
        )
        # Admission progress (INACTIVE→PRELOADING→ACTIVE) re-admits parked
        # warps to the shard's ready set.
        self.cm.wake = self.notify_wake
        self._wheel = sm.wheel

        # Per-pc annotation tables, flattened to register-index tuples so
        # the issue/write-back hooks don't re-resolve region + dict lookups
        # per dynamic instruction.  pcs outside any region keep empty
        # actions (they can never issue under RegLess anyway).
        compiled = self.compiled
        n = compiled.kernel.num_instructions
        erase_i, evict_i, erase_w, evict_w, last = [], [], [], [], []
        for pc in range(n):
            try:
                ann = compiled.annotations_of_pc(pc)
                is_last = compiled.is_region_end(pc)
            except KeyError:
                ann, is_last = None, False
            if ann is None:
                erase_i.append(())
                evict_i.append(())
                erase_w.append(())
                evict_w.append(())
            else:
                erase_i.append(tuple(r.index for r in ann.erase_at.get(pc, ())))
                evict_i.append(tuple(r.index for r in ann.evict_at.get(pc, ())))
                erase_w.append(
                    tuple(r.index for r in ann.erase_on_write.get(pc, ()))
                )
                evict_w.append(
                    tuple(r.index for r in ann.evict_on_write.get(pc, ()))
                )
            last.append(is_last)
        self._pc_erase = erase_i
        self._pc_evict = evict_i
        self._pc_erase_w = erase_w
        self._pc_evict_w = evict_w
        # can_issue guarantees the active region contains pc, and regions
        # partition pcs — so "last pc of the warp's active region" is the
        # static "last pc of the region owning pc".
        self._pc_region_last = last

    def _value_of(self, warp_id: int, reg: int) -> LaneValues:
        warp = self._warp_by_id.get(warp_id)
        if warp is None:
            return ZERO
        return warp.regs.get(reg, ZERO)

    def _on_preload_done(self, warp_id: int, source: str) -> None:
        assert self.cm is not None
        self.cm.on_preload_done(warp_id, source)

    # -- issue-path hooks ---------------------------------------------------------

    def can_issue(self, warp: Warp, pc: int, insn: Instruction) -> bool:
        assert self.cm is not None
        return self.cm.can_issue(warp, pc)

    def stall_reason(self, warp: Warp, pc: int,
                     insn: Instruction) -> Optional[str]:
        """Pure classification of a CM-blocked warp (stall attribution):
        region not staged, preloads in flight, or preload head-of-line
        blocked at the L1 request port."""
        assert self.cm is not None and self.osu is not None
        ctx = self.cm.ctx[warp.wid]
        state = ctx.state
        if state is WarpState.ACTIVE:
            region = ctx.region
            if region is not None and region.contains_pc(pc):
                return None
            return "cm_inactive"
        if state is WarpState.PRELOADING:
            if self.osu.preload_blocked_at_l1(warp.wid):
                return "osu_port"
            return "cm_preloading"
        # INACTIVE, DRAINING, or FINISHED-but-not-yet-exited: the warp
        # waits for (re)admission either way.
        return "cm_inactive"

    def metadata_slots(self, warp: Warp, pc: int) -> int:
        assert self.cm is not None
        return self.cm.consume_metadata(warp, pc)

    def on_issue(self, warp: Warp, pc: int, insn: Instruction) -> None:
        osu = self.osu
        wid = warp.wid
        for i in insn.src_idx:
            osu.read(wid, i)
        for i in insn.dst_idx:
            osu.reserve_write(wid, i)

        for i in self._pc_erase[pc]:
            osu.erase(wid, i)
        for i in self._pc_evict[pc]:
            osu.mark_evictable(wid, i)

        if self._pc_region_last[pc] and not warp.exited:
            self.cm.on_last_issue(warp, self._wheel.now)

    def on_writeback(self, warp: Warp, pc: int, insn: Instruction) -> None:
        osu = self.osu
        wid = warp.wid
        for i in insn.dst_idx:
            osu.complete_write(wid, i)
        for i in self._pc_erase_w[pc]:
            osu.erase(wid, i)
        for i in self._pc_evict_w[pc]:
            osu.mark_evictable(wid, i)
        self.cm.on_writeback(warp, self._wheel.now)

    def on_warp_exit(self, warp: Warp) -> None:
        assert self.osu is not None and self.cm is not None
        self.cm.on_warp_exit(warp, self.now)
        self.osu.erase_warp(warp.wid, self.compiled.kernel.num_regs)

    # -- background ------------------------------------------------------------------

    def cycle(self) -> None:
        assert self.osu is not None and self.cm is not None
        now = self.now
        if self.cm.needs_cycle(now):
            self.cm.cycle(now)
        if self.osu.work_pending:
            self.osu.cycle()

    def has_work(self, now: int) -> bool:
        return self.osu.work_pending or self.cm.needs_cycle(now)

    def on_fast_forward(self, cycles: int) -> None:
        self.cm.on_fast_forward(cycles)

    @property
    def idle(self) -> bool:
        assert self.osu is not None and self.cm is not None
        return self.osu.idle and self.cm.idle

    def finalize(self) -> None:
        assert self.cm is not None
        self.counters.inc("region_cycles_total", self.cm.region_cycles_total)
        self.counters.inc("region_executions", self.cm.region_executions)
