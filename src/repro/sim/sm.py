"""One streaming multiprocessor: shards, barriers, L1 port, program views.

The SM owns the flattened program, the reconvergence-point table, the CTA
barrier bookkeeping, the per-cycle LDST issue slot, and the per-SM L1
register cache shared (one request per cycle) by its four RegLess shards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..compiler.domtree import postdominator_tree
from ..compiler.pipeline import CompiledKernel
from ..mem.l1 import L1RegCache
from ..regfile.base import OperandStorage
from .scheduler import make_scheduler
from .shard import Shard
from .warp import Warp

if TYPE_CHECKING:  # pragma: no cover
    from .gpu import GPU

__all__ = ["SM"]


class SM:
    """A streaming multiprocessor."""

    def __init__(
        self,
        gpu: "GPU",
        sm_id: int,
        storage_factory: Callable[[int], OperandStorage],
    ):
        self.gpu = gpu
        self.sm_id = sm_id
        self.config = gpu.config
        self.counters = gpu.counters
        self.wheel = gpu.wheel
        self.hierarchy = gpu.hierarchy
        self.compiled: CompiledKernel = gpu.compiled
        kernel = self.compiled.kernel

        # Program views ------------------------------------------------------
        self.program = [kernel.insn_at(pc) for pc in range(kernel.num_instructions)]
        self.program_len = len(self.program)
        self._block_start: Dict[str, int] = {
            b.label: kernel.block_start_pc(b.label) for b in kernel.blocks
        }
        pdom = postdominator_tree(kernel)
        self._reconv: Dict[str, int] = {}
        for block in kernel.blocks:
            ip = pdom.idom(block.label) if block.label in pdom else None
            if ip is not None and ip in self._block_start:
                self._reconv[block.label] = self._block_start[ip]
            else:
                self._reconv[block.label] = self.program_len
        self._block_of_pc = [
            kernel.block_of_pc(pc) for pc in range(kernel.num_instructions)
        ]

        # Warps / shards --------------------------------------------------------
        cfg = self.config
        self.l1 = L1RegCache(
            sm_id, cfg, gpu.counters, self.wheel, self.hierarchy,
        )
        self.warps: List[Warp] = []
        self.shards: List[Shard] = []
        per_shard = cfg.warps_per_scheduler
        for shard_id in range(cfg.schedulers_per_sm):
            shard_warps = []
            for i in range(per_shard):
                wid = sm_id * cfg.warps_per_sm + shard_id * per_shard + i
                warp = Warp(
                    wid=wid,
                    shard_id=shard_id,
                    cta_id=(shard_id * per_shard + i) // cfg.cta_size_warps,
                    entry_pc=kernel.block_start_pc(kernel.entry),
                    sentinel_pc=self.program_len + 1,
                )
                warp.regs.update(
                    {r: v for r, v in gpu.workload.initial_regs(wid).items()}
                )
                shard_warps.append(warp)
                self.warps.append(warp)
            scheduler = make_scheduler(
                cfg.scheduler, shard_warps, cfg.two_level_active
            )
            self.shards.append(
                Shard(self, shard_id, shard_warps, scheduler, storage_factory(shard_id))
            )

        #: cycle stamp of the last LDST issue (one slot per cycle; stamped
        #: instead of reset each cycle so idle cycles cost nothing).
        self._mem_slot_cycle = -1
        self._barrier_count: Dict[int, int] = {}
        self.warps_done = 0

    # -- program lookups ----------------------------------------------------------

    def block_start(self, label: str) -> int:
        return self._block_start[label]

    def reconv_pc(self, branch_pc: int) -> int:
        return self._reconv[self._block_of_pc[branch_pc]]

    # -- shared per-cycle resources ---------------------------------------------------

    def take_mem_slot(self) -> bool:
        now = self.wheel.now
        if self._mem_slot_cycle == now:
            return False
        self._mem_slot_cycle = now
        return True

    @property
    def mem_slot_busy(self) -> bool:
        return self._mem_slot_cycle == self.wheel.now

    # -- barriers -------------------------------------------------------------------------

    def barrier_arrive(self, warp: Warp) -> None:
        warp.at_barrier = True
        cta = warp.cta_id
        self._barrier_count[cta] = self._barrier_count.get(cta, 0) + 1
        members = [w for w in self.warps if w.cta_id == cta and not w.exited]
        if self._barrier_count[cta] >= len(members):
            self._barrier_count[cta] = 0
            shards = self.shards
            for w in members:
                w.at_barrier = False
                # Wake barrier-parked warps (CTAs can span shards, so this
                # may land in a shard whose cycle already ran — its stall
                # accounting committed before the release, as in the seed).
                shards[w.shard_id].reevaluate(w)

    def notify_warp_done(self, warp: Warp) -> None:
        self.warps_done += 1
        self.gpu.warps_done_total += 1
        # A warp exiting may release its CTA's barrier.
        cta = warp.cta_id
        if self._barrier_count.get(cta, 0) > 0:
            members = [
                w for w in self.warps if w.cta_id == cta and not w.exited
            ]
            waiting = [w for w in members if w.at_barrier]
            if members and len(waiting) >= len(members):
                self._barrier_count[cta] = 0
                shards = self.shards
                for w in waiting:
                    w.at_barrier = False
                    shards[w.shard_id].reevaluate(w)

    # -- simulation ------------------------------------------------------------------------

    def cycle(self) -> int:
        # No per-cycle resets: the L1 port and the LDST slot are
        # cycle-stamped, so quiescent cycles pay nothing here.
        issued = 0
        for shard in self.shards:
            issued += shard.cycle()
        return issued

    def account_skipped(self, cycles: int) -> None:
        """Attribute ``cycles`` fast-forwarded cycles to each shard's
        stall bins (replaying the dead cycle that triggered the skip) and
        let storages shift any called-cycle deadlines across the gap."""
        for shard in self.shards:
            shard.storage.on_fast_forward(cycles)
            if shard.stalls is not None:
                shard.stalls.replay(cycles)

    @property
    def done(self) -> bool:
        # Counter-based: every exit goes through notify_warp_done, so this
        # avoids rescanning every warp each cycle.
        return self.warps_done >= len(self.warps)

    @property
    def inflight(self) -> int:
        return sum(w.inflight for w in self.warps)

    @property
    def storage_idle(self) -> bool:
        return all(s.storage.idle for s in self.shards)
