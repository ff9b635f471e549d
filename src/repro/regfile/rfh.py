"""Register-file hierarchy — Gebhart et al. [11] (Figure 1b).

A compile-time-managed three-level hierarchy: a tiny last-result file (LRF),
a small operand register file (ORF), and the full-size main register file
(MRF).  The compiler assigns each *value* (static definition) to a level
based on its reuse pattern:

* consumed only by the immediately following instruction -> LRF;
* all uses within a short window in the same block, while an ORF slot is
  free -> ORF;
* anything else (including every cross-block value) -> MRF.

Values whose lifetime escapes their small level are additionally written
through to the MRF.  The technique requires the two-level warp scheduler
(run it with ``GPUConfig(scheduler="two_level")``), which is where its
performance cost relative to GTO comes from (paper section 6.4).

Counters: ``rfh_lrf_*``, ``rfh_orf_*`` for the small structures;
``rf_read``/``rf_write`` for MRF accesses (so the Figure 3 backing-store
series uses the same counter names as the baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..compiler.pipeline import CompiledKernel
from ..energy.model import BASELINE_RF_ENTRIES
from ..isa.instructions import Instruction
from .base import CTAOccupancyMixin, OperandStorage

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.warp import Warp

__all__ = ["RFHStorage", "assign_levels", "LevelAssignment"]

LRF, ORF, MRF = "lrf", "orf", "mrf"

#: per-level access counter names, resolved once (issue/write-back hot path).
_C_READ = {lvl: f"rfh_{lvl}_read" for lvl in (LRF, ORF)}
_C_WRITE = {lvl: f"rfh_{lvl}_write" for lvl in (LRF, ORF)}


@dataclass(frozen=True)
class LevelAssignment:
    """Compile-time placement for one kernel."""

    #: level supplying each (pc, src register index) read.
    read_level: Dict[Tuple[int, int], str]
    #: level receiving each (pc, dst register index) write.
    write_level: Dict[Tuple[int, int], str]
    #: (pc, reg) writes that additionally spill through to the MRF.
    writethrough: frozenset


def assign_levels(
    compiled: CompiledKernel,
    orf_entries: int = 16,
    orf_window: int = 16,
) -> LevelAssignment:
    """Greedy per-block level assignment."""
    kernel = compiled.kernel
    liveness = compiled.liveness
    read_level: Dict[Tuple[int, int], str] = {}
    write_level: Dict[Tuple[int, int], str] = {}
    writethrough = set()

    for block in kernel.blocks:
        pcs = list(kernel.pcs_of_block(block.label))
        # Uses of each def within the block.
        last_def: Dict[int, int] = {}
        uses_of_def: Dict[Tuple[int, int], List[int]] = {}
        for pc in pcs:
            insn = kernel.insn_at(pc)
            for r in insn.reg_srcs:
                if r.index in last_def:
                    uses_of_def.setdefault((last_def[r.index], r.index), []).append(pc)
            for r in insn.reg_dsts:
                last_def[r.index] = pc

        orf_live = 0
        orf_free_at: List[int] = []  # pcs where an ORF slot frees

        for pc in pcs:
            insn = kernel.insn_at(pc)
            while orf_free_at and orf_free_at[0] <= pc:
                orf_free_at.pop(0)
                orf_live -= 1
            for r in insn.reg_dsts:
                key = (pc, r.index)
                uses = uses_of_def.get(key, [])
                live_out = r in liveness.live_after[pcs[-1]] or not uses
                escapes = r in liveness.live_out[block.label]
                if uses and all(u == pc + 1 for u in uses) and not escapes:
                    level = LRF
                elif (
                    uses
                    and max(uses) - pc <= orf_window
                    and orf_live < orf_entries
                ):
                    # Escaping values may still serve their local uses from
                    # the ORF; the escaped copy is written through to MRF.
                    level = ORF
                    orf_live += 1
                    orf_free_at.append(max(uses) + 1)
                    orf_free_at.sort()
                else:
                    level = MRF
                write_level[key] = level
                if level != MRF and (escapes or live_out):
                    writethrough.add(key)
                for u in uses:
                    read_level[(u, r.index)] = level

    return LevelAssignment(
        read_level=read_level,
        write_level=write_level,
        writethrough=frozenset(writethrough),
    )


class RFHStorage(CTAOccupancyMixin, OperandStorage):
    """The RFH backend: counts accesses per level."""

    name = "rfh"

    def __init__(self, compiled: CompiledKernel, orf_entries: int = 16,
                 orf_window: int = 16, mrf_entries_per_sm: int = BASELINE_RF_ENTRIES):
        super().__init__()
        self.compiled = compiled
        self.entries_per_sm = mrf_entries_per_sm
        self.assignment = assign_levels(compiled, orf_entries, orf_window)

    def can_issue(self, warp: "Warp", pc: int, insn: Instruction) -> bool:
        return self.is_resident(warp)

    def on_warp_exit(self, warp: "Warp") -> None:
        self.retire_warp(warp)

    def on_issue(self, warp: "Warp", pc: int, insn: Instruction) -> None:
        read_level = self.assignment.read_level
        for r in insn.reg_srcs:
            level = read_level.get((pc, r.index), MRF)
            if level == MRF:
                self.counters.inc("rf_read")
            else:
                self.counters.inc(_C_READ[level])

    def on_writeback(self, warp: "Warp", pc: int, insn: Instruction) -> None:
        write_level = self.assignment.write_level
        for r in insn.reg_dsts:
            key = (pc, r.index)
            level = write_level.get(key, MRF)
            if level == MRF:
                self.counters.inc("rf_write")
            else:
                self.counters.inc(_C_WRITE[level])
            if key in self.assignment.writethrough:
                self.counters.inc("rf_write")
