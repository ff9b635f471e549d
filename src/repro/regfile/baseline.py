"""Baseline full register file (Figure 1a).

A 2048-entry (256 KB) banked register file per SM: every operand read and
result write-back accesses it.  Bank conflicts are modeled statistically via
the operand-collector abstraction: the paper's baseline includes operand
collectors that smooth conflicts, so we charge accesses but no extra stalls.

Counters:

* ``rf_read`` / ``rf_write`` — 128-byte accesses to the main register file
  (also the Figure 3 "backing store accesses" series for the baseline).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..energy.model import BASELINE_RF_ENTRIES
from ..isa.instructions import Instruction
from .base import CTAOccupancyMixin, OperandStorage

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.warp import Warp

__all__ = ["BaselineRF"]


class BaselineRF(CTAOccupancyMixin, OperandStorage):
    """The conventional full-size register file."""

    name = "baseline"

    def __init__(self, entries_per_sm: int = BASELINE_RF_ENTRIES):
        super().__init__()
        self.entries_per_sm = entries_per_sm

    def can_issue(self, warp: "Warp", pc: int, insn: Instruction) -> bool:
        return self.is_resident(warp)

    def on_warp_exit(self, warp: "Warp") -> None:
        self.retire_warp(warp)

    def on_issue(self, warp: "Warp", pc: int, insn: Instruction) -> None:
        n_reads = len(insn.reg_srcs)
        if n_reads:
            self.counters.inc("rf_read", n_reads)

    def on_writeback(self, warp: "Warp", pc: int, insn: Instruction) -> None:
        n_writes = len(insn.reg_dsts)
        if n_writes:
            self.counters.inc("rf_write", n_writes)
