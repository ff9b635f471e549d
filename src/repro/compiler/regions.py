"""Region creation — Algorithm 1 of the paper (section 4.1–4.2).

A *region* is a contiguous PC range inside one basic block, scheduled
atomically by the RegLess hardware.  The compiler chooses region boundaries
to (a) keep each region's register footprint within the operand staging
unit's per-region and per-bank limits, (b) separate global loads from their
first uses so warps never stall inside a region, and (c) cut at the points
with the fewest live registers so that as few values as possible cross
region boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..isa.kernel import Kernel
from ..isa.registers import Reg
from .liveness import Liveness

__all__ = ["RegionConfig", "Region", "RegionStats", "create_regions", "region_stats"]


@dataclass(frozen=True)
class RegionConfig:
    """Compiler-side limits mirroring the OSU hardware geometry."""

    #: Number of OSU banks; registers map to bank ``reg.index % banks``
    #: (rotated by warp id at run time, which preserves per-bank counts).
    banks: int = 8
    #: Cap on a region's concurrent register footprint, so one region cannot
    #: monopolize the staging unit (IsValid line 18).
    max_regs_per_region: int = 32
    #: Cap on the footprint within any single bank (IsValid line 20).
    max_regs_per_bank: int = 8
    #: Minimum region length targeted by FindSplitPoint (paper: 48 bytes =
    #: 6 eight-byte instructions).
    min_region_insns: int = 6
    #: Forbid a global load and its first use in the same region
    #: (IsValid line 22).
    split_load_use: bool = True
    #: Ablation switch: when False, FindSplitPoint ignores liveness seams
    #: and splits at the upper bound.
    split_at_seams: bool = True


@dataclass(frozen=True)
class RegionStats:
    """Register-footprint statistics of a candidate PC range."""

    inputs: FrozenSet[Reg]
    outputs: FrozenSet[Reg]
    interior: FrozenSet[Reg]
    max_live: int
    bank_usage: Tuple[int, ...]

    @property
    def boundary_regs(self) -> int:
        return len(self.inputs) + len(self.outputs)

    @property
    def all_regs(self) -> FrozenSet[Reg]:
        return self.inputs | self.outputs | self.interior


@dataclass
class Region:
    """One compiled region: a PC range plus its register statistics."""

    rid: int
    block: str
    start_pc: int
    end_pc: int  # exclusive
    stats: RegionStats = field(repr=False)

    @property
    def num_insns(self) -> int:
        return self.end_pc - self.start_pc

    @property
    def inputs(self) -> FrozenSet[Reg]:
        return self.stats.inputs

    @property
    def outputs(self) -> FrozenSet[Reg]:
        return self.stats.outputs

    @property
    def interior(self) -> FrozenSet[Reg]:
        return self.stats.interior

    @property
    def max_live(self) -> int:
        return self.stats.max_live

    @property
    def bank_usage(self) -> Tuple[int, ...]:
        return self.stats.bank_usage

    def contains_pc(self, pc: int) -> bool:
        return self.start_pc <= pc < self.end_pc

    def pcs(self) -> range:
        """The region's straight-line pc sequence (start inclusive,
        end exclusive)."""
        return range(self.start_pc, self.end_pc)

    def __repr__(self) -> str:
        return (
            f"Region({self.rid}, {self.block}, pc=[{self.start_pc},"
            f"{self.end_pc}), in={len(self.inputs)}, out={len(self.outputs)},"
            f" interior={len(self.interior)}, max_live={self.max_live})"
        )


def _indices(mask: int) -> List[int]:
    """Set bit positions of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Footprints:
    """:func:`region_stats` for one kernel, memoized per ``(start, end)``.

    Registers are bits of an int (bit ``i`` is ``R<i>``): the scan reads
    the instructions' ``src_idx``/``dst_idx`` tuples, and the live sets it
    consults are turned into masks once per pc."""

    def __init__(self, kernel: Kernel, liveness: Liveness,
                 config: RegionConfig):
        self.kernel = kernel
        self.liveness = liveness
        self.banks = config.banks
        self.insns = [kernel.insn_at(pc)
                      for pc in range(kernel.num_instructions)]
        #: one of the kernel's own ``Reg`` objects per index
        self.reg_of: Dict[int, Reg] = {
            r.index: r for insn in self.insns for r in insn.regs
        }
        #: pc -> bits of the registers soft-defined there
        self.soft: Dict[int, int] = {}
        for pc, r in liveness.soft_defs:
            self.soft[pc] = self.soft.get(pc, 0) | 1 << r.index
        self._before: Dict[int, int] = {}
        self._after: Dict[int, int] = {}
        self._memo: Dict[Tuple[int, int], RegionStats] = {}

    def _mask(self, cache: Dict[int, int], sets, pc: int) -> int:
        mask = cache.get(pc)
        if mask is None:
            mask = 0
            for r in sets[pc]:
                mask |= 1 << r.index
            cache[pc] = mask
        return mask

    def _regs(self, mask: int) -> FrozenSet[Reg]:
        reg_of = self.reg_of
        return frozenset(reg_of[i] for i in _indices(mask))

    def stats(self, start: int, end: int) -> RegionStats:
        key = (start, end)
        stats = self._memo.get(key)
        if stats is None:
            stats = self._memo[key] = self._scan(start, end)
        return stats

    def _scan(self, start: int, end: int) -> RegionStats:
        insns, soft, banks = self.insns, self.soft, self.banks
        live_in = (self._mask(self._before, self.liveness.live_before, start)
                   if start < end else 0)
        reads = defs = soft_defs = 0
        last_use: Dict[int, int] = {}
        for pc in range(start, end):
            insn = insns[pc]
            for i in insn.src_idx:
                if not defs >> i & 1:
                    # Read of a value that may originate outside the region.
                    reads |= 1 << i
                last_use[i] = pc
            for i in insn.dst_idx:
                defs |= 1 << i
                last_use[i] = pc
            soft_defs |= soft.get(pc, 0)

        inputs = (reads | soft_defs) & live_in
        live_after = (self._mask(self._after, self.liveness.live_after,
                                 end - 1)
                      if end > start else 0)
        outputs = defs & live_after
        interior = (reads | defs) & ~inputs & ~outputs

        # Forward allocation scan for peak footprint.
        allocated = inputs
        staged = _indices(inputs)
        n_allocated = max_live = len(staged)
        bank_count = [0] * banks
        for i in staged:
            bank_count[i % banks] += 1
        bank_peak = list(bank_count)
        for pc in range(start, end):
            insn = insns[pc]
            for i in insn.dst_idx:
                if not allocated >> i & 1:
                    allocated |= 1 << i
                    n_allocated += 1
                    b = i % banks
                    bank_count[b] += 1
                    if bank_count[b] > bank_peak[b]:
                        bank_peak[b] = bank_count[b]
            if n_allocated > max_live:
                max_live = n_allocated
            for i in set(insn.reg_idx):
                bit = 1 << i
                if last_use[i] == pc and allocated & bit and not outputs & bit:
                    allocated ^= bit
                    n_allocated -= 1
                    bank_count[i % banks] -= 1

        return RegionStats(
            inputs=self._regs(inputs),
            outputs=self._regs(outputs),
            interior=self._regs(interior),
            max_live=max_live,
            bank_usage=tuple(bank_peak),
        )


def region_stats(
    kernel: Kernel,
    liveness: Liveness,
    start: int,
    end: int,
    config: RegionConfig,
) -> RegionStats:
    """Compute the register footprint of the PC range ``[start, end)``.

    * ``inputs`` — registers whose value must be staged before the region
      runs: live-in registers read in the region, plus registers with a soft
      definition in the region (the unwritten lanes' old values must be
      preserved — paper section 4.4).
    * ``outputs`` — registers written in the region and live after it.
    * ``interior`` — everything else referenced: whole lifetime inside.
    * ``max_live`` / ``bank_usage`` — peak concurrent OSU footprint, total
      and per bank, from a forward allocation scan (inputs are all staged at
      entry; an entry is released after the register's last in-region use
      unless it is an output, which stays until region end).

    :func:`create_regions` keeps one :class:`_Footprints` for a whole
    kernel, so each range it examines is scanned once.
    """
    return _Footprints(kernel, liveness, config).stats(start, end)


# ---------------------------------------------------------------------------
# Algorithm 1
# ---------------------------------------------------------------------------


def _load_use_pairs(kernel: Kernel, start: int, end: int) -> List[Tuple[int, int]]:
    """(load_pc, first_use_pc) pairs for global loads inside ``[start, end)``."""
    pairs: List[Tuple[int, int]] = []
    for pc in range(start, end):
        insn = kernel.insn_at(pc)
        if not insn.opcode.is_global_load:
            continue
        for dst in insn.dst_idx:
            for use_pc in range(pc + 1, end):
                user = kernel.insn_at(use_pc)
                if dst in user.src_idx:
                    pairs.append((pc, use_pc))
                    break
                if dst in user.dst_idx:
                    break  # redefined before use
    return pairs


def _contains_multi_insn_barrier(kernel: Kernel, start: int, end: int) -> bool:
    """True when the range holds a barrier plus other instructions.

    A warp waiting at a barrier keeps its region's OSU reservation, so a
    barrier must sit in its own (register-free) region or every warp of a
    CTA would hold live capacity while waiting — a capacity deadlock.
    """
    if end - start <= 1:
        return False
    for pc in range(start, end):
        if kernel.insn_at(pc).opcode.info.is_barrier:
            return True
    return False


def _is_valid(
    footprints: _Footprints, start: int, end: int, config: RegionConfig
) -> bool:
    """IsValid from Algorithm 1 (plus the barrier-isolation rule)."""
    kernel = footprints.kernel
    stats = footprints.stats(start, end)
    if stats.max_live > config.max_regs_per_region:
        return False
    if max(stats.bank_usage, default=0) > config.max_regs_per_bank:
        return False
    if config.split_load_use and _load_use_pairs(kernel, start, end):
        return False
    if _contains_multi_insn_barrier(kernel, start, end):
        return False
    return True


def _find_split_point(
    footprints: _Footprints, start: int, end: int, config: RegionConfig
) -> int:
    """FindSplitPoint from Algorithm 1; returns the split PC.

    The first region becomes ``[start, split)`` and the second
    ``[split, end)``.
    """
    # upper bound: largest split such that the first region stays valid.
    upper = start + 1
    for split in range(start + 1, end):
        if _is_valid(footprints, start, split, config):
            upper = split
        else:
            break

    # lower bound: the split that separates the most global loads from their
    # first uses (minimizes load/use pairs left inside either new region).
    lower = upper
    if config.split_load_use:
        pairs = _load_use_pairs(footprints.kernel, start, end)
        if pairs:
            best_cost: Optional[int] = None
            for split in range(start + 1, upper + 1):
                cost = sum(
                    1 for ld, use in pairs if not (ld < split <= use)
                )
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    lower = split

    lower = min(max(start + config.min_region_insns, lower), upper)

    if not config.split_at_seams:
        return upper

    # choose the split in [lower, upper] producing the fewest combined
    # input+output registers in the two new regions (the liveness "seam").
    best_split = lower
    best_boundary: Optional[int] = None
    for split in range(lower, upper + 1):
        first = footprints.stats(start, split)
        second = footprints.stats(split, end)
        boundary = first.boundary_regs + second.boundary_regs
        if best_boundary is None or boundary < best_boundary:
            best_boundary = boundary
            best_split = split
    return best_split


def create_regions(
    kernel: Kernel,
    liveness: Liveness,
    config: Optional[RegionConfig] = None,
) -> List[Region]:
    """CreateRegions from Algorithm 1.

    Starts from one region per basic block and repeatedly splits invalid
    regions.  The first region of each split is guaranteed valid; the second
    re-enters the worklist.  Returned regions are sorted by start PC and
    tile every instruction of the kernel exactly once.
    """
    config = config or RegionConfig()
    footprints = _Footprints(kernel, liveness, config)
    worklist: List[Tuple[str, int, int]] = []
    for block in kernel.blocks:
        start = kernel.block_start_pc(block.label)
        end = kernel.block_end_pc(block.label)
        if end > start:
            worklist.append((block.label, start, end))

    accepted: List[Tuple[str, int, int]] = []
    while worklist:
        label, start, end = worklist.pop(0)
        if _is_valid(footprints, start, end, config):
            accepted.append((label, start, end))
            continue
        split = _find_split_point(footprints, start, end, config)
        if split <= start or split >= end:
            # Cannot split further (single oversized instruction footprint);
            # accept as-is — the hardware handles it with a degraded limit.
            accepted.append((label, start, end))
            continue
        accepted.append((label, start, split))
        worklist.insert(0, (label, split, end))

    accepted.sort(key=lambda t: t[1])
    return [
        Region(rid, label, start, end, footprints.stats(start, end))
        for rid, (label, start, end) in enumerate(accepted)
    ]
