"""Register-lifetime annotations (paper sections 4.3–4.4, Figure 6).

For every region the compiler emits:

* **preloads** — the region's input registers, each optionally flagged as an
  *invalidating read* when the preload is the last use of the memory copy
  (the register dies inside the region);
* **cache invalidations** — cross-region registers known dead at the start
  of the region due to control flow, placed at a postdominator of all the
  live range's definitions and death points;
* **bank usage** — the per-bank OSU capacity the region needs;
* per-PC **erase** marks — last use of an interior (or dying input)
  register: the OSU entry is recycled immediately;
* per-PC **evict** marks — last in-region use of an input/output that
  outlives the region: the entry becomes *eligible* for eviction to L1.

Erase/evict marks attached to a PC whose reference is a *write* take effect
at write-back (the OSU sets evictable+dirty as the value arrives); those are
listed separately in ``evict_on_write`` / ``erase_on_write``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..isa.kernel import Kernel
from ..isa.registers import Reg
from .domtree import postdominator_tree
from .liveness import Liveness
from .metadata import n_metadata_slots
from .regions import Region, RegionConfig

__all__ = ["Preload", "RegionAnnotations", "annotate_regions"]


@dataclass(frozen=True)
class Preload:
    """One input register to stage before the region starts."""

    reg: Reg
    #: Invalidating read: the memory copy is dead once staged (Figure 6).
    invalidate: bool = False


@dataclass
class RegionAnnotations:
    """All compiler annotations attached to one region."""

    rid: int
    preloads: Tuple[Preload, ...]
    cache_invalidates: Tuple[Reg, ...]
    bank_usage: Tuple[int, ...]
    #: pc -> interior/dying registers erased after their last *read* at pc.
    erase_at: Dict[int, Tuple[Reg, ...]] = field(default_factory=dict)
    #: pc -> cross-region registers eligible for eviction after a read at pc.
    evict_at: Dict[int, Tuple[Reg, ...]] = field(default_factory=dict)
    #: pc -> registers whose last reference is the write at pc; the OSU marks
    #: them erased as the write-back lands.
    erase_on_write: Dict[int, Tuple[Reg, ...]] = field(default_factory=dict)
    #: pc -> registers whose last reference is the write at pc; marked
    #: evictable+dirty at write-back.
    evict_on_write: Dict[int, Tuple[Reg, ...]] = field(default_factory=dict)
    n_metadata_insns: int = 0

    @property
    def n_preloads(self) -> int:
        return len(self.preloads)


def _metadata_instruction_count(
    n_insns: int, n_preloads: int, n_invalidates: int
) -> int:
    """Metadata overhead in instruction slots (paper section 5.4); the
    formula lives in :func:`repro.compiler.metadata.n_metadata_slots`,
    mirroring the word-by-word encoder exactly."""
    return n_metadata_slots(n_insns, n_preloads + n_invalidates)


def _last_references(
    kernel: Kernel, region: Region
) -> Tuple[Dict[Reg, int], Set[Reg]]:
    """Last referencing PC per register, and whether that reference writes."""
    last: Dict[Reg, int] = {}
    write_last: Set[Reg] = set()
    for pc in range(region.start_pc, region.end_pc):
        insn = kernel.insn_at(pc)
        for r in insn.reg_srcs:
            last[r] = pc
            write_last.discard(r)
        for r in insn.reg_dsts:
            last[r] = pc
            write_last.add(r)
    return last, write_last


def _place_cache_invalidations(
    kernel: Kernel,
    liveness: Liveness,
    regions: List[Region],
) -> Dict[int, List[Reg]]:
    """Map region id -> registers to cache-invalidate at region start.

    For each cross-region register (one that is an input or output of some
    region, hence may reside in the L1), find the block that postdominates
    every block referencing it where the register is no longer live-in, and
    attach the invalidation to the first region of that block.
    """
    pdom = postdominator_tree(kernel)
    cross: Set[Reg] = set()
    for region in regions:
        cross |= region.inputs | region.outputs

    # Blocks referencing each cross-region register.
    ref_blocks: Dict[Reg, Set[str]] = {r: set() for r in cross}
    for pc, label, insn in kernel.iter_pcs():
        for r in insn.regs:
            if r in cross:
                ref_blocks[r].add(label)

    first_region_of_block: Dict[str, int] = {}
    for region in regions:
        if region.block not in first_region_of_block:
            first_region_of_block[region.block] = region.rid
        else:
            first_region_of_block[region.block] = min(
                first_region_of_block[region.block], region.rid
            )

    result: Dict[int, List[Reg]] = {}
    max_ref_index = {
        reg: max(kernel.block_index(b) for b in blocks)
        for reg, blocks in ref_blocks.items()
        if blocks
    }
    for reg, blocks in ref_blocks.items():
        target = _common_postdominator(kernel, pdom, blocks)
        if target is None:
            continue
        # Walk down the postdominator chain until the register is dead AND
        # the point is past every reference in layout order — an earlier
        # point would sit inside a loop and re-fire the (safe but wasteful)
        # invalidation every iteration.
        while target is not None:
            past_refs = (
                target in {b.label for b in kernel.blocks}
                and kernel.block_index(target) >= max_ref_index[reg]
            )
            dead = reg not in liveness.live_in.get(target, frozenset())
            if dead and past_refs:
                break
            target = pdom.idom(target)
        if target is None or target not in first_region_of_block:
            continue
        result.setdefault(first_region_of_block[target], []).append(reg)
    return result


def _common_postdominator(
    kernel: Kernel, pdom, blocks: Set[str]
) -> Optional[str]:
    """Nearest real block postdominating every block in ``blocks``."""
    common: Optional[FrozenSet[str]] = None
    for b in blocks:
        if b not in pdom:
            return None
        sets = pdom.dominators(b)
        common = sets if common is None else (common & sets)
    if not common:
        return None
    # Choose the nearest: walk up the postdominator chain from the first
    # block in layout order.  ``blocks`` is a set of strings, so its own
    # iteration order would follow the process's hash seed.
    start = min(blocks, key=kernel.block_index)
    node: Optional[str] = start
    while node is not None:
        if node in common and node != start:
            break
        node = pdom.idom(node)
    candidate = node
    if candidate is None and start in common and len(blocks) == 1:
        candidate = start
    # Skip the virtual exit node.
    if candidate is not None and candidate not in {
        b.label for b in kernel.blocks
    }:
        candidate = pdom.idom(candidate) if candidate in pdom else None
    return candidate


def annotate_regions(
    kernel: Kernel,
    liveness: Liveness,
    regions: List[Region],
    config: Optional[RegionConfig] = None,
) -> List[RegionAnnotations]:
    """Produce :class:`RegionAnnotations` for every region, in rid order."""
    config = config or RegionConfig()
    invalidations = _place_cache_invalidations(kernel, liveness, regions)

    annotated: List[RegionAnnotations] = []
    for region in regions:
        last, write_last = _last_references(kernel, region)
        live_after_region = (
            liveness.live_after[region.end_pc - 1]
            if region.end_pc > region.start_pc
            else frozenset()
        )

        preloads = tuple(
            Preload(reg, invalidate=reg not in live_after_region)
            for reg in sorted(region.inputs)
        )

        erase_at: Dict[int, List[Reg]] = {}
        evict_at: Dict[int, List[Reg]] = {}
        erase_on_write: Dict[int, List[Reg]] = {}
        evict_on_write: Dict[int, List[Reg]] = {}
        for reg, pc in last.items():
            dies_here = reg not in live_after_region
            is_write = reg in write_last
            if dies_here:
                bucket = erase_on_write if is_write else erase_at
            else:
                bucket = evict_on_write if is_write else evict_at
            bucket.setdefault(pc, []).append(reg)

        cache_inv = tuple(sorted(invalidations.get(region.rid, [])))
        n_meta = _metadata_instruction_count(
            region.num_insns, len(preloads), len(cache_inv)
        )
        annotated.append(
            RegionAnnotations(
                rid=region.rid,
                preloads=preloads,
                cache_invalidates=cache_inv,
                bank_usage=region.bank_usage,
                erase_at={pc: tuple(sorted(v)) for pc, v in erase_at.items()},
                evict_at={pc: tuple(sorted(v)) for pc, v in evict_at.items()},
                erase_on_write={
                    pc: tuple(sorted(v)) for pc, v in erase_on_write.items()
                },
                evict_on_write={
                    pc: tuple(sorted(v)) for pc, v in evict_on_write.items()
                },
                n_metadata_insns=n_meta,
            )
        )
    return annotated
