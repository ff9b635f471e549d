"""Architectural register allocation (the ptxas stage of the paper's flow).

Workload kernels are built SSA-style (every temporary gets a fresh
register), which inflates architectural register counts.  Real kernels are
register-allocated by ptxas before RegLess's compiler runs — and the
*allocated* register count is what sizes baseline occupancy (a 2048-entry
register file holds ``2048 / regs_per_warp`` warps).

This pass renames registers using divergence-aware liveness:

* an interference graph is built from the per-PC live sets (plus
  definition-time interference against live-out values);
* registers that are live-in at kernel entry (thread id, kernel parameters)
  keep their original indices — their launch values are positional;
* remaining registers are greedily colored in order of first definition.

Soft definitions are honoured automatically because they come from the same
liveness analysis: a soft write keeps the old value live, so the two ranges
interfere and never share a register.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..isa.instructions import Instruction
from ..isa.kernel import BasicBlock, Kernel
from ..isa.registers import Reg
from .liveness import Liveness, analyze_liveness

__all__ = ["allocate_registers", "build_interference"]


def build_interference(
    kernel: Kernel, liveness: Optional[Liveness] = None
) -> Dict[Reg, Set[Reg]]:
    """Interference graph over architectural registers.

    ``liveness`` is the kernel's :func:`analyze_liveness` result, computed
    here when not given."""
    if liveness is None:
        liveness = analyze_liveness(kernel)
    graph: Dict[Reg, Set[Reg]] = {r: set() for r in kernel.registers}
    # Whole-set unions reuse the hashes the live sets already store; each
    # register also lands in its own set, and those self-edges are dropped
    # at the end.
    for pc, _, insn in kernel.iter_pcs():
        live = liveness.live_before[pc]
        for reg in live:
            graph[reg] |= live
        # A definition interferes with everything live after it (the def
        # must not clobber values that outlive this instruction).
        after = liveness.live_after[pc]
        for d in insn.reg_dsts:
            graph[d] |= after
            for other in after:
                graph[other].add(d)
    for reg, neighbours in graph.items():
        neighbours.discard(reg)
    return graph


def allocate_registers(kernel: Kernel) -> Kernel:
    """Rename registers to a compact set; returns a new kernel."""
    liveness = analyze_liveness(kernel)
    graph = build_interference(kernel, liveness)

    pinned = sorted(liveness.live_in.get(kernel.entry, frozenset()))
    mapping: Dict[Reg, int] = {r: r.index for r in pinned}

    # Color in order of first definition (stable, cache-friendly numbering).
    order: List[Reg] = []
    seen: Set[Reg] = set(pinned)
    for pc, _, insn in kernel.iter_pcs():
        for r in insn.reg_dsts:
            if r not in seen:
                seen.add(r)
                order.append(r)
        for r in insn.reg_srcs:
            if r not in seen:  # used but never defined nor live-in: pin
                seen.add(r)
                mapping[r] = r.index

    for reg in order:
        taken = {
            mapping[n] for n in graph.get(reg, ()) if n in mapping
        }
        color = 0
        while color in taken:
            color += 1
        mapping[reg] = color

    def rename(op):
        if isinstance(op, Reg):
            return Reg(mapping.get(op, op.index))
        return op

    blocks = []
    for block in kernel.blocks:
        insns = [
            Instruction(
                opcode=i.opcode,
                dsts=tuple(rename(d) for d in i.dsts),
                srcs=tuple(rename(s) for s in i.srcs),
                guard=i.guard,
                target=i.target,
                tag=i.tag,
            )
            for i in block.instructions
        ]
        blocks.append(BasicBlock(block.label, insns))
    return Kernel(kernel.name, blocks)
