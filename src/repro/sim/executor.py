"""Functional execution of instructions over the lane-value domain.

:func:`compute_result` evaluates an ALU/SFU instruction's destination value;
control flow, predicates, and memory are handled by the shard (they need
timing and oracle context).

Because instructions are static, each one compiles — on first execution —
to a small closure (``insn.exec_plan``) with its operand fetches and opcode
dispatch resolved ahead of time: immediates become shared pre-built
:class:`LaneValues`, register reads become direct ``regs.get`` calls, and
the opcode ``if``-chain disappears entirely.  The simulator then executes
the same few hundred static instructions hundreds of thousands of times at
one indirect call each.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..isa.instructions import Instruction
from ..isa.opcodes import Opcode
from ..isa.registers import Imm, Pred, Reg
from .values import LaneValues, ZERO
from .warp import Warp

__all__ = ["read_operand", "compute_result"]


def read_operand(warp: Warp, operand) -> LaneValues:
    if isinstance(operand, Reg):
        return warp.read_reg(operand)
    if isinstance(operand, Imm):
        return LaneValues.uniform(operand.value)
    if isinstance(operand, Pred):
        # Predicate as a data source (SEL): lanes are 0/1 — opaque structure.
        return LaneValues.random(warp.read_pred(operand) ^ 0xA5A5)
    raise TypeError(f"unreadable operand {operand!r}")


_SALTS = {
    Opcode.XOR: 0x10,
    Opcode.AND: 0x11,
    Opcode.OR: 0x12,
    Opcode.SHR: 0x13,
    Opcode.IMIN: 0x14,
    Opcode.IMAX: 0x15,
    Opcode.FMIN: 0x16,
    Opcode.FMAX: 0x17,
    Opcode.SEL: 0x18,
    Opcode.CVT: 0x19,
    Opcode.RCP: 0x20,
    Opcode.RSQ: 0x21,
    Opcode.SIN: 0x22,
    Opcode.EX2: 0x23,
    Opcode.LG2: 0x24,
    Opcode.FDIV: 0x25,
    Opcode.FADD: 0x26,
    Opcode.FMUL: 0x27,
    Opcode.FFMA: 0x28,
}

_Fetch = Callable[[Warp], LaneValues]
_Plan = Callable[[Warp], Optional[LaneValues]]


def _fetchers(insn: Instruction) -> List[_Fetch]:
    """One fetch closure per source operand, operand kind pre-dispatched."""
    fns: List[_Fetch] = []
    for s in insn.srcs:
        if type(s) is Reg:
            idx = s.index
            fns.append(lambda warp, _i=idx: warp.regs.get(_i, ZERO))
        elif type(s) is Imm:
            # Immutable by convention, so one shared instance is safe.
            const = LaneValues.uniform(s.value)
            fns.append(lambda warp, _c=const: _c)
        elif type(s) is Pred:
            fns.append(
                lambda warp, _p=s: LaneValues.random(
                    warp.read_pred(_p) ^ 0xA5A5
                )
            )
        else:
            raise TypeError(f"unreadable operand {s!r}")
    return fns


def _build_plan(insn: Instruction) -> _Plan:
    op = insn.opcode
    fs = _fetchers(insn)
    n = len(fs)
    f0 = fs[0] if n > 0 else (lambda warp: ZERO)
    f1 = fs[1] if n > 1 else (lambda warp: ZERO)
    f2 = fs[2] if n > 2 else (lambda warp: ZERO)

    if op is Opcode.MOV or op is Opcode.CVT:
        return f0
    if op is Opcode.IADD:
        return lambda warp: f0(warp).add(f1(warp))
    if op is Opcode.FADD:
        # Float adds preserve affine structure only while every lane stays
        # inside the float32-exact integer range; LaneValues.float_add holds
        # the explicit degrade-to-RANDOM rule.
        return lambda warp: f0(warp).float_add(f1(warp))
    if op is Opcode.ISUB:
        return lambda warp: f0(warp).sub(f1(warp))
    if op is Opcode.IMUL or op is Opcode.FMUL:
        return lambda warp: f0(warp).mul(f1(warp))
    if op is Opcode.IMAD:
        return lambda warp: f0(warp).mul(f1(warp)).add(f2(warp))
    if op is Opcode.FFMA:
        return lambda warp: f0(warp).mul(f1(warp)).float_add(f2(warp))
    if op is Opcode.SHL:
        return lambda warp: f0(warp).shl(f1(warp))
    salt = _SALTS.get(op, 0x3F)
    if n <= 1:
        return lambda warp: f0(warp).opaque(salt=salt)
    if n == 2:
        return lambda warp: f0(warp).opaque(f1(warp), salt=salt)
    rest = fs[1:]
    def chain(warp: Warp) -> LaneValues:
        result = f0(warp)
        for f in rest:
            result = result.opaque(f(warp), salt=salt)
        return result
    return chain


def _plan_for(insn: Instruction) -> _Plan:
    plan = _build_plan(insn)
    object.__setattr__(insn, "exec_plan", plan)  # frozen: cache slot
    return plan


def compute_result(warp: Warp, insn: Instruction) -> Optional[LaneValues]:
    """Destination value for a (non-memory, non-control) instruction."""
    plan = insn.exec_plan
    if plan is None:
        plan = _plan_for(insn)
    return plan(warp)
