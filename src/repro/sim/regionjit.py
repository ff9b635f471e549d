"""Region superinstruction compilation (execution JIT).

The interpreter in :mod:`repro.sim.shard` dispatches every dynamic
instruction through the same generic ladder: scoreboard loops over operand
index tuples, a virtual ``storage.can_issue`` call, opcode classification,
``compute_result``'s closure tree, ``mark_pending`` loops.  All of that is
static per ``pc``.  This module walks each compiler region's straight-line
instruction sequence at arm time and ``compile()``s one specialized step
function per pc, with every static decision burned in:

* the scoreboard check unrolled over literal register/predicate indices;
* the operand-storage gate specialized per backend flavor (baseline/RFH:
  a CTA-residency set test; RegLess: a capacity-manager state + region
  *identity* test; RFV: a generic call, because its issue test is impure);
* operand fetches and opcode semantics inlined as one expression
  (immediates are prebuilt :class:`~repro.sim.values.LaneValues`);
* control resolution with branch targets and reconvergence pcs as
  literals, and writeback bookkeeping unrolled.

The driver installed as the shard's ``_try_issue`` instance attribute
keeps the interpreter's quick checks (exited / barrier / pipeline stall),
reconvergence pops and program-end exit synthesis, then tail-calls the
step for the current pc.  Everything the steps do is *bit-identical* to
the interpreter: same counter increments in the same order, same oracle
consultation order, same scheduler/storage notifications.

Fallback ladder (docs/performance.md has the full contract):

1. ``REPRO_JIT=0`` disables arming entirely — the PR 4 interpreter runs.
2. Arm-time per-shard checks refuse to arm (reason recorded in the jit
   report): a tracer or any instance-level override of ``issue`` /
   ``_writeback`` / ``_try_issue``; a storage or capacity manager whose
   exact class is not the stock one (fault injection swaps classes);
   working-set tracking; a storage whose compiled kernel is not the
   GPU's.
3. Per-pc: an instruction the generator cannot specialize gets a generic
   step that defers to the interpreter's ``_try_issue`` (counted under
   ``jit.fallback_issued``).
4. Mid-step surprises (divergence, guarded writes, barrier blocking) are
   handled inline by the generated code itself, bit-identically — they
   never need to bail out.

Compiled ``code`` objects are cached by generated source text, so
process-wide repeat arms of the same program+flavor skip ``compile()``
(the expensive part) and only re-``exec`` with fresh per-program globals.
"""

from __future__ import annotations

import heapq
import os
import time
from types import MethodType
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..energy.accounting import Counters
from ..obs.stalls import ISSUED
from ..isa.instructions import Instruction
from ..isa.opcodes import Opcode
from ..isa.registers import Imm, Pred, Reg
from ..regfile.base import OperandStorage
from ..regfile.baseline import BaselineRF
from ..regfile.rfh import MRF, RFHStorage, _C_WRITE
from ..regfile.rfv import RFVStorage
from ..regless.backend import ReglessStorage
from ..regless.capacity import CapacityManager, WarpState
from .executor import _SALTS
from .oracle import FULL_MASK
from .scheduler import GTOScheduler, LRRScheduler, TwoLevelScheduler
from .shard import (
    Shard,
    _ACCT_PARK_BINS,
    _DEMOTE_BINS,
    _FAIL_KEEP,
    _FAIL_PARK,
    _ISSUE_OK,
    _LoadContinuation,
    _STORAGE_BINS,
    _Writeback,
)
from .values import LaneValues, ZERO

if TYPE_CHECKING:  # pragma: no cover
    from .gpu import GPU

__all__ = ["arm_gpu", "collect_jit", "jit_enabled"]

#: generated-source -> compiled code object (compile() dominates arm cost;
#: exec with fresh globals is microseconds).
_CODE_CACHE: Dict[str, object] = {}


def jit_enabled() -> bool:
    """The ``REPRO_JIT`` escape hatch (default on)."""
    return os.environ.get("REPRO_JIT", "1") != "0"


# ---------------------------------------------------------------------------
# source generation
# ---------------------------------------------------------------------------


def _operand_expr(pc: int, k: int, operand) -> Optional[str]:
    """The inline fetch expression for one source operand (``rg`` must be
    bound to ``warp.regs`` by the caller when a Reg appears)."""
    if type(operand) is Reg:
        return f"rg.get({operand.index}, ZERO)"
    if type(operand) is Imm:
        return f"C{pc}_{k}"
    if type(operand) is Pred:
        return (
            f"LaneValues.random(warp.preds.get({operand.index}, 0)"
            f" ^ 0xA5A5)"
        )
    return None


def _value_expr(pc: int, insn: Instruction) -> Optional[str]:
    """The fused ``compute_result`` expression (mirrors
    ``executor._build_plan`` exactly, including ZERO defaults)."""
    exprs = []
    for k, s in enumerate(insn.srcs):
        e = _operand_expr(pc, k, s)
        if e is None:
            return None
        exprs.append(e)

    def e(i: int) -> str:
        return exprs[i] if i < len(exprs) else "ZERO"

    op = insn.opcode
    if op is Opcode.MOV or op is Opcode.CVT:
        return e(0)
    if op is Opcode.IADD:
        return f"{e(0)}.add({e(1)})"
    if op is Opcode.FADD:
        return f"{e(0)}.float_add({e(1)})"
    if op is Opcode.ISUB:
        return f"{e(0)}.sub({e(1)})"
    if op is Opcode.IMUL or op is Opcode.FMUL:
        return f"{e(0)}.mul({e(1)})"
    if op is Opcode.IMAD:
        return f"{e(0)}.mul({e(1)}).add({e(2)})"
    if op is Opcode.FFMA:
        return f"{e(0)}.mul({e(1)}).float_add({e(2)})"
    if op is Opcode.SHL:
        return f"{e(0)}.shl({e(1)})"
    salt = _SALTS.get(op, 0x3F)
    if len(exprs) <= 1:
        return f"{e(0)}.opaque(salt={salt})"
    out = e(0)
    for i in range(1, len(exprs)):
        out = f"{out}.opaque({exprs[i]}, salt={salt})"
    return out


def _mark_pending_lines(insn: Instruction) -> List[str]:
    """``warp.mark_pending`` unrolled over literal destination indices."""
    lines = []
    if insn.dst_idx:
        lines.append("pr2 = warp.pending_regs")
        for i in insn.dst_idx:
            lines.append(f"pr2[{i}] = pr2.get({i}, 0) + 1")
    if insn.pred_dst_idx:
        lines.append("pp2 = warp.pending_preds")
        for i in insn.pred_dst_idx:
            lines.append(f"pp2[{i}] = pp2.get({i}, 0) + 1")
    lines.append("warp.inflight += 1")
    return lines


def _park_lines(bin_expr: str, demotes: bool, demote_bin: bool,
                indent: str) -> List[str]:
    """An inline ``_maybe_park`` for a failure whose bin is known: park the
    warp now instead of letting the cycle loop re-derive the bin through
    ``_classify``.  A non-ready warp is a mid-scan re-yield (or the dual
    -issue second attempt of a warp that just parked) — skip, exactly like
    ``_maybe_park``'s early out.  ``demote_bin`` mirrors the _DEMOTE_BINS
    check: a demoting scheduler's still-eligible warp must stay ready."""
    guard = "warp.ready"
    if demotes and demote_bin:
        guard += " and not shard.scheduler.eligible(warp)"
    return [f"{indent}if {guard}:", f"{indent}    shard._park(warp, {bin_expr})"]


def _scoreboard_lines(insn: Instruction, demotes: bool) -> List[str]:
    """Scoreboard + blocked-on-memory check over literal indices; a failed
    check parks the warp under its (statically known) bin."""
    conds = []
    pre = []
    reg_idx = tuple(dict.fromkeys(insn.reg_idx))
    pred_idx = tuple(dict.fromkeys(insn.pred_idx))
    if reg_idx:
        pre.append("pr = warp.pending_regs")
        test = " or ".join(f"{i} in pr" for i in reg_idx)
        conds.append(f"(pr and ({test}))")
    if pred_idx:
        pre.append("pp = warp.pending_preds")
        test = " or ".join(f"{i} in pp" for i in pred_idx)
        conds.append(f"(pp and ({test}))")
    if not conds:
        return []
    lines = pre + [f"if {' or '.join(conds)}:"]
    src_idx = tuple(dict.fromkeys(insn.src_idx))
    if src_idx:
        test = " or ".join(f"{i} in pl" for i in src_idx)
        lines.append("    pl = warp.pending_loads")
        lines.append(f"    if pl and ({test}):")
        lines.append("        shard.scheduler.notify_long_stall(warp)")
        lines.extend(_park_lines('"mem_pending"', demotes, True, "        "))
        lines.append("    else:")
        lines.extend(_park_lines('"scoreboard"', demotes, False, "        "))
    else:
        lines.extend(_park_lines('"scoreboard"', demotes, False, "    "))
    lines.append("    return PARK")
    return lines


def _inc(name: str, amount: str = "1", *, inline_counts: bool) -> str:
    """One counter bump: a direct defaultdict add when the SM's counters
    are the stock flat :class:`Counters` (``cnt`` bound in the prologue),
    else the generic ``inc`` method call."""
    if inline_counts:
        return f'cnt["{name}"] += {amount}'
    if amount == "1":
        return f'inc("{name}")'
    return f'inc("{name}", {amount})'


def _on_issue_lines(flavor: str, pc: int, insn: Instruction,
                    rfh_assignment=None, *, inline_counts: bool) -> List[str]:
    """``storage.on_issue`` fused per backend flavor."""
    if flavor == "baseline":
        n = len(insn.reg_srcs)
        if not n:
            return []
        return [_inc("rf_read", str(n), inline_counts=inline_counts)]
    if flavor == "rfh":
        counts: Dict[str, int] = {}
        read_level = rfh_assignment.read_level
        for r in insn.reg_srcs:
            level = read_level.get((pc, r.index), MRF)
            name = "rf_read" if level == MRF else f"rfh_{level}_read"
            counts[name] = counts.get(name, 0) + 1
        return [
            _inc(name, str(n), inline_counts=inline_counts)
            for name, n in counts.items()
        ]
    # regless / rfv: the hooks mutate OSU / rename state — keep the real
    # bound call (still saves the interpreter's dispatch around it).
    return [f"on_issue(warp, {pc}, I{pc})"]


class _Unsupported(Exception):
    """The generator cannot specialize this pc; use a generic step."""


def _step_source(pc: int, insn: Instruction, flavor: str, *,
                 line_bytes: int, branch_target: Optional[int],
                 reconv: Optional[int], rid: int, hit_idx: int,
                 region_start: bool, rfh_assignment=None,
                 demotes: bool = False, inline_counts: bool = False,
                 storage=None) -> str:
    """Source of one ``_step_{pc}(shard, warp, now, top)`` function."""
    body: List[str] = []
    emit = body.append

    def inc(name: str, amount: str = "1") -> str:
        return _inc(name, amount, inline_counts=inline_counts)

    # 1. scoreboard (interpreter: warp.scoreboard_ready + notify_long_stall)
    body.extend(_scoreboard_lines(insn, demotes))

    # 2. operand-storage gate (interpreter: storage.can_issue); a gate
    # failure parks under the stall_reason bin, computed inline.
    if flavor in ("baseline", "rfh"):
        emit("if warp.cta_id not in shard._jit_resident:")
        emit("    shard.scheduler.notify_long_stall(warp)")
        body.extend(_park_lines('"occupancy"', demotes, True, "    "))
        emit("    return PARK")
    elif flavor == "regless":
        if rid < 0:
            raise _Unsupported("pc outside any region")
        emit("ctx = shard._jit_cm_ctx[warp.wid]")
        emit(f"if ctx.state is not ACTIVE or ctx.region is not REG{rid}:")
        emit("    shard.scheduler.notify_long_stall(warp)")
        # stall_reason, inline: PRELOADING splits on the OSU's L1 port,
        # everything else (INACTIVE/DRAINING/FINISHED, or ACTIVE on a
        # different region) waits for (re)admission.
        park = _park_lines("r", demotes, True, "        ")
        emit("    if warp.ready:")
        emit("        if ctx.state is PRELOADING:")
        emit('            r = ("osu_port" if shard._jit_osu_blocked(warp.wid)'
             ' else "cm_preloading")')
        emit("        else:")
        emit('            r = "cm_inactive"')
        body.extend(park)
        emit("    return PARK")
    elif flavor == "rfv":
        # can_issue is impure on failure (valve/counters): real call.  RFV
        # is non-parkable, so the cycle loop's park pass would be a pure
        # no-op — KEEP skips it.
        emit(f"if not can_issue(warp, {pc}, I{pc}):")
        emit("    shard.scheduler.notify_long_stall(warp)")
        emit("    return KEEP")
    else:
        raise _Unsupported(f"flavor {flavor}")

    # 3. per-cycle LDST slot
    if insn.is_mem:
        emit("if not shard._jit_take_mem_slot():")
        emit("    return KEEP")

    # 4. issue body (interpreter: Shard.issue)
    if inline_counts:
        emit("cnt = shard._jit_counts")
    else:
        emit("inc = shard._counters_inc")
    emit(inc("insn_issued"))
    emit("warp.issued += 1")
    if flavor == "regless" and region_start:
        # consume_metadata is nonzero only at the active region's first pc;
        # the gate above pinned that region, so non-start pcs skip the call.
        emit(f"meta = shard._jit_metadata(warp, {pc})")
        emit("if meta:")
        emit("    " + inc("metadata_issue", "meta"))

    info = insn.info
    guard = insn.guard
    needs_guard = guard is not None and (
        info.is_branch
        or insn.opcode is Opcode.LDG
        or (not insn.is_mem and not info.is_exit and not info.is_barrier
            and insn.opcode is not Opcode.SETP and insn.reg_dsts)
    )
    if needs_guard:
        emit(f"gm = warp.preds.get({guard.pred.index}, 0)")
        if guard.negate:
            emit(f"gm = ~gm & {FULL_MASK}")

    on_issue = _on_issue_lines(flavor, pc, insn, rfh_assignment,
                               inline_counts=inline_counts)
    fused_tail = [f"shard._jit_hits[{hit_idx}] += 1", "return OK"]

    # 5. control resolution + class body
    if info.is_branch:
        if branch_target is None:
            raise _Unsupported("branch without target pc")
        if guard is None:
            emit(f"top.pc = {branch_target}")
        else:
            emit("am = top.mask")
            emit("taken = am & gm")
            emit(f"nottaken = am & ~gm & {FULL_MASK}")
            emit("if nottaken == 0:")
            emit(f"    top.pc = {branch_target}")
            emit("elif taken == 0:")
            emit(f"    top.pc = {pc + 1}")
            emit("else:")
            emit("    " + inc("divergent_branch"))
            emit(f"    warp.diverge({reconv}, {branch_target}, taken,"
                 f" {pc + 1}, nottaken)")
        body.extend(on_issue)
        body.extend(fused_tail)
        return _render(pc, body)

    if info.is_exit:
        emit(f"top.pc = {pc + 1}")
        emit("warp.exited = True")
        body.extend(on_issue)
        emit("shard.storage.on_warp_exit(warp)")
        emit("shard.sm.notify_warp_done(warp)")
        body.extend(fused_tail)
        return _render(pc, body)

    if info.is_barrier:
        emit(f"top.pc = {pc + 1}")
        body.extend(on_issue)
        emit("shard.sm.barrier_arrive(warp)")
        emit("if warp.at_barrier:")
        emit("    shard.scheduler.notify_long_stall(warp)")
        body.extend(fused_tail)
        return _render(pc, body)

    emit(f"top.pc = {pc + 1}")
    body.extend(on_issue)

    lat = insn.latency
    op = insn.opcode
    wb_src = _wb_source(pc, insn, flavor, storage, rfh_assignment,
                        inline_counts=inline_counts)
    wb = f"AFTER({lat}, _WBC(_wb_{pc}, shard, warp))"

    def _finish() -> str:
        src = _render(pc, body)
        if any("_WBC(" in line for line in body):
            src += "\n" + wb_src
        return src

    if insn.is_mem:
        if op is Opcode.LDS:
            if insn.reg_dsts:
                src = (
                    _operand_expr(pc, 0, insn.srcs[0]) if insn.srcs else None
                )
                if src is None:
                    raise _Unsupported("LDS operand")
                if "rg.get(" in src:
                    emit("rg = warp.regs")
                emit(f"v = {src}.opaque(salt=0x60)")
                # interpreter write_reg defaults full=True even when guarded
                emit(f"warp.regs[{insn.dst_idx[0]}] = v")
                body.extend(_mark_pending_lines(insn))
                emit(wb)
            emit(inc("shared_access"))
        elif op is Opcode.STS:
            emit(inc("shared_access"))
        elif op is Opcode.STG or op is Opcode.LDG:
            src = _operand_expr(pc, 0, insn.srcs[0]) if insn.srcs else None
            if src is None:
                raise _Unsupported("memory address operand")
            if "rg.get(" in src:
                emit("rg = warp.regs")
            emit(f"addr = {src}")
            emit(f"lines = addr.line_addresses({line_bytes},"
                 f" shard._jit_divlines)")
            if op is Opcode.STG:
                emit("req = shard._jit_mem_request")
                emit("smid = shard._jit_sm_id")
                emit("for line in lines:")
                emit('    req(smid, line, True, None, kind="data")')
                emit(inc("gmem_store_lines", "len(lines)"))
            else:  # LDG
                if not insn.reg_dsts:
                    raise _Unsupported("LDG without destination")
                emit(inc("gmem_load_lines", "len(lines)"))
                emit(f"v = shard._jit_load_value(warp.wid, {pc},"
                     f" {insn.tag!r})")
                d = insn.dst_idx[0]
                if guard is None:
                    emit(f"warp.regs[{d}] = v")
                else:
                    emit(f"warp.write_reg(RD{pc}, v,"
                         f" (top.mask & gm) == top.mask)")
                body.extend(_mark_pending_lines(insn))
                emit(f"warp.pending_loads.add({d})")
                emit(f"cont = _LC(shard, warp, {pc}, I{pc}, len(lines))")
                emit("req = shard._jit_mem_request")
                emit("smid = shard._jit_sm_id")
                emit("for line in lines:")
                emit('    req(smid, line, False, cont, kind="data")')
        else:  # pragma: no cover - is_mem covers exactly the four above
            raise _Unsupported(f"memory opcode {op}")
        body.extend(fused_tail)
        return _finish()

    if op is Opcode.SETP:
        if not insn.pred_dsts:
            raise _Unsupported("SETP without predicate destination")
        p = insn.pred_dst_idx[0]
        emit(f"m = shard._jit_pred_mask(warp.wid, {pc}, {insn.tag!r})")
        emit(f"warp.preds[{p}] = m & {FULL_MASK}")
        body.extend(_mark_pending_lines(insn))
        emit(wb)
        body.extend(fused_tail)
        return _finish()

    if insn.reg_dsts:
        expr = _value_expr(pc, insn)
        if expr is None:
            raise _Unsupported("operand kind")
        if "rg.get(" in expr:
            emit("rg = warp.regs")
        emit(f"v = {expr}")
        if guard is None:
            # full=True: active == top.mask always holds unguarded.
            emit(f"warp.regs[{insn.dst_idx[0]}] = v")
        else:
            emit(f"warp.write_reg(RD{pc}, v, (top.mask & gm) == top.mask)")
        body.extend(_mark_pending_lines(insn))
        emit(wb)

    body.extend(fused_tail)
    return _finish()


class _JITWriteback:
    """Write-back continuation for a generated per-pc handler (replaces
    ``_Writeback`` + the interpreter ``_writeback`` dispatch)."""

    __slots__ = ("fn", "shard", "warp")

    def __init__(self, fn, shard, warp):
        self.fn = fn
        self.shard = shard
        self.warp = warp

    def __call__(self) -> None:
        self.fn(self.shard, self.warp)


def _wb_source(pc: int, insn: Instruction, flavor: str, storage,
               rfh_assignment, *, inline_counts: bool) -> str:
    """A per-pc ``Shard._writeback`` equivalent: scoreboard clears unrolled
    over literal indices, ``storage.on_writeback`` inlined per flavor (RFH
    write-level counters and RFV death lists are static per pc)."""
    body: List[str] = []
    e = body.append
    if insn.dst_idx:
        e("pending_regs = warp.pending_regs")
        for i in insn.dst_idx:
            e(f"n = pending_regs.get({i}, 0)")
            e("if n <= 1:")
            e(f"    pending_regs.pop({i}, None)")
            e("else:")
            e(f"    pending_regs[{i}] = n - 1")
    if insn.pred_dst_idx:
        e("pending_preds = warp.pending_preds")
        for i in insn.pred_dst_idx:
            e(f"n = pending_preds.get({i}, 0)")
            e("if n <= 1:")
            e(f"    pending_preds.pop({i}, None)")
            e("else:")
            e(f"    pending_preds[{i}] = n - 1")
    e("warp.inflight -= 1")
    # No is_global_load handling: LDG write-backs ride _LoadContinuation,
    # never this path.  Working-set tracking refuses arming entirely.
    def inc(name: str, amount: str = "1") -> str:
        return _inc(name, amount, inline_counts=inline_counts)

    counter_prologue = (
        "cnt = shard._jit_counts" if inline_counts
        else "inc = shard._counters_inc"
    )
    if flavor == "baseline":
        if insn.reg_dsts:
            e(counter_prologue)
            e(inc("rf_write", str(len(insn.reg_dsts))))
    elif flavor == "rfh":
        if insn.reg_dsts:
            e(counter_prologue)
            write_level = rfh_assignment.write_level
            for r in insn.reg_dsts:
                key = (pc, r.index)
                level = write_level.get(key, MRF)
                e(inc("rf_write" if level == MRF else _C_WRITE[level]))
                if key in rfh_assignment.writethrough:
                    e(inc("rf_write"))
    elif flavor == "rfv":
        e("wid = warp.wid")
        if insn.reg_dsts:
            e(counter_prologue)
            for _ in insn.reg_dsts:
                e(inc("rfv_write"))
        deaths = storage._deaths.get(pc, ())
        if deaths:
            # _mapped is rebound on warp exit: reach it through the
            # storage instance, not a cached set object.
            e("mapped = RFV._mapped")
            for r in deaths:
                e(f"mapped.discard((wid, {r.index}))")
        e("if RFV._emergency and RFV.allocated <= RFV.capacity:")
        e("    RFV._emergency = False")
        e("nv = NEED_VER")
        e("nv[wid] = nv.get(wid, 0) + 1")
    elif flavor == "regless":
        e("wid = warp.wid")
        for i in insn.dst_idx:
            e(f"OSU_CW(wid, {i})")
        for i in storage._pc_erase_w[pc]:
            e(f"OSU_ERASE(wid, {i})")
        for i in storage._pc_evict_w[pc]:
            e(f"OSU_EVICT(wid, {i})")
        e("CM_ON_WB(warp, WHEEL.now)")
    e("if not warp.ready:")
    e("    shard.reevaluate(warp)")
    lines = [f"def _wb_{pc}(shard, warp):"]
    lines.extend(f"    {line}" for line in body)
    return "\n".join(lines) + "\n"


def _render(pc: int, body: List[str]) -> str:
    lines = [f"def _step_{pc}(shard, warp, now, top):"]
    lines.extend(f"    {line}" for line in body)
    return "\n".join(lines) + "\n"


def _generic_source(pc: int) -> str:
    """Interpreter deferral for a pc the generator refused: the class-level
    ``_try_issue`` redoes the quick checks (cheap, already passed) and runs
    the full interpreter path — bit-identical by construction."""
    return (
        f"def _step_{pc}(shard, warp, now, top):\n"
        f"    r = _TRY_ISSUE(shard, warp, now)\n"
        f"    if r is OK:\n"
        f"        shard._jit_falls[0] += 1\n"
        f"    return r\n"
    )


def _classify_source(flavor: str, demotes: bool, program_len: int) -> str:
    """A flavor-specialized ``Shard._classify``: same ladder, same priority
    order, with the virtual ``storage.stall_reason`` call inlined (RFV
    keeps the real call — its pressure preview carries a per-warp cache)
    and ``sm.mem_slot_busy`` reduced to a slot-cycle compare."""
    L: List[str] = ["def _classify(warp, now):"]
    e = L.append
    e("    if warp.exited:")
    e('        return "exited"')
    e("    if warp.at_barrier:")
    e('        return "barrier"')
    e("    if now < warp.stall_until:")
    e('        return "pipeline"')
    e("    stack = warp.stack")
    e("    i = len(stack) - 1")
    e("    entry = stack[i]")
    e("    while i > 0 and entry.pc == entry.reconv_pc:")
    e("        i -= 1")
    e("        entry = stack[i]")
    e("    pc = entry.pc")
    e(f"    if pc >= {program_len}:")
    e('        return "exited"')
    e("    insn = PROGRAM[pc]")
    e("    if not warp.scoreboard_ready(insn):")
    e("        pl = warp.pending_loads")
    e("        if pl:")
    e("            for i in insn.src_idx:")
    e("                if i in pl:")
    e('                    return "mem_pending"')
    e('        return "scoreboard"')
    if flavor in ("baseline", "rfh"):
        e("    if warp.cta_id not in RESIDENT:")
        e('        return "occupancy"')
    elif flavor == "regless":
        e("    ctx = CM_CTX[warp.wid]")
        e("    st = ctx.state")
        e("    if st is ACTIVE:")
        e("        region = ctx.region")
        e("        if region is None or not"
          " (region.start_pc <= pc < region.end_pc):")
        e('            return "cm_inactive"')
        e("    elif st is PRELOADING:")
        e("        if OSU_BLOCKED(warp.wid):")
        e('            return "osu_port"')
        e('        return "cm_preloading"')
        e("    else:")
        e('        return "cm_inactive"')
    else:  # rfv
        e("    reason = STALL_REASON(warp, pc, insn)")
        e("    if reason is not None:")
        e("        return reason")
    e("    if insn.is_mem and SM_OBJ._mem_slot_cycle == now:")
    e('        return "mem_slot"')
    if demotes:
        e("    if not ELIGIBLE(warp):")
        e('        return "demoted"')
    e('    return "issue_width"')
    return "\n".join(L) + "\n"


def _reevaluate_source(flavor: str, demotes: bool, program_len: int) -> str:
    """A flavor-specialized ``Shard.reevaluate``: same wake re-check, with
    ``storage.parkable``/``storage.stall_reason`` resolved statically and
    the bin re-derivation going through the specialized ``_classify``."""
    L: List[str] = ["def _reevaluate(shard, warp):"]
    e = L.append
    e("    if warp.ready:")
    e("        return")
    e("    now = WHEEL.now")
    e("    if not warp.exited and not warp.at_barrier"
      " and now >= warp.stall_until:")
    e("        stack = warp.stack")
    e("        i = len(stack) - 1")
    e("        entry = stack[i]")
    e("        while i > 0 and entry.pc == entry.reconv_pc:")
    e("            i -= 1")
    e("            entry = stack[i]")
    e("        pc = entry.pc")
    e(f"        if pc >= {program_len}:")
    e("            shard._make_ready(warp)")
    e("            return")
    e("        if warp.scoreboard_ready(PROGRAM[pc]):")
    if flavor in ("baseline", "rfh"):
        e("            if warp.cta_id in RESIDENT:")
        e("                shard._make_ready(warp)")
        e("                return")
    elif flavor == "regless":
        e("            ctx = CM_CTX[warp.wid]")
        e("            if ctx.state is ACTIVE:")
        e("                region = ctx.region")
        e("                if region is not None and"
          " region.start_pc <= pc < region.end_pc:")
        e("                    shard._make_ready(warp)")
        e("                    return")
    else:  # rfv: non-parkable — any scoreboard-clear warp re-readies
        e("            shard._make_ready(warp)")
        e("            return")
    e("    bin_ = _classify(warp, now)")
    if demotes:
        e("    if bin_ in DEMOTE_BINS and ELIGIBLE(warp):")
        e("        shard._make_ready(warp)")
        e("        return")
    e("    shard._repark(warp, bin_)")
    return "\n".join(L) + "\n"


def _account_source(flavor: str, demotes: bool) -> str:
    """A flavor-specialized ``Shard._account_stalls``: the dynamic-bin
    refresh emitted only for RegLess (the one flavor with dynamic bins),
    ``storage.parkable``/``scheduler.demotes`` baked, classify direct."""
    parkable = flavor != "rfv"
    L: List[str] = ["def _account_stalls(shard, now, issued_warps):"]
    e = L.append
    if flavor == "regless":
        e("    if DYNAMIC:")
        e("        bins_live = PARKED")
        e("        for warp in tuple(DYNAMIC):")
        e("            pc = warp.park_pc")
        e("            reason = STALL_REASON_R(warp, pc, PROGRAM[pc])")
        e("            if reason is None:")
        e("                shard.reevaluate(warp)")
        e("            elif reason != warp.park_bin:")
        e("                n = bins_live[warp.park_bin] - 1")
        e("                if n:")
        e("                    bins_live[warp.park_bin] = n")
        e("                else:")
        e("                    del bins_live[warp.park_bin]")
        e("                bins_live[reason] = bins_live.get(reason, 0) + 1")
        e("                warp.park_bin = reason")
    e("    bins = dict(PARKED)")
    e("    to_park = None")
    e("    for warp in READY:")
    e("        if warp in issued_warps:")
    e("            continue")
    e("        reason = _classify(warp, now)")
    e("        bins[reason] = bins.get(reason, 0) + 1")
    if parkable and not demotes:
        # Specialized classify never yields "demoted" for a non-demoting
        # scheduler, so the interpreter's elif arm is unreachable here.
        e("        if reason not in ACCT_PARK:")
        e("            continue")
    elif parkable:
        e("        if reason in ACCT_PARK:")
        e("            if reason in DEMOTE_BINS and ELIGIBLE(warp):")
        e("                continue")
        e("        elif reason == 'demoted':")
        e("            stack = warp.stack")
        e("            i = len(stack) - 1")
        e("            entry = stack[i]")
        e("            while i > 0 and entry.pc == entry.reconv_pc:")
        e("                i -= 1")
        e("                entry = stack[i]")
        e("            if PROGRAM[entry.pc].is_mem:")
        e("                continue")
        e("        else:")
        e("            continue")
    else:  # rfv: nothing storage-binned parks, "demoted" never parks
        e("        if reason not in ACCT_PARK or reason in STORAGE_BINS:")
        e("            continue")
        if demotes:
            e("        if reason in DEMOTE_BINS and ELIGIBLE(warp):")
            e("            continue")
    e("        if to_park is None:")
    e("            to_park = [(warp, reason)]")
    e("        else:")
    e("            to_park.append((warp, reason))")
    e("    if to_park is not None:")
    e("        for warp, reason in to_park:")
    e("            shard._park(warp, reason)")
    e("    for warp in issued_warps:")
    e("        if not warp.ready:")
    e("            n = bins[warp.park_bin] - 1")
    e("            if n:")
    e("                bins[warp.park_bin] = n")
    e("            else:")
    e("                del bins[warp.park_bin]")
    e("    if issued_warps:")
    e("        bins[ISSUED] = len(issued_warps)")
    e("    COMMIT(bins)")
    e("    shard._idle_committed = False")
    return "\n".join(L) + "\n"


def _cycle_source(two_level: bool, has_stalls: bool,
                  issue_width: int, program_len: int,
                  storage_pump: bool) -> str:
    """A specialized ``Shard.cycle``: the interpreter loop with the JIT
    driver's prologue inlined per candidate (quick-fail parks use their
    statically-known bins), scheduler begin_cycle/quiescent resolved
    statically (GTO/LRR: no-ops; two-level: the dirty purge), and the
    storage pump elided for flavors whose ``has_work`` is constant False."""
    L: List[str] = ["def _cycle(shard):"]
    e = L.append
    e("    now = WHEEL.now")
    if storage_pump:
        e("    if HAS_WORK(now):")
        e("        STORAGE_CYCLE()")
    e("    heap = HEAP")
    quiescent = " and not SCHED._dirty" if two_level else ""
    e("    if not READY and not DYNAMIC"
      f" and (not heap or heap[0][0] > now){quiescent}:")
    if has_stalls:
        e("        if shard._idle_committed:")
        e("            STALLS.replay(1)")
        e("        else:")
        e("            STALLS.commit(dict(PARKED))")
        e("            shard._idle_committed = True")
    e("        return 0")
    if two_level:
        e("    SCHED._now = now")
        e("    if SCHED._dirty:")
        e("        SCHED._dirty = False")
        e("        SCHED._refill()")
    e("    if heap:")
    e("        wake_at = WAKE_AT")
    e("        while heap and heap[0][0] <= now:")
    e("            t, wid, warp = _heappop(heap)")
    e("            if wake_at.get(wid) == t:")
    e("                del wake_at[wid]")
    e("                REEVALUATE(warp)")
    e("    issued = 0")
    e("    issued_warps = ISSUED_W")
    e("    issued_warps.clear()")
    e("    if READY:")
    e("        scan = shard._scan = BEGIN_SCAN(now)")
    e("        next_c = scan.next_candidate")
    e(f"        budget = {issue_width}")
    e("        while budget > 0:")
    e("            warp = next_c()")
    e("            if warp is None:")
    e("                break")
    # Quick-fail prologue: each branch's bin is statically known, so park
    # directly (the same park _maybe_park's classify would produce; the
    # ready guard covers scan re-yields of already-parked warps).
    e("            if warp.exited:")
    e("                if warp.ready:")
    e("                    shard._park(warp, 'exited')")
    e("                continue")
    e("            if warp.at_barrier:")
    e("                if warp.ready:")
    e("                    shard._park(warp, 'barrier')")
    e("                continue")
    e("            if now < warp.stall_until:")
    e("                if warp.ready:")
    e("                    shard._park(warp, 'pipeline')")
    e("                continue")
    e("            stack = warp.stack")
    e("            top = stack[-1]")
    e("            while len(stack) > 1 and top.pc == top.reconv_pc:")
    e("                stack.pop()")
    e("                top = stack[-1]")
    e("            pc = top.pc")
    e(f"            if pc >= {program_len}:")
    e("                warp.exited = True")
    e("                ON_WARP_EXIT(warp)")
    e("                NOTIFY_DONE(warp)")
    e("                if warp.ready:")
    e("                    shard._park(warp, 'exited')")
    e("                continue")
    e("            code = _STEPS[pc](shard, warp, now, top)")
    e("            if code is OK:")
    e("                budget -= 1")
    e("                issued += 1")
    e("                issued_warps.append(warp)")
    e("                NOTIFY_ISSUE(warp, now)")
    e("                if budget > 0 and not (warp.exited or warp.at_barrier"
      " or now < warp.stall_until):")
    e("                    stack = warp.stack")
    e("                    top = stack[-1]")
    e("                    while len(stack) > 1 and top.pc == top.reconv_pc:")
    e("                        stack.pop()")
    e("                        top = stack[-1]")
    e("                    pc = top.pc")
    e(f"                    if pc >= {program_len}:")
    e("                        warp.exited = True")
    e("                        ON_WARP_EXIT(warp)")
    e("                        NOTIFY_DONE(warp)")
    e("                    elif _STEPS[pc](shard, warp, now, top) is OK:")
    e("                        budget -= 1")
    e("                        issued += 1")
    e("                if warp.exited or warp.at_barrier:")
    e("                    shard._park(warp, _classify(warp, now))")
    e("            elif code is PARK:")
    e("                shard._maybe_park(warp, now)")
    e("        shard._scan = None")
    if has_stalls:
        e("    shard._account_stalls(now, issued_warps)")
    e("    return issued")
    return "\n".join(L) + "\n"


def _program_source(shard: Shard, flavor: str) -> Tuple[str, int, int]:
    """Full generated module source + (compiled, generic) step counts."""
    sm = shard.sm
    compiled = sm.compiled
    program = sm.program
    rfh_assignment = (
        shard.storage.assignment if flavor == "rfh" else None
    )
    demotes = shard.scheduler.demotes
    inline_counts = type(sm.counters) is Counters
    n_regions = len(compiled.regions)
    region_banner = {
        region.pcs().start: f"# region {region.rid}: {region.block} "
        f"pcs [{region.start_pc}, {region.end_pc})"
        for region in compiled.regions
    }
    chunks: List[str] = []
    n_ok = n_generic = 0
    for pc, insn in enumerate(program):
        rid = compiled.region_id_of_pc(pc)
        hit_idx = rid if rid >= 0 else n_regions
        banner = region_banner.get(pc)
        if banner is not None:
            chunks.append(banner + "\n")
        try:
            chunks.append(_step_source(
                pc, insn, flavor,
                line_bytes=sm.config.line_bytes,
                branch_target=(
                    sm.block_start(insn.target)
                    if insn.info.is_branch and insn.target is not None
                    else None
                ),
                reconv=sm.reconv_pc(pc) if insn.info.is_branch else None,
                rid=rid,
                hit_idx=hit_idx,
                region_start=rid >= 0 and compiled.is_region_start(pc),
                rfh_assignment=rfh_assignment,
                demotes=demotes,
                inline_counts=inline_counts,
                storage=shard.storage,
            ))
            n_ok += 1
        except _Unsupported:
            chunks.append(_generic_source(pc))
            n_generic += 1
    chunks.append(_classify_source(flavor, demotes, len(program)))
    if _full_loop(shard):
        chunks.append(_reevaluate_source(flavor, demotes, len(program)))
        if shard.stalls is not None:
            chunks.append(_account_source(flavor, demotes))
        chunks.append(_cycle_source(
            two_level=type(shard.scheduler) is TwoLevelScheduler,
            has_stalls=shard.stalls is not None,
            issue_width=shard._issue_width,
            program_len=len(program),
            # Storages inheriting the base constant-False has_work never
            # pump; their per-cycle check is dead code.
            storage_pump=(
                type(shard.storage).has_work is not OperandStorage.has_work
            ),
        ))
    names = ", ".join(f"_step_{pc}" for pc in range(len(program)))
    chunks.append(f"_STEPS = ({names}{',' if len(program) == 1 else ''})\n")
    return "\n".join(chunks), n_ok, n_generic


def _full_loop(shard: Shard) -> bool:
    """Whether the whole cycle loop (not just the steps) may be generated:
    requires a stock scheduler so begin_cycle/quiescent semantics can be
    resolved statically."""
    return type(shard.scheduler) in (
        GTOScheduler, LRRScheduler, TwoLevelScheduler
    )


# ---------------------------------------------------------------------------
# arming
# ---------------------------------------------------------------------------

_EXACT_FLAVORS = {
    BaselineRF: "baseline",
    RFHStorage: "rfh",
    RFVStorage: "rfv",
    ReglessStorage: "regless",
}


def _compat_reason(gpu: "GPU", shard: Shard) -> Optional[str]:
    """Why this shard must stay on the interpreter (None = compatible)."""
    d = shard.__dict__
    if "issue" in d or "_writeback" in d or "_try_issue" in d:
        return "tracer"  # repro.sim.trace wraps these as instance attrs
    if shard._track_ws:
        return "working_set"
    storage = shard.storage
    flavor = _EXACT_FLAVORS.get(type(storage))
    if flavor is None:
        # Subclasses included: fault injection swaps onto throwaway
        # subclasses (FrozenAdmission, DroppedWakes) whose behavior the
        # specialized gates must not bake away.
        return "storage"
    if flavor == "regless":
        if type(storage.cm) is not CapacityManager:
            return "cm_patched"
        if storage.compiled is not gpu.compiled:
            return "compiled_mismatch"
    if flavor == "rfv" and type(storage).can_issue is not RFVStorage.can_issue:
        return "storage"  # pragma: no cover - defensive
    return None


def _build_globals(shard: Shard, flavor: str) -> Dict[str, object]:
    sm = shard.sm
    program = sm.program
    compiled = sm.compiled
    storage = shard.storage
    g: Dict[str, object] = {
        "__builtins__": {"len": len},
        "LaneValues": LaneValues,
        "ZERO": ZERO,
        "OK": _ISSUE_OK,
        "PARK": _FAIL_PARK,
        "KEEP": _FAIL_KEEP,
        "_WB": _Writeback,
        "_LC": _LoadContinuation,
        "ACTIVE": WarpState.ACTIVE,
        "PRELOADING": WarpState.PRELOADING,
        "_TRY_ISSUE": Shard._try_issue,
        # _classify bindings (per shard: residency sets / CM contexts are
        # per-storage instances).
        "PROGRAM": program,
        "SM_OBJ": sm,
        "WHEEL": sm.wheel,
        "AFTER": sm.wheel.after,
        "_WBC": _JITWriteback,
    }
    if flavor == "rfv":
        g["can_issue"] = storage.can_issue
        g["STALL_REASON"] = storage.stall_reason
    if flavor in ("rfv", "regless"):
        g["on_issue"] = storage.on_issue
    if flavor in ("baseline", "rfh"):
        g["RESIDENT"] = storage._resident_ctas
    if flavor == "rfv":
        g["RFV"] = storage
        g["NEED_VER"] = storage._need_ver
    if flavor == "regless":
        g["CM_CTX"] = storage.cm.ctx
        g["OSU_BLOCKED"] = storage.osu.preload_blocked_at_l1
        g["OSU_CW"] = storage.osu.complete_write
        g["OSU_ERASE"] = storage.osu.erase
        g["OSU_EVICT"] = storage.osu.mark_evictable
        g["CM_ON_WB"] = storage.cm.on_writeback
    if shard.scheduler.demotes:
        g["ELIGIBLE"] = shard.scheduler.eligible
    if _full_loop(shard):
        # The generated cycle()/reevaluate() reach shard collections and
        # peers through module globals; every one of these objects is
        # mutated in place and never rebound.
        g["__builtins__"]["dict"] = dict
        g["__builtins__"]["tuple"] = tuple
        g.update(
            _heappop=heapq.heappop,
            WHEEL=shard._wheel,
            HAS_WORK=storage.has_work,
            STORAGE_CYCLE=storage.cycle,
            HEAP=shard._wake_heap,
            READY=shard._ready,
            DYNAMIC=shard._dynamic,
            PARKED=shard._parked_bins,
            WAKE_AT=shard._wake_at,
            ISSUED_W=shard._issued_warps,
            STALLS=shard.stalls,
            SCHED=shard.scheduler,
            BEGIN_SCAN=shard.scheduler.begin_scan,
            NOTIFY_ISSUE=shard.scheduler.notify_issue,
            ON_WARP_EXIT=storage.on_warp_exit,
            NOTIFY_DONE=sm.notify_warp_done,
            DEMOTE_BINS=_DEMOTE_BINS,
            ACCT_PARK=_ACCT_PARK_BINS,
            STORAGE_BINS=_STORAGE_BINS,
            ISSUED=ISSUED,
        )
        if shard.stalls is not None:
            g["COMMIT"] = shard.stalls.commit
        if flavor == "regless":
            g["STALL_REASON_R"] = storage.stall_reason
    for rid, region in enumerate(compiled.regions):
        g[f"REG{rid}"] = region
    for pc, insn in enumerate(program):
        g[f"I{pc}"] = insn
        if insn.reg_dsts:
            g[f"RD{pc}"] = insn.reg_dsts[0]
        for k, s in enumerate(insn.srcs):
            if type(s) is Imm:
                g[f"C{pc}_{k}"] = LaneValues.uniform(s.value)
    return g


def _arm_shard(gpu: "GPU", shard: Shard) -> Dict[str, object]:
    reason = _compat_reason(gpu, shard)
    if reason is not None:
        return {"armed": 0, "reason": reason}
    flavor = _EXACT_FLAVORS[type(shard.storage)]
    t0 = time.perf_counter()
    source, n_ok, n_generic = _program_source(shard, flavor)
    code = _CODE_CACHE.get(source)
    cache_hit = code is not None
    if code is None:
        code = compile(source, f"<regionjit:{flavor}>", "exec")
        _CODE_CACHE[source] = code
    g = _build_globals(shard, flavor)
    exec(code, g)
    steps = g["_STEPS"]
    compile_s = time.perf_counter() - t0

    sm = shard.sm
    storage = shard.storage
    n_regions = len(sm.compiled.regions)
    # Per-shard hooks the generated code reaches through one attribute load.
    shard._jit_hits = [0] * (n_regions + 1)
    shard._jit_falls = [0]
    shard._jit_divlines = gpu.divergent_lines
    shard._jit_sm_id = sm.sm_id
    shard._jit_mem_request = sm.hierarchy.request
    shard._jit_pred_mask = gpu.oracle.pred_mask
    shard._jit_load_value = gpu.oracle.load_value
    shard._jit_take_mem_slot = sm.take_mem_slot
    if type(sm.counters) is Counters:
        # Steps bump the flat counter dict directly (defaultdict(float):
        # the += path is the same 0.0-seeded float add Counters.inc does).
        shard._jit_counts = sm.counters._counts
    if flavor in ("baseline", "rfh"):
        # The residency set is mutated in place (discard/add), never
        # rebound — caching the set object itself is safe.
        shard._jit_resident = storage._resident_ctas
    if flavor == "regless":
        shard._jit_cm_ctx = storage.cm.ctx
        shard._jit_metadata = storage.metadata_slots
        shard._jit_osu_blocked = storage.osu.preload_blocked_at_l1

    program_len = shard._program_len
    notify_done = sm.notify_warp_done
    on_warp_exit = storage.on_warp_exit

    def driver(warp, now, _steps=steps):
        # Interpreter prologue: quick checks, reconvergence, end-of-program
        # exit synthesis — then tail-call the compiled step for pc.
        if warp.exited or warp.at_barrier or now < warp.stall_until:
            return _FAIL_PARK
        stack = warp.stack
        top = stack[-1]
        while len(stack) > 1 and top.pc == top.reconv_pc:
            stack.pop()
            top = stack[-1]
        pc = top.pc
        if pc >= program_len:
            warp.exited = True
            on_warp_exit(warp)
            notify_done(warp)
            return _FAIL_PARK
        return _steps[pc](shard, warp, now, top)

    shard._try_issue = driver
    # The specialized classify serves every caller (_account_stalls,
    # reevaluate, _maybe_park) — same ladder, storage virtual calls inlined.
    shard._classify = g["_classify"]
    full_loop = "_cycle" in g
    if full_loop:
        shard.reevaluate = MethodType(g["_reevaluate"], shard)
        # Late-bound: _cycle reads REEVALUATE from its globals at call
        # time, so installing it after exec is safe.
        g["REEVALUATE"] = shard.reevaluate
        if "_account_stalls" in g:
            shard._account_stalls = MethodType(g["_account_stalls"], shard)
        shard.cycle = MethodType(g["_cycle"], shard)
    return {
        "armed": 1,
        "flavor": flavor,
        "compile_s": compile_s,
        "steps": n_ok,
        "generic_steps": n_generic,
        "regions": n_regions,
        "cache_hit": 1 if cache_hit else 0,
        "full_loop": 1 if full_loop else 0,
        "_shard": shard,
    }


def arm_gpu(gpu: "GPU") -> None:
    """Arm every compatible shard of ``gpu``; records a per-shard report
    readable via :func:`collect_jit`.  Idempotent per GPU."""
    if getattr(gpu, "_jit_report", None) is not None:
        return
    report: Dict[Tuple[int, int], Dict[str, object]] = {}
    gpu._jit_report = report
    if not jit_enabled():
        for sm in gpu.sms:
            for shard in sm.shards:
                report[(sm.sm_id, shard.shard_id)] = {
                    "armed": 0, "reason": "env_off",
                }
        return
    for sm in gpu.sms:
        for shard in sm.shards:
            report[(sm.sm_id, shard.shard_id)] = _arm_shard(gpu, shard)


def collect_jit(gpu: "GPU") -> Dict[str, object]:
    """Flatten the arm report + live hit counters into ``sm{i}.shard{j}.jit.*``
    metric paths (kept outside SimStats: wall-clock observability must not
    perturb the bit-identity contract on simulated results)."""
    out: Dict[str, object] = {}
    report = getattr(gpu, "_jit_report", None) or {}
    for (smid, shid), info in sorted(report.items()):
        prefix = f"sm{smid}.shard{shid}.jit."
        out[prefix + "armed"] = info.get("armed", 0)
        if not info.get("armed"):
            out[prefix + "reason"] = info.get("reason", "unknown")
            continue
        out[prefix + "compile_s"] = round(info["compile_s"], 6)
        out[prefix + "steps"] = info["steps"]
        out[prefix + "generic_steps"] = info["generic_steps"]
        out[prefix + "regions"] = info["regions"]
        out[prefix + "cache_hit"] = info["cache_hit"]
        shard = info["_shard"]
        out[prefix + "issued"] = sum(shard._jit_hits)
        out[prefix + "fallback_issued"] = shard._jit_falls[0]
    return out
