from repro.isa import Imm, Instruction, Opcode, Pred, Reg
from repro.sim import LaneValues, Warp
from repro.sim.executor import compute_result, read_operand


def warp():
    w = Warp(wid=0, shard_id=0, cta_id=0, entry_pc=0, sentinel_pc=10)
    w.write_reg(Reg(0), LaneValues.affine(0, 1))  # thread id
    w.write_reg(Reg(1), LaneValues.uniform(100))
    w.write_reg(Reg(2), LaneValues.random(9))
    return w


def insn(op, dst, *srcs):
    return Instruction(op, (Reg(dst),), tuple(srcs))


class TestReadOperand:
    def test_register(self):
        assert read_operand(warp(), Reg(1)).base == 100

    def test_immediate(self):
        v = read_operand(warp(), Imm(7))
        assert v.is_uniform and v.base == 7

    def test_predicate_is_opaque(self):
        assert read_operand(warp(), Pred(0)).is_random


class TestSemantics:
    def test_mov_passthrough(self):
        w = warp()
        r = compute_result(w, insn(Opcode.MOV, 3, Reg(1)))
        assert r == w.read_reg(Reg(1))

    def test_iadd_affine(self):
        r = compute_result(warp(), insn(Opcode.IADD, 3, Reg(0), Imm(5)))
        assert r.is_affine and r.base == 5 and r.stride == 1

    def test_imad(self):
        # tid * 4 + 100: affine stride 4.
        r = compute_result(warp(), insn(Opcode.IMAD, 3, Reg(0), Imm(4), Reg(1)))
        assert r.is_affine and r.stride == 4 and r.base == 100

    def test_shl(self):
        r = compute_result(warp(), insn(Opcode.SHL, 3, Reg(0), Imm(3)))
        assert r.stride == 8

    def test_float_ops_preserve_structure(self):
        r = compute_result(warp(), insn(Opcode.FADD, 3, Reg(0), Reg(1)))
        assert r.is_affine

    def test_xor_is_opaque(self):
        r = compute_result(warp(), insn(Opcode.XOR, 3, Reg(0), Reg(1)))
        assert r.is_random

    def test_sfu_is_opaque_but_uniform_preserving(self):
        r = compute_result(warp(), insn(Opcode.RSQ, 3, Reg(1)))
        assert r.is_uniform  # uniform in, uniform out
        r2 = compute_result(warp(), insn(Opcode.RSQ, 3, Reg(0)))
        assert r2.is_random

    def test_random_input_poisons(self):
        r = compute_result(warp(), insn(Opcode.IADD, 3, Reg(2), Imm(1)))
        assert r.is_random

    def test_deterministic(self):
        a = compute_result(warp(), insn(Opcode.FDIV, 3, Reg(0), Reg(1)))
        b = compute_result(warp(), insn(Opcode.FDIV, 3, Reg(0), Reg(1)))
        assert a == b


class TestPlanCache:
    """Each instruction builds its plan once, into ``insn.exec_plan``."""

    def test_distinct_instructions_get_distinct_plans(self):
        a = insn(Opcode.IADD, 3, Reg(0), Imm(5))
        b = insn(Opcode.IADD, 3, Reg(0), Imm(6))
        compute_result(warp(), a)
        compute_result(warp(), b)
        assert a.exec_plan is not b.exec_plan

    def test_unpickled_instruction_rejoins_cache(self):
        import pickle
        a = insn(Opcode.IMAD, 3, Reg(0), Imm(4), Reg(1))
        compute_result(warp(), a)
        b = pickle.loads(pickle.dumps(a))
        assert b.exec_plan is None  # closures never travel
        r = compute_result(warp(), b)
        assert r == compute_result(warp(), a)
