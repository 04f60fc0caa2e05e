"""Tests for repro.isa.opcodes and repro.isa.instruction."""

import pytest
from hypothesis import given

from repro.core.dictionary import intern_rows
from repro.isa import (
    Function,
    Instruction,
    NUM_REGISTERS,
    OP_BY_CODE,
    OP_BY_MNEMONIC,
    OP_TABLE,
    Op,
    Program,
    immediate_size_class,
    info,
    target_size_class,
)

from .strategies import non_control_instruction


class TestOpcodeTable:
    def test_all_opcodes_have_metadata(self):
        assert set(OP_TABLE) == set(Op)

    def test_codes_are_dense_and_unique(self):
        codes = sorted(info(op).code for op in Op)
        assert codes == list(range(len(Op)))

    def test_mnemonic_lookup(self):
        for op in Op:
            assert OP_BY_MNEMONIC[op.value].op is op

    def test_code_lookup(self):
        for op in Op:
            assert OP_BY_CODE[info(op).code].op is op

    def test_branches_are_terminators_with_fallthrough(self):
        meta = info(Op.BNE)
        assert meta.is_branch
        assert meta.is_terminator
        assert meta.falls_through

    def test_jump_does_not_fall_through(self):
        assert not info(Op.JMP).falls_through
        assert not info(Op.RET).falls_through
        assert not info(Op.HALT).falls_through

    def test_call_is_terminator_but_falls_through(self):
        meta = info(Op.CALL)
        assert meta.is_terminator
        assert meta.falls_through
        assert meta.is_call
        assert not meta.is_branch

    def test_store_signature(self):
        meta = info(Op.SW)
        assert not meta.uses_rd
        assert meta.uses_rs1
        assert meta.uses_rs2
        assert meta.uses_imm

    def test_beqz_uses_only_rs1(self):
        meta = info(Op.BEQZ)
        assert meta.uses_rs1
        assert not meta.uses_rs2
        assert meta.uses_target

    def test_trap_uses_imm(self):
        assert info(Op.TRAP).uses_imm


class TestInstructionConstruction:
    def test_valid_add(self):
        insn = Instruction(op=Op.ADD, rd=1, rs1=2, rs2=3)
        assert insn.rd == 1

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing required field rs2"):
            Instruction(op=Op.ADD, rd=1, rs1=2)

    def test_extra_field_rejected(self):
        with pytest.raises(ValueError, match="unexpected field imm"):
            Instruction(op=Op.ADD, rd=1, rs1=2, rs2=3, imm=5)

    def test_register_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Instruction(op=Op.MOV, rd=NUM_REGISTERS, rs1=0)

    @pytest.mark.parametrize("imm", [1 << 40, 1 << 31, -(1 << 31) - 1])
    def test_immediate_outside_int32_rejected(self, imm):
        with pytest.raises(ValueError, match="outside int32"):
            Instruction(op=Op.LI, rd=1, imm=imm)

    def test_int32_immediate_bounds_accepted(self):
        for imm in (-(1 << 31), (1 << 31) - 1):
            assert Instruction(op=Op.LI, rd=1, imm=imm).imm == imm

    def test_branch_requires_target(self):
        with pytest.raises(ValueError, match="missing required field target"):
            Instruction(op=Op.BEQ, rs1=1, rs2=2)

    def test_replace_target(self):
        insn = Instruction(op=Op.JMP, target=3)
        assert insn.replace_target(7).target == 7

    def test_replace_target_on_alu_rejected(self):
        with pytest.raises(ValueError):
            Instruction(op=Op.NOP).replace_target(1)

    def test_instructions_are_hashable_values(self):
        a = Instruction(op=Op.ADDI, rd=1, rs1=1, imm=4)
        b = Instruction(op=Op.ADDI, rd=1, rs1=1, imm=4)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestSizeClasses:
    @pytest.mark.parametrize("disp,size", [
        (0, 1), (14, 1), (-14, 1), (15, 2), (-15, 2),
        (3640, 2), (-3640, 2), (3641, 4), (-40000, 4),
    ])
    def test_target_size_class(self, disp, size):
        assert target_size_class(disp) == size

    def test_size_classes_conservative_under_native_expansion(self):
        from repro.isa.instruction import NATIVE_EXPANSION_BOUND

        # A class-1 displacement expanded at the bound must fit int8;
        # class-2 must fit int16.
        assert 14 * NATIVE_EXPANSION_BOUND <= 127
        assert 3640 * NATIVE_EXPANSION_BOUND <= 32767

    @pytest.mark.parametrize("value,size", [
        (0, 1), (-128, 1), (127, 1), (255, 2), (30000, 2), (70000, 4),
    ])
    def test_immediate_size_class(self, value, size):
        assert immediate_size_class(value) == size


def _base_ids(*insns, absolute_targets=False):
    """Pass-0 base ids of ``insns``, laid out as one function."""
    program = Program(name="t", functions=[Function(name="f",
                                                    insns=list(insns))])
    _, (ids,), _ = intern_rows(program, absolute_targets)
    return ids


class TestMatchKey:
    """The paper's matching rule (section 2.1) as pass 0 of the
    dictionary applies it: instructions match when their rows, and so
    their base ids, are equal."""

    def test_non_branch_key_is_exact(self):
        a = Instruction(op=Op.ADDI, rd=1, rs1=2, imm=3)
        b = Instruction(op=Op.ADDI, rd=1, rs1=2, imm=3)
        c = Instruction(op=Op.ADDI, rd=1, rs1=2, imm=4)
        first, second, third = _base_ids(a, b, c)
        assert first == second != third

    def test_branch_key_ignores_target_value(self):
        # Same size, different value => match.  Both displacements fit
        # the 1-byte class.
        near1 = Instruction(op=Op.BNE, rs1=1, rs2=2, target=5)
        near2 = Instruction(op=Op.BNE, rs1=1, rs2=2, target=9)
        first, second = _base_ids(near1, near2)
        assert first == second
        # ...unless targets live in the entry (absolute-targets ablation).
        first, second = _base_ids(near1, near2, absolute_targets=True)
        assert first != second

    def test_branch_key_distinguishes_target_size(self):
        near = Instruction(op=Op.BNE, rs1=1, rs2=2, target=5)
        far = Instruction(op=Op.BNE, rs1=1, rs2=2, target=90)
        first, second = _base_ids(near, far)
        assert first != second

    def test_branch_key_distinguishes_registers(self):
        a = Instruction(op=Op.BNE, rs1=1, rs2=2, target=5)
        b = Instruction(op=Op.BNE, rs1=1, rs2=3, target=5)
        first, second = _base_ids(a, b)
        assert first != second

    def test_call_key_uses_size(self):
        a = Instruction(op=Op.CALL, target=3)
        b = Instruction(op=Op.CALL, target=200)
        c = Instruction(op=Op.CALL, target=300)
        first, second, third = _base_ids(a, b, c)
        assert first == second != third


class TestRender:
    def test_load_renders_memory_operand(self):
        insn = Instruction(op=Op.LW, rd=1, rs1=29, imm=8)
        assert insn.render() == "lw r1, 8(r29)"

    def test_store_renders_value_first(self):
        insn = Instruction(op=Op.SW, rs1=29, rs2=3, imm=-4)
        assert insn.render() == "sw r3, -4(r29)"

    def test_branch_renders_target(self):
        insn = Instruction(op=Op.BEQ, rs1=1, rs2=2, target=9)
        assert insn.render() == "beq r1, r2, @9"

    def test_nop(self):
        assert Instruction(op=Op.NOP).render() == "nop"


@given(non_control_instruction())
def test_property_generated_instructions_are_valid(insn):
    # Construction already validates; pass 0 must take it as it is.
    (row,), _, _ = intern_rows(Program(name="t", functions=[
        Function(name="f", insns=[insn])]))
    assert row[0] == info(insn.op).code
