"""Tests for repro.isa.program, repro.isa.cfg and repro.isa.validate."""

import pytest
from hypothesis import given

from repro.core.dictionary import intern_rows
from repro.isa import (
    BasicBlock,
    Function,
    Instruction,
    Op,
    Program,
    ValidationError,
    basic_blocks,
    block_id_map,
    concatenate,
    leaders,
    validate_program,
    validation_issues,
)

from .strategies import programs


def _ret():
    return Instruction(op=Op.RET)


def _addi(rd=1, rs1=1, imm=1):
    return Instruction(op=Op.ADDI, rd=rd, rs1=rs1, imm=imm)


def _make_program(*fns, entry=0):
    return Program(name="t", functions=list(fns), entry=entry)


class TestFunction:
    def test_len_and_iter(self):
        fn = Function(name="f", insns=[_addi(), _ret()])
        assert len(fn) == 2
        assert list(fn) == fn.insns

    def test_target_sizes_for_branches(self):
        # Branch at index 0 to index 1: displacement 0 -> 1 byte.
        fn = Function(name="f", insns=[
            Instruction(op=Op.JMP, target=1),
            _ret(),
        ])
        assert fn.target_sizes() == [1, None]

    def test_target_sizes_large_displacement(self):
        insns = [Instruction(op=Op.BEQZ, rs1=1, target=200)]
        insns += [_addi() for _ in range(200)]
        insns.append(_ret())
        fn = Function(name="f", insns=insns)
        assert fn.target_sizes()[0] == 2

    def test_call_target_size_by_function_index(self):
        fn = Function(name="f", insns=[
            Instruction(op=Op.CALL, target=5),
            Instruction(op=Op.CALL, target=300),
            _ret(),
        ])
        assert fn.target_sizes()[:2] == [1, 2]

    def test_validate_targets_rejects_out_of_range(self):
        fn = Function(name="f", insns=[Instruction(op=Op.JMP, target=9)])
        with pytest.raises(ValueError):
            fn.validate_targets()

    def test_match_keys_parallel_to_insns(self):
        # Pass 0 of the dictionary gives one base id per instruction.
        fn = Function(name="f", insns=[_addi(), Instruction(op=Op.JMP, target=0), _ret()])
        rows, (ids,), _ = intern_rows(_make_program(fn))
        assert len(ids) == 3
        assert len(rows) == 3


class TestProgram:
    def test_instruction_count(self):
        p = _make_program(Function(name="a", insns=[_ret()]),
                          Function(name="b", insns=[_addi(), _ret()]))
        assert p.instruction_count == 3

    def test_function_lookup(self):
        p = _make_program(Function(name="a", insns=[_ret()]),
                          Function(name="b", insns=[_ret()]))
        assert p.function_named("b").name == "b"
        assert p.function_index("b") == 1
        with pytest.raises(KeyError):
            p.function_named("zzz")

    def test_entry_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            _make_program(Function(name="a", insns=[_ret()]), entry=5)

    def test_iter_instructions_coordinates(self):
        p = _make_program(Function(name="a", insns=[_addi(), _ret()]))
        coords = [(f, i) for f, i, _ in p.iter_instructions()]
        assert coords == [(0, 0), (0, 1)]

    def test_opcode_histogram(self):
        p = _make_program(Function(name="a", insns=[_addi(), _addi(), _ret()]))
        hist = p.opcode_histogram()
        assert hist[Op.ADDI] == 2
        assert hist[Op.RET] == 1

    def test_concatenate_rebases_calls(self):
        p1 = _make_program(Function(name="a", insns=[Instruction(op=Op.CALL, target=0), _ret()]))
        p2 = _make_program(Function(name="b", insns=[Instruction(op=Op.CALL, target=0), _ret()]))
        merged = concatenate([p1, p2])
        assert merged.functions[1].insns[0].target == 1
        assert merged.functions[0].insns[0].target == 0


class TestCfg:
    def test_straight_line_is_one_block(self):
        fn = Function(name="f", insns=[_addi(), _addi(), _ret()])
        assert basic_blocks(fn) == [BasicBlock(0, 3)]

    def test_branch_splits_blocks(self):
        # 0: beqz -> 2 ; 1: addi ; 2: ret
        fn = Function(name="f", insns=[
            Instruction(op=Op.BEQZ, rs1=1, target=2),
            _addi(),
            _ret(),
        ])
        assert basic_blocks(fn) == [BasicBlock(0, 1), BasicBlock(1, 2), BasicBlock(2, 3)]

    def test_backward_branch_target_is_leader(self):
        # 0: addi ; 1: addi ; 2: bnez -> 1
        fn = Function(name="f", insns=[
            _addi(),
            _addi(),
            Instruction(op=Op.BNEZ, rs1=1, target=1),
            _ret(),
        ])
        assert leaders(fn) == [0, 1, 3]

    def test_call_terminates_block(self):
        fn = Function(name="f", insns=[
            Instruction(op=Op.CALL, target=0),
            _addi(),
            _ret(),
        ])
        assert leaders(fn) == [0, 1]

    def test_empty_function_has_no_blocks(self):
        assert basic_blocks(Function(name="f", insns=[])) == []

    def test_block_id_map_covers_every_instruction(self):
        fn = Function(name="f", insns=[
            Instruction(op=Op.BEQZ, rs1=1, target=2),
            _addi(),
            _ret(),
        ])
        assert block_id_map(fn) == [0, 1, 2]

    def test_blocks_partition_function(self):
        fn = Function(name="f", insns=[
            _addi(),
            Instruction(op=Op.BNEZ, rs1=1, target=0),
            _addi(),
            Instruction(op=Op.JMP, target=4),
            _ret(),
        ])
        blocks = basic_blocks(fn)
        covered = [i for b in blocks for i in range(b.start, b.end)]
        assert covered == list(range(len(fn.insns)))


class TestValidate:
    def test_valid_program_passes(self):
        validate_program(_make_program(Function(name="a", insns=[_addi(), _ret()])))

    def test_empty_program_rejected(self):
        with pytest.raises(ValidationError):
            validate_program(Program(name="t", functions=[]))

    def test_empty_function_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            validate_program(_make_program(Function(name="a", insns=[])))

    def test_fallthrough_end_rejected(self):
        with pytest.raises(ValidationError, match="falls off"):
            validate_program(_make_program(Function(name="a", insns=[_addi()])))

    def test_branch_out_of_range_rejected(self):
        fn = Function(name="a", insns=[Instruction(op=Op.BEQZ, rs1=1, target=10), _ret()])
        with pytest.raises(ValidationError, match="branch target"):
            validate_program(_make_program(fn))

    def test_call_out_of_range_rejected(self):
        fn = Function(name="a", insns=[Instruction(op=Op.CALL, target=9), _ret()])
        with pytest.raises(ValidationError, match="call target"):
            validate_program(_make_program(fn))

    def test_validation_issues_collects_multiple(self):
        fn1 = Function(name="a", insns=[_addi()])
        fn2 = Function(name="b", insns=[Instruction(op=Op.CALL, target=9), _ret()])
        issues = validation_issues(_make_program(fn1, fn2))
        assert len(issues) == 2


@given(programs())
def test_property_generated_programs_validate(program):
    validate_program(program)


@given(programs())
def test_property_blocks_partition_and_terminators_end_blocks(program):
    for fn in program.functions:
        blocks = basic_blocks(fn)
        covered = [i for b in blocks for i in range(b.start, b.end)]
        assert covered == list(range(len(fn.insns)))
        for block in blocks:
            # No terminator may appear before the last slot of its block.
            for index in range(block.start, block.end - 1):
                assert not fn.insns[index].is_terminator
