"""Edge-case tests across modules: limits, rare paths, boundary values."""

import pytest

from repro.core import compress, decompress
from repro.core.items import ItemStreamError, decode_item_planes, encode_items
from repro.isa import Function, Instruction, Op, Program, assemble
from repro.isa.encoding import decode_program, encode_program
from repro.jit import PERMANENT_SIZE_THRESHOLD, TranslationBuffer
from repro.kernels import KIND_CALL
from repro.vm import run_program

from .strategies import item_layout


class TestISAEdges:
    def test_many_functions_call_targets(self):
        # Call targets above 255 need 2-byte encodings everywhere.
        functions = [Function(name=f"f{i}",
                              insns=[Instruction(op=Op.RET)])
                     for i in range(300)]
        functions[0] = Function(name="f0", insns=[
            Instruction(op=Op.CALL, target=299),
            Instruction(op=Op.RET),
        ])
        program = Program(name="many", functions=functions, entry=0)
        assert decode_program(encode_program(program)).functions[0].insns \
            == program.functions[0].insns
        restored = decompress(compress(program).data)
        assert restored.functions[0].insns == program.functions[0].insns

    def test_extreme_immediates_roundtrip(self):
        program = Program(name="imm", functions=[Function(name="f", insns=[
            Instruction(op=Op.LI, rd=1, imm=2**31 - 1),
            Instruction(op=Op.LI, rd=2, imm=-(2**31)),
            Instruction(op=Op.ADDI, rd=1, rs1=1, imm=-1),
            Instruction(op=Op.RET),
        ])], entry=0)
        restored = decompress(compress(program).data)
        assert restored.functions[0].insns == program.functions[0].insns

    def test_single_instruction_function(self):
        program = assemble("func main\n    ret\nend\n")
        restored = decompress(compress(program).data)
        assert restored.functions[0].insns == program.functions[0].insns

    def test_long_straight_line_function(self):
        lines = ["func main"] + [f"    li r1, {i}" for i in range(5000)]
        lines += ["    ret", "end"]
        program = assemble("\n".join(lines))
        restored = decompress(compress(program).data)
        assert restored.functions[0].insns == program.functions[0].insns

    def test_far_branch_gets_wide_target(self):
        lines = ["func main", "    beqz r1, far"]
        lines += ["    nop"] * 4000
        lines += ["far:", "    ret", "end"]
        program = assemble("\n".join(lines))
        sizes = program.functions[0].target_sizes()
        assert sizes[0] == 4
        restored = decompress(compress(program).data)
        assert restored.functions[0].insns == program.functions[0].insns


class TestInterpreterEdges:
    def test_jr_computed_jump(self):
        result = run_program(assemble("""
func main
    li r3, 3
    jr r3
    nop
    li r1, 77
    trap 1
    ret
end
"""))
        assert result.output == [77]

    def test_deep_call_chain(self):
        functions = []
        depth = 200
        for index in range(depth):
            if index == depth - 1:
                insns = [Instruction(op=Op.LI, rd=1, imm=42),
                         Instruction(op=Op.RET)]
            else:
                insns = [Instruction(op=Op.CALL, target=index + 1),
                         Instruction(op=Op.RET)]
            functions.append(Function(name=f"f{index}", insns=insns))
        functions[0].insns.insert(1, Instruction(op=Op.TRAP, imm=1))
        program = Program(name="deep", functions=functions, entry=0)
        assert run_program(program, fuel=10_000).output == [42]

    def test_memory_boundary_access(self):
        # The last addressable word sits at memory_size - 4.
        result = run_program(assemble("""
func main
    li r2, 65532
    li r1, 7
    sw r1, 0(r2)
    lw r1, 0(r2)
    trap 1
    ret
end
"""))
        assert result.output == [7]


class TestItemEdges:
    def test_two_byte_call_target(self):
        layout = item_layout([(1, KIND_CALL, 2)], {5: 0})
        blob = encode_items([5], [40000], layout)
        planes = decode_item_planes(blob, layout)
        assert planes.kinds == [KIND_CALL]
        assert planes.values == [40000]

    def test_call_target_too_large_rejected(self):
        layout = item_layout([(1, KIND_CALL, 1)], {5: 0})
        with pytest.raises(ItemStreamError, match="does not fit"):
            encode_items([5], [300], layout)


class TestBufferEdges:
    def test_permanent_demotion_when_starved(self):
        buf = TranslationBuffer(capacity=1000, permanent_fraction_limit=1.0)
        # Fill the permanent area with tiny functions...
        for findex in range(4):
            buf.call(findex, 250)
        assert buf.permanent_bytes == 1000
        # ...then force a large round-robin placement: the oldest
        # permanent resident must be demoted, not crash.
        buf.call(99, 600)
        assert buf.resident(99)

    def test_exact_threshold_function_not_permanent(self):
        buf = TranslationBuffer(capacity=100_000)
        buf.call(0, PERMANENT_SIZE_THRESHOLD)
        assert 0 in buf.round_robin
