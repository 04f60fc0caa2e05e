"""Tests for the copy phase, instruction tables and per-function translation."""

import pytest

from repro.core import (
    CopyPhaseError,
    TableEntry,
    compress,
    open_container,
    read_patched_displacement,
)
from repro.core.copy_phase import CallRelocation, copy_translate_planes
from repro.isa import assemble
from repro.jit import Translator, build_tables
from repro.kernels import KIND_BRANCH, KIND_CALL, KIND_PLAIN, ItemPlanes
from repro.vm import lower_function

EXAMPLE = """
func main
    li r2, 9
    call helper
loop:
    addi r2, r2, -1
    bnez r2, loop
    beqz r2, fwd
    nop
fwd:
    ret
end
func helper
    li r1, 42
    ret
end
"""


def _reference_lowering(function):
    """Native bytes and call relocations of ``function`` lowered one
    instruction at a time (``lower_function``), branch holes patched
    with the same displacement rule as the copy phase: the oracle the
    block-copy translator must agree with."""
    lowered = lower_function(function, optimize=False)
    code = bytearray()
    offsets = []
    relocations = []
    holes = []
    for insn, chunk in zip(function.insns, lowered.chunks):
        start = len(code)
        offsets.append(start)
        code += chunk.data
        if chunk.hole_size == 0:
            continue
        hole_at = start + chunk.hole_offset
        if chunk.is_call:
            relocations.append(CallRelocation(
                hole_offset=hole_at, hole_size=chunk.hole_size,
                callee=insn.target))
        else:
            holes.append((hole_at, chunk.hole_size, insn.target))
    offsets.append(len(code))  # a branch may target the end
    for hole_at, size, target in holes:
        displacement = offsets[target] - (hole_at + size)
        code[hole_at:hole_at + size] = (
            displacement & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    return bytes(code), relocations


def _translator(text=EXAMPLE):
    program = assemble(text)
    reader = open_container(compress(program).data)
    return program, Translator(reader)


def _planes(*items):
    """Planes of one-instruction items given as ``(index, kind, value)``."""
    count = len(items)
    return ItemPlanes(indices=[index for index, _, _ in items],
                      kinds=[kind for _, kind, _ in items],
                      values=[value for _, _, value in items],
                      lengths=[1] * count, starts=list(range(count)))


class TestCopyPhaseUnit:
    def _table(self):
        return (
            TableEntry(data=b"\xAA\xBB"),
            TableEntry(data=b"\xCC\x00", hole_offset=1, hole_size=1),
            TableEntry(data=b"\xE8\x00\x00\x00\x00", hole_offset=1,
                       hole_size=4, is_call=True),
        )

    def test_plain_items_concatenate(self):
        items = _planes((0, KIND_PLAIN, 0), (0, KIND_PLAIN, 0))
        out = copy_translate_planes(items, self._table())
        assert bytes(out.code) == b"\xAA\xBB\xAA\xBB"
        assert out.item_offsets == [0, 2]

    def test_backward_branch_patched_immediately(self):
        items = _planes((0, KIND_PLAIN, 0), (1, KIND_BRANCH, -2))
        out = copy_translate_planes(items, self._table())
        # hole at offset 3; branch targets item 0 at offset 0; native
        # displacement = 0 - (3+1) = -4
        assert read_patched_displacement(out.code, 3, 1) == -4

    def test_forward_branch_patched_in_step3(self):
        items = _planes((1, KIND_BRANCH, 1), (0, KIND_PLAIN, 0),
                        (0, KIND_PLAIN, 0))
        out = copy_translate_planes(items, self._table())
        # hole at 1..2, target = item 2 at offset 4: disp = 4 - 2 = 2
        assert read_patched_displacement(out.code, 1, 1) == 2

    def test_call_generates_relocation(self):
        items = _planes((2, KIND_CALL, 5))
        out = copy_translate_planes(items, self._table())
        assert len(out.call_relocations) == 1
        reloc = out.call_relocations[0]
        assert reloc.callee == 5
        assert reloc.hole_offset == 1
        assert reloc.hole_size == 4

    def test_unknown_index_rejected(self):
        with pytest.raises(CopyPhaseError, match="no instruction-table entry"):
            copy_translate_planes(_planes((9, KIND_PLAIN, 0)), self._table())

    def test_branch_into_nowhere_rejected(self):
        items = _planes((1, KIND_BRANCH, 5))
        with pytest.raises(CopyPhaseError, match="out of range"):
            copy_translate_planes(items, self._table())

    def test_target_on_holeless_entry_rejected(self):
        items = _planes((0, KIND_BRANCH, 0))
        with pytest.raises(CopyPhaseError, match="no branch hole"):
            copy_translate_planes(items, self._table())


class TestInstructionTables:
    def test_tables_cover_every_index(self):
        program = assemble(EXAMPLE)
        reader = open_container(compress(program).data)
        tables = build_tables(reader)
        for layout, table in zip(reader.layouts, tables.tables):
            assert len(table) == len(layout.paths)

    def test_sequence_entries_concatenate_bases(self):
        program = assemble(EXAMPLE)
        reader = open_container(compress(program).data)
        tables = build_tables(reader)
        layout = reader.layouts[0]
        table = tables.tables[0]
        # Each multi-instruction entry must be exactly as long as the sum
        # of its constituent base chunks.
        base_size = {}
        for index, path in enumerate(layout.paths):
            if len(path) == 1:
                base_size[path[0]] = table[index].size
        for index, path in enumerate(layout.paths):
            if len(path) > 1 and all(p in base_size for p in path):
                assert table[index].size == sum(base_size[p] for p in path)

    def test_total_bytes_positive(self):
        program = assemble(EXAMPLE)
        reader = open_container(compress(program).data)
        assert build_tables(reader).total_bytes > 0


class TestTranslator:
    def test_translated_size_matches_unoptimized_lowering(self):
        # The JIT path must produce exactly the per-instruction lowering
        # of the original function (same bytes modulo target patching).
        program, translator = _translator()
        for findex, fn in enumerate(program.functions):
            jit_size = translator.translate_function(findex).size
            assert jit_size == lower_function(fn, optimize=False).size

    def test_translate_program_covers_all_functions(self):
        program, translator = _translator()
        results = translator.translate_program()
        assert len(results) == len(program.functions)

    def test_branch_holes_patched_consistently(self):
        # Translate and verify the backward loop branch points backwards.
        program, translator = _translator()
        result = translator.translate_function(0)
        fn = program.functions[0]
        lowered = lower_function(fn, optimize=False)
        offsets = lowered.byte_offsets()
        # Find the bnez (index 3 in main: li, call, addi, bnez, ...)
        bnez_index = next(i for i, insn in enumerate(fn.insns)
                          if insn.op.value == "bnez")
        chunk = lowered.chunks[bnez_index]
        hole_at = offsets[bnez_index] + chunk.hole_offset
        disp = read_patched_displacement(result.translated.code, hole_at,
                                         chunk.hole_size)
        target_offset = offsets[fn.insns[bnez_index].target]
        assert disp == target_offset - (hole_at + chunk.hole_size)

    def test_call_relocations_point_at_callees(self):
        program, translator = _translator()
        result = translator.translate_function(0)
        callees = [r.callee for r in result.translated.call_relocations]
        assert callees == [1]

    def test_native_function_sizes(self):
        program, translator = _translator()
        sizes = translator.native_function_sizes()
        assert len(sizes) == 2
        assert all(s > 0 for s in sizes)


class TestReferenceLowering:
    def test_block_copy_matches_reference_lowering(self):
        """Same native bytes and call relocations out of the block-copy
        translator as out of the per-instruction reference lowering."""
        from repro.workloads import benchmark_program

        reader = open_container(
            compress(benchmark_program("compress", scale=0.1)).data)
        translator = Translator(reader)
        for findex in range(reader.function_count):
            result = translator.translate_function(findex)
            code, relocations = _reference_lowering(reader.function(findex))
            assert bytes(result.translated.code) == code, findex
            assert result.translated.call_relocations == relocations, findex
