"""Tests for basic-block-granularity translation."""

import pytest

from repro.core import CopyPhaseError, compress, open_container
from repro.core.copy_phase import copy_translate_planes, copy_translate_range
from repro.isa import assemble
from repro.jit.block_translator import BlockTranslator
from repro.kernels import KIND_BRANCH

SOURCE = """
func main
    li r2, 9
loop:
    addi r2, r2, -1
    bnez r2, loop
    beqz r2, out
    nop
out:
    call helper
    trap 1
    ret
end
func helper
    li r1, 3
    ret
end
"""


@pytest.fixture()
def translator():
    reader = open_container(compress(assemble(SOURCE)).data)
    return BlockTranslator(reader)


class TestBlockLeaders:
    def test_item_zero_is_leader(self, translator):
        assert translator.block_leaders(0)[0] == 0

    def test_branch_targets_are_leaders(self, translator):
        planes = translator.items_of(0)
        leaders = set(translator.block_leaders(0))
        for item_index, (kind, value) in enumerate(zip(planes.kinds,
                                                       planes.values)):
            if kind == KIND_BRANCH:
                assert item_index + 1 + value in leaders

    def test_blocks_partition_items(self, translator):
        leaders = translator.block_leaders(0)
        count = translator.items_of(0).count
        covered = []
        for position, leader in enumerate(leaders):
            end = leaders[position + 1] if position + 1 < len(leaders) else count
            covered.extend(range(leader, end))
        assert covered == list(range(count))


class TestRangeTranslation:
    def test_whole_function_equals_monolithic(self, translator):
        # Translating every block and concatenating must produce the same
        # bytes as whole-function translation (external holes aside: the
        # monolithic path patches them, the fragments report them).
        planes = translator.items_of(0)
        table = translator.tables.for_function(translator.reader, 0)
        whole = copy_translate_planes(planes, table)
        fragments = translator.translate_whole_function(0)
        stitched = bytearray()
        for fragment in fragments:
            stitched += fragment.code
        assert len(stitched) == whole.size
        # Bytes identical except inside external-branch holes.
        hole_positions = set()
        offset = 0
        for fragment in fragments:
            for ext in fragment.external_branches:
                for position in range(ext.hole_offset, ext.hole_offset + ext.hole_size):
                    hole_positions.add(offset + position)
            offset += fragment.size
        for position, (a, b) in enumerate(zip(stitched, whole.code)):
            if position not in hole_positions:
                assert a == b, f"byte {position} differs outside any hole"

    def test_external_branches_resolvable(self, translator):
        # Every external branch must target a block leader.
        leaders = set(translator.block_leaders(0))
        for fragment in translator.translate_whole_function(0):
            for ext in fragment.external_branches:
                assert ext.target_item in leaders

    def test_in_range_branch_patched(self, translator):
        # The backward loop branch stays within its block range only if
        # its target is in range; translate the whole function as one
        # range and check there are no externals.
        planes = translator.items_of(0)
        table = translator.tables.for_function(translator.reader, 0)
        fragment = copy_translate_range(planes, table, 0, planes.count)
        assert fragment.external_branches == []

    def test_call_relocations_surface(self, translator):
        fragments = translator.translate_whole_function(0)
        callees = [r.callee for f in fragments for r in f.call_relocations]
        assert callees == [1]

    def test_bad_range_rejected(self, translator):
        planes = translator.items_of(0)
        table = translator.tables.for_function(translator.reader, 0)
        with pytest.raises(CopyPhaseError, match="bad item range"):
            copy_translate_range(planes, table, 3, 1)

    def test_fragments_cached(self, translator):
        first = translator.translate_block(0, 0)
        second = translator.translate_block(0, 0)
        assert first is second
        assert translator.blocks_translated >= 1

    def test_block_range_covers_item(self, translator):
        for item_index in range(translator.items_of(0).count):
            start, end = translator.block_range(0, item_index)
            assert start <= item_index < end

    def test_out_of_range_item_rejected(self, translator):
        with pytest.raises(CopyPhaseError):
            translator.block_range(0, 999)


class TestIncrementality:
    def test_single_block_touch_translates_one_block(self, translator):
        translator.translate_block(0, 0)
        assert translator.blocks_translated == 1

    def test_benchmark_function_block_by_block(self):
        from repro.workloads import benchmark_program, clear_cache

        program = benchmark_program("compress", scale=0.3)
        reader = open_container(compress(program).data)
        translator = BlockTranslator(reader)
        fragments = translator.translate_whole_function(1)
        assert sum(f.size for f in fragments) > 0
        clear_cache()
