"""Property tests: compressor and decompressor layouts must agree.

The whole index-assignment scheme rests on both sides deriving identical
16-bit indices from the canonical serialization orders (DESIGN.md).
These tests rebuild the decode-side layouts from the container sections
and compare them, entry by entry, against the compressor's layouts — for
random programs and for both partitioned and unpartitioned dictionaries.
"""

from hypothesis import assume, given, settings

from repro.core import build_dictionary, plan_partition
from repro.core.partition import PartitionError
from repro.core.layout import build_layouts, layouts_from_sections
from repro.isa import OP_BY_CODE, assemble
from repro.kernels import KIND_BRANCH, KIND_CALL, KIND_PLAIN

from .strategies import programs


def _agree(program, common_budget=16384, monkey_capacity=None):
    dictionary = build_dictionary(program)
    if monkey_capacity is not None:
        import repro.core.partition as pm

        original = pm.SEGMENT_CAPACITY
        pm.SEGMENT_CAPACITY = monkey_capacity
        try:
            plan = plan_partition(dictionary, common_budget=common_budget)
        finally:
            pm.SEGMENT_CAPACITY = original
    else:
        plan = plan_partition(dictionary, common_budget=common_budget)
    enc_layouts, common_base_blob, common_tree_blob, segments = build_layouts(
        dictionary, plan)
    dec_layouts = layouts_from_sections(common_base_blob, common_tree_blob,
                                        segments)
    assert len(enc_layouts) == len(dec_layouts)
    for enc, dec in zip(enc_layouts, dec_layouts):
        assert enc.addr_rows == dec.addr_rows
        assert enc.lengths == dec.lengths
        assert enc.kinds == dec.kinds
        assert enc.widths == dec.widths
        assert enc.paths == dec.paths
        # Each index's columns follow from its path and last row.
        for index, path in enumerate(dec.paths):
            row = dec.addr_rows[path[-1]]
            meta = OP_BY_CODE[row[0]]
            carries = meta.uses_target and len(row) == 6
            assert dec.lengths[index] == len(path)
            assert dec.kinds[index] == (
                KIND_PLAIN if not carries
                else KIND_BRANCH if meta.is_branch else KIND_CALL)
            assert dec.widths[index] == (row[2] if carries else 0)
        # Every compressor-side reference index must resolve to the same
        # entry content on the decode side.
        for ref_key, index in enc.index_of.items():
            path = dec.paths[index]
            enc_rows = [dictionary.rows[p]
                        for p in dictionary.window(ref_key)]
            dec_rows = [dec.addr_rows[a] for a in path]
            assert enc_rows == dec_rows
    return plan


class TestAgreementExamples:
    def test_small_program(self):
        program = assemble("""
func main
    li r1, 1
    li r2, 2
    li r1, 1
    li r2, 2
    bnez r1, out
out:
    call f
    ret
end
func f
    li r1, 1
    li r2, 2
    ret
end
""")
        plan = _agree(program)
        assert len(plan.segments) == 1

    def test_partitioned_program(self):
        lines = []
        value = 0
        for findex in range(12):
            lines.append(f"func f{findex}")
            lines.append("    addi r29, r29, -8")
            lines.append("    sw r30, 4(r29)")
            for _ in range(20):
                value += 3
                lines.append(f"    li r1, {value}")
            lines.append("    ret")
            lines.append("end")
        plan = _agree(assemble("\n".join(lines)), common_budget=50,
                      monkey_capacity=200)
        assert len(plan.segments) > 1


@given(programs(max_functions=5, max_function_size=35))
@settings(max_examples=30, deadline=None)
def test_property_layout_agreement(program):
    _agree(program)


@given(programs(max_functions=6, max_function_size=30))
@settings(max_examples=15, deadline=None)
def test_property_layout_agreement_forced_partition(program):
    # Force tiny segments so the partitioned paths get property coverage.
    dictionary = build_dictionary(program)
    needed = len(dictionary.rows)
    try:
        _agree(program, common_budget=max(8, needed // 4),
               monkey_capacity=max(needed // 2 + 8, 48))
    except PartitionError:
        # The forced capacity can be infeasible for a single function
        # (its private dictionary alone overflows a segment); that is
        # the partitioner's documented answer, not a layout bug, and
        # agreement is vacuous for such examples.
        assume(False)
