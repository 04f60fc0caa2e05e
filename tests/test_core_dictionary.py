"""Tests for repro.core.dictionary (Algorithm 1)."""

import pytest

from repro.isa import OP_BY_CODE, Op, assemble, info
from repro.core import build_dictionary, dictionary_statistics
from repro.core.dictionary import MAX_SEQUENCE_LENGTH


def _dict_for(text, **kwargs):
    return build_dictionary(assemble(text), **kwargs)


def _branch_rows(dictionary):
    """The rows of the dictionary's branch and jump base entries."""
    return [row for row in dictionary.rows
            if OP_BY_CODE[row[0]].is_branch]


REPEATED = """
func main
    li r1, 1
    addi r1, r1, 2
    mul r2, r1, r1
    li r1, 1
    addi r1, r1, 2
    mul r2, r1, r1
    ret
end
"""


class TestBaseEntries:
    def test_every_unique_instruction_is_a_base_entry(self):
        d = _dict_for(REPEATED)
        # li, addi, mul, ret -> 4 unique instructions.
        assert len(d.rows) == 4

    def test_duplicate_instructions_share_entries(self):
        d = _dict_for("""
func main
    li r1, 5
    li r1, 5
    li r1, 6
    ret
end
""")
        li_rows = [row for row in d.rows if row[0] == info(Op.LI).code]
        assert len(li_rows) == 2

    def test_branches_match_by_target_size_not_value(self):
        # Two bnez with different nearby targets share one base entry.
        d = _dict_for("""
func main
    bnez r1, a
    bnez r1, b
a:
    nop
b:
    ret
end
""")
        # (code, imm, target size, rd, rs1, rs2): no target value stored.
        assert _branch_rows(d) == [(info(Op.BNEZ).code, None, 1, None, 1,
                                    None)]

    def test_branch_entries_record_target_size(self):
        d = _dict_for("""
func main
    bnez r1, out
out:
    ret
end
""")
        (row,) = _branch_rows(d)
        assert row[2] == 1

    def test_far_branches_get_distinct_entry(self):
        lines = ["func main", "    bnez r1, far", "    bnez r1, near", "near:"]
        lines += ["    nop"] * 40
        lines += ["far:", "    ret", "end"]
        d = _dict_for("\n".join(lines))
        branch_rows = _branch_rows(d)
        assert len(branch_rows) == 2
        assert {row[2] for row in branch_rows} == {1, 2}


class TestSequenceEntries:
    def test_repeated_triple_becomes_sequence_entry(self):
        d = _dict_for(REPEATED)
        assert len(d.sequence_entries) == 1
        (sequence,) = d.sequence_entries
        assert len(sequence) == 3

    def test_unique_code_has_no_sequence_entries(self):
        d = _dict_for("""
func main
    li r1, 1
    li r2, 2
    li r3, 3
    ret
end
""")
        assert d.sequence_entries == {}

    def test_sequences_never_cross_basic_blocks(self):
        # The repeated pair li/addi is split by a branch target (leader).
        d = _dict_for("""
func main
    li r1, 1
    beqz r1, mid
mid:
    addi r1, r1, 2
    li r1, 1
    beqz r1, mid2
mid2:
    addi r1, r1, 2
    ret
end
""")
        for sequence in d.sequence_entries:
            assert len(sequence) <= 2

    def test_max_length_respected(self):
        body = "    li r1, 1\n    li r2, 2\n    li r3, 3\n    li r4, 4\n    li r5, 5\n    li r6, 6\n"
        d = _dict_for(f"func main\n{body}{body}    ret\nend\n")
        assert max(len(s) for s in d.sequence_entries) <= MAX_SEQUENCE_LENGTH

    def test_max_length_parameter(self):
        body = "    li r1, 1\n    li r2, 2\n    li r3, 3\n"
        d = _dict_for(f"func main\n{body}{body}    ret\nend\n", max_len=2)
        assert max(len(s) for s in d.sequence_entries) <= 2

    def test_max_len_one_means_no_sequences(self):
        d = _dict_for(REPEATED, max_len=1)
        assert d.sequence_entries == {}

    def test_bad_max_len_rejected(self):
        with pytest.raises(ValueError):
            _dict_for(REPEATED, max_len=0)

    def test_branch_only_last_in_sequence(self):
        d = _dict_for("""
func main
loop:
    addi r1, r1, -1
    bnez r1, loop
    addi r1, r1, -1
    bnez r1, loop
    ret
end
""")
        for sequence in d.sequence_entries:
            # look the opcodes up through the base rows
            for position, base_id in enumerate(sequence):
                meta = OP_BY_CODE[d.rows[base_id][0]]
                if meta.is_branch or meta.is_call:
                    assert position == len(sequence) - 1

    def test_cross_function_repetition_detected(self):
        d = _dict_for("""
func main
    li r1, 1
    addi r1, r1, 2
    ret
end
func other
    li r1, 1
    addi r1, r1, 2
    ret
end
""")
        assert len(d.sequence_entries) >= 1


class TestRefs:
    def test_refs_cover_program_exactly(self):
        program = assemble(REPEATED)
        d = build_dictionary(program)
        for fn, keys, targets in zip(program.functions, d.function_keys,
                                     d.function_targets):
            assert len(targets) == len(keys)
            assert sum(len(d.window(key)) for key in keys) == len(fn.insns)

    def test_greedy_prefers_longest(self):
        d = _dict_for(REPEATED)
        keys = d.function_keys[0]
        assert len(d.window(keys[0])) == 3  # the whole repeated triple
        assert d.window(keys[0]) in d.sequence_entries
        assert d.sequence_keys[d.window(keys[0])] == keys[0]

    def test_branch_refs_carry_targets(self):
        d = _dict_for("""
func main
loop:
    addi r1, r1, -1
    bnez r1, loop
    ret
end
""")
        branch_targets = [target for targets in d.function_targets
                          for target in targets if target is not None]
        assert branch_targets
        assert branch_targets[0] == 0

    def test_call_refs_carry_callee(self):
        d = _dict_for("""
func main
    call helper
    ret
end
func helper
    ret
end
""")
        call_targets = [target for targets in d.function_targets
                        for target in targets if target is not None]
        assert call_targets
        assert call_targets[0] == 1


class TestAbsoluteTargets:
    def test_absolute_mode_distinguishes_targets(self):
        text = """
func main
    bnez r1, a
    bnez r1, b
a:
    nop
b:
    ret
end
"""
        relative = _dict_for(text)
        absolute = _dict_for(text, absolute_targets=True)
        rel_branches = _branch_rows(relative)
        abs_branches = _branch_rows(absolute)
        assert len(rel_branches) == 1
        assert len(abs_branches) == 2
        # the stored target is the seventh field
        assert all(len(row) == 7 for row in abs_branches)

    def test_absolute_mode_stores_target(self):
        d = _dict_for("""
func main
    jmp out
out:
    ret
end
""", absolute_targets=True)
        (row,) = _branch_rows(d)
        assert row[6] == 1  # absolute index of 'out' 


class TestStatistics:
    def test_statistics_fields(self):
        stats = dictionary_statistics(_dict_for(REPEATED))
        assert stats["base_entries"] == 4
        assert stats["sequence_entries"] == 1
        assert stats["instructions"] == 7
        assert 0 < stats["sequence_coverage"] < 1
        assert stats["compression_leverage"] > 1
