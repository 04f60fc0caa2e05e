"""Tests for greedy vs optimal matching (repro.core.dictionary modes)."""

import pytest
from hypothesis import given, settings

from repro.core import build_dictionary, compress, decompress
from repro.core.dictionary import _greedy_segmentation, _optimal_segmentation
from repro.isa import Op, assemble, info

from .strategies import programs


def _bases(count):
    """``count`` NOP rows (distinct ids, one row each)."""
    return [(info(Op.NOP).code, None, None, None, None, None)] * count


def _item_costs(rows):
    # Mirrors build_dictionary's optimal-mode cost table: 2 index bytes,
    # plus the target bytes of a target that travels in the item.
    return [2.0 + row[2] if row[2] is not None and len(row) == 6 else 2.0
            for row in rows]


def _packed(counts, num_bases):
    """Pack tuple-keyed window counts into the kernels' integer keys."""
    key_bits = max(1, (num_bases - 1).bit_length())
    packed = {}
    for window, count in counts.items():
        key = 1 << (len(window) * key_bits)
        for offset, base_id in enumerate(window):
            key |= base_id << (offset * key_bits)
        packed[key] = count
    return packed, key_bits


def _lengths(segmentation):
    """Segment lengths of a ``(keys, stops)`` segmentation."""
    _, stops = segmentation
    return [stop - start for start, stop in zip([0] + stops, stops)]


class TestSegmentationUnits:
    def test_greedy_takes_longest(self):
        ids = [0, 1, 2, 3]
        ends = [4, 4, 4, 4]
        counts, key_bits = _packed({(0, 1, 2): 2, (0, 1): 5}, 4)
        assert _lengths(_greedy_segmentation(ids, ends, counts, 4,
                                             key_bits)) == [3, 1]

    def test_greedy_respects_block_ends(self):
        ids = [0, 1, 2, 3]
        ends = [2, 2, 4, 4]
        counts, key_bits = _packed(
            {(0, 1): 2, (2, 3): 2, (0, 1, 2, 3): 9}, 4)
        # The 4-window crosses a block boundary, so only the pairs match.
        assert _lengths(_greedy_segmentation(ids, ends, counts, 4,
                                             key_bits)) == [2, 2]

    def test_optimal_beats_greedy_on_non_factor_closed_oracle(self):
        # (0,1) and (1,2,3,4) marked repeated, but no sub-window of the
        # latter — impossible for real occurrence counts (factor-closed),
        # but exactly the case where greedy loses.
        ids = [0, 1, 2, 3, 4]
        ends = [5] * 5
        counts, key_bits = _packed({(0, 1): 2, (1, 2, 3, 4): 2}, 5)
        greedy = _lengths(_greedy_segmentation(ids, ends, counts, 4, key_bits))
        optimal = _lengths(_optimal_segmentation(ids, ends, counts, 4, key_bits,
                                                 _item_costs(_bases(5))))
        assert len(greedy) == 4
        assert optimal == [1, 4]

    def test_optimal_accounts_for_branch_target_bytes(self):
        # Entry 2 is a branch with a 4-byte target: a segmentation that
        # uses it as its own item pays 6 bytes either way, so the DP
        # still prefers fewer items.
        bases = _bases(3)
        bases[2] = (info(Op.JMP).code, None, 4, None, None, None)
        ids = [0, 1, 2]
        ends = [3, 3, 3]
        counts, key_bits = _packed({(0, 1, 2): 2}, 3)
        optimal = _lengths(_optimal_segmentation(ids, ends, counts, 4, key_bits,
                                                 _item_costs(bases)))
        assert optimal == [3]

    def test_segmentations_cover_input(self):
        ids = list(range(10))
        ends = [10] * 10
        counts, key_bits = _packed({}, 10)
        for mode in (_greedy_segmentation(ids, ends, counts, 4, key_bits),
                     _optimal_segmentation(ids, ends, counts, 4, key_bits,
                                           _item_costs(_bases(10)))):
            assert sum(_lengths(mode)) == 10


class TestMatchModes:
    SOURCE = """
func main
    li r1, 1
    li r2, 2
    li r3, 3
    li r1, 1
    li r2, 2
    li r3, 3
    ret
end
"""

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="match_mode"):
            build_dictionary(assemble(self.SOURCE), match_mode="psychic")

    def test_optimal_roundtrip(self):
        program = assemble(self.SOURCE)
        restored = decompress(compress(program, match_mode="optimal").data)
        assert [f.insns for f in restored.functions] == \
            [f.insns for f in program.functions]

    def test_greedy_matches_optimal_on_real_programs(self):
        # The factor-closure argument: real occurrence counts make greedy
        # optimal, so item counts agree.
        program = assemble(self.SOURCE)
        greedy = build_dictionary(program, match_mode="greedy")
        optimal = build_dictionary(program, match_mode="optimal")
        greedy_items = sum(len(keys) for keys in greedy.function_keys)
        optimal_items = sum(len(keys) for keys in optimal.function_keys)
        assert greedy_items == optimal_items


@given(programs(max_functions=3, max_function_size=30))
@settings(max_examples=25, deadline=None)
def test_property_optimal_never_worse_and_roundtrips(program):
    greedy = compress(program, match_mode="greedy")
    optimal = compress(program, match_mode="optimal")
    greedy_items = greedy.dictionary_stats["items"]
    optimal_items = optimal.dictionary_stats["items"]
    assert optimal_items <= greedy_items
    restored = decompress(optimal.data)
    assert [f.insns for f in restored.functions] == \
        [f.insns for f in program.functions]
