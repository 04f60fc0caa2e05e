"""Tests for base-entry compression, sequence trees, and item streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ItemStreamError,
    build_dictionary,
    decode_base_entries,
    decode_sequence_tree,
    encode_base_entries,
    encode_items,
    encode_sequence_tree,
    sequence_index_map,
)
from repro.core.items import decode_item_planes, resolve_plane_targets
from repro.kernels import KIND_BRANCH, KIND_CALL, KIND_PLAIN
from repro.isa import Op, assemble, info

from .strategies import item_layout, programs


def _rows_from(text, **kwargs):
    """The program's base rows in canonical order."""
    return sorted(build_dictionary(assemble(text), **kwargs).rows)


SAMPLE = """
func main
    li r1, 100
    li r2, -5
    addi r1, r1, 1
    lw r3, 8(r29)
    sw r3, 12(r29)
    bnez r1, out
    call helper
out:
    ret
end
func helper
    mul r4, r1, r2
    ret
end
"""


class TestBaseEntryCodec:
    def test_roundtrip_preserves_entries(self):
        ordered = _rows_from(SAMPLE)
        decoded = decode_base_entries(encode_base_entries(ordered))
        assert decoded == ordered

    def test_delta_codec_roundtrip(self):
        ordered = _rows_from(SAMPLE)
        decoded = decode_base_entries(encode_base_entries(ordered,
                                                          codec="delta"))
        assert decoded == ordered

    def test_delta_lz_codec_roundtrip(self):
        ordered = _rows_from(SAMPLE)
        decoded = decode_base_entries(encode_base_entries(ordered,
                                                          codec="delta+lz"))
        assert decoded == ordered

    def test_order_groups_by_opcode(self):
        decoded = decode_base_entries(encode_base_entries(_rows_from(SAMPLE)))
        codes = [row[0] for row in decoded]
        assert codes == sorted(codes)

    def test_order_sorts_by_immediate_within_group(self):
        decoded = decode_base_entries(encode_base_entries(_rows_from(SAMPLE)))
        li_imms = [row[1] for row in decoded if row[0] == info(Op.LI).code]
        assert len(li_imms) == 2
        assert li_imms == sorted(li_imms)

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="unknown codec"):
            encode_base_entries([], codec="zstd")

    def test_empty_blob_rejected(self):
        with pytest.raises(ValueError):
            decode_base_entries(b"")

    def test_bad_codec_tag_rejected(self):
        with pytest.raises(ValueError, match="codec tag"):
            decode_base_entries(b"\x07rest")

    def test_sorted_immediates_compress_well(self):
        # Many LIs with clustered immediates: the sorted+LZ form should be
        # far below the naive 5+ bytes/instruction encoding.
        rows = [(info(Op.LI).code, 1000 + i, None, 1, None, None)
                for i in range(500)]
        blob = encode_base_entries(rows)
        assert len(blob) < 500 * 3

    def test_displacement_roundtrip(self):
        rows = _rows_from(SAMPLE, absolute_targets=True)
        assert any(len(row) == 7 for row in rows)
        decoded = decode_base_entries(encode_base_entries(rows))
        assert decoded == rows


class TestSequenceTree:
    def _roundtrip(self, sequences, base_space):
        blob = encode_sequence_tree(sequences, base_space)
        return decode_sequence_tree(blob)

    def test_single_sequence(self):
        ranks = self._roundtrip([(1, 2, 3)], base_space=10)
        assert ranks == {(1, 2): 0, (1, 2, 3): 1}

    def test_shared_prefix_shares_nodes(self):
        ranks = self._roundtrip([(1, 2, 3), (1, 2, 4)], base_space=10)
        assert len(ranks) == 3  # (1,2), (1,2,3), (1,2,4)

    def test_figure2_forest(self):
        # Figure 2 of the paper: trees for A1 and A2.
        a1, b1, c1, a2, b2, c2, d2, e2 = range(8)
        sequences = [(a1, b1), (a1, c1), (a2, b2, c2), (a2, b2, d2, e2)]
        ranks = self._roundtrip(sequences, base_space=8)
        # nodes: (a1,b1),(a1,c1),(a2,b2),(a2,b2,c2),(a2,b2,d2),(a2,b2,d2,e2)
        assert len(ranks) == 6
        for sequence in sequences:
            assert tuple(sequence) in ranks

    def test_dfs_order_is_deterministic(self):
        sequences = [(3, 1), (2, 5), (2, 4), (3, 1, 2)]
        a = self._roundtrip(sequences, base_space=8)
        b = self._roundtrip(list(reversed(sequences)), base_space=8)
        assert a == b

    def test_high_bit_encoding_used_for_small_spaces(self):
        from repro.lz import lz77

        blob = encode_sequence_tree([(1, 2)], base_space=100)
        assert lz77.decompress(blob)[0] == 1  # high-bit flag

    def test_reserved_pop_encoding_for_large_spaces(self):
        from repro.lz import lz77

        blob = encode_sequence_tree([(40000, 2)], base_space=60000)
        assert lz77.decompress(blob)[0] == 0
        ranks = decode_sequence_tree(blob)
        assert (40000, 2) in ranks

    def test_base_id_out_of_space_rejected(self):
        with pytest.raises(ValueError, match="outside base space"):
            encode_sequence_tree([(1, 200)], base_space=100)

    def test_full_capacity_base_space_works(self):
        # Capacity already excludes 0xFFFF, so the largest legal id is
        # 65534 and never collides with the reserved pop token.
        ranks = decode_sequence_tree(
            encode_sequence_tree([(65534, 1)], base_space=65535))
        assert (65534, 1) in ranks

    def test_space_too_large_rejected(self):
        with pytest.raises(ValueError):
            encode_sequence_tree([(1, 2)], base_space=1 << 17)

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError, match="length >= 2"):
            encode_sequence_tree([(1,)], base_space=10)

    def test_sequence_index_map_offsets_by_base_count(self):
        mapping = sequence_index_map([(1, 2)], base_count=50)
        assert mapping[(1, 2)] == 50


class TestItemCodec:
    # entries: 0 = one plain instruction, 1 = branch (1-byte target),
    # 2 = 3-instruction sequence, 3 = call (1-byte target)
    ENTRIES = [(1, KIND_PLAIN, 0), (1, KIND_BRANCH, 1), (3, KIND_PLAIN, 0),
               (1, KIND_CALL, 1)]

    def _layout(self, index_of=None):
        return item_layout(self.ENTRIES, index_of)

    # References are (packed key, target) columns; the item coder only
    # looks keys up in ``index_of``, so any distinct ints serve as keys.
    SEQUENCE = 111213

    def test_roundtrip_plain_items(self):
        layout = self._layout({10: 0, self.SEQUENCE: 2})
        blob = encode_items([10, self.SEQUENCE], [None, None], layout)
        planes = decode_item_planes(blob, layout)
        assert planes.indices == [0, 2]
        assert planes.lengths == [1, 3]

    def test_branch_displacement_roundtrip(self):
        # item 0: branch to instruction 4 (start of item 2); item 1: a
        # 3-insn sequence; item 2: plain.
        layout = self._layout({20: 1, self.SEQUENCE: 2, 10: 0})
        blob = encode_items([20, self.SEQUENCE, 10], [4, None, None], layout)
        planes = decode_item_planes(blob, layout)
        targets = resolve_plane_targets(planes)
        assert targets == [4, None, None]

    def test_backward_branch(self):
        layout = self._layout({10: 0, 20: 1})
        planes = decode_item_planes(
            encode_items([10, 20], [None, 0], layout), layout)
        assert resolve_plane_targets(planes) == [None, 0]

    def test_call_target_roundtrip(self):
        layout = self._layout({30: 3})
        planes = decode_item_planes(encode_items([30], [7], layout), layout)
        assert planes.kinds == [KIND_CALL]
        assert planes.values == [7]

    def test_misaligned_branch_target_rejected(self):
        # Branch into the middle of the 3-instruction sequence item.
        layout = self._layout({20: 1, self.SEQUENCE: 2})
        with pytest.raises(ItemStreamError, match="not item-aligned"):
            encode_items([20, self.SEQUENCE], [2, None], layout)

    def test_unknown_entry_rejected(self):
        with pytest.raises(ItemStreamError, match="no dictionary index"):
            encode_items([99], [None], self._layout())

    def test_unknown_index_on_decode_rejected(self):
        with pytest.raises(ItemStreamError, match="unknown index"):
            decode_item_planes(b"\x63\x00", self._layout())  # index 99

    def test_out_of_range_displacement_rejected(self):
        # displacement +100 with only 1 item
        blob = b"\x01\x00\x64"
        planes = decode_item_planes(blob, self._layout())
        with pytest.raises(ItemStreamError, match="leaves the function"):
            resolve_plane_targets(planes)


@given(programs(max_functions=4, max_function_size=40))
@settings(max_examples=30, deadline=None)
def test_property_base_entry_codec_roundtrip(program):
    ordered = sorted(build_dictionary(program).rows)
    for codec in ("lz", "delta", "delta+lz"):
        assert decode_base_entries(
            encode_base_entries(ordered, codec=codec)) == ordered


@given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200),
                          st.integers(0, 200)).map(tuple),
                min_size=1, max_size=60))
@settings(max_examples=50)
def test_property_tree_roundtrip(sequences):
    from repro.core import assign_sequence_indices

    blob = encode_sequence_tree(sequences, base_space=201)
    assert decode_sequence_tree(blob) == assign_sequence_indices(sequences)
