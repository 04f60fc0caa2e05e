"""Dictionary decode is bounded before it builds anything.

A base-entry group declares its entry count up front, and a group of
NOPs carries no per-entry bytes, so a few bytes of LZ77 can declare a
million bases.  ``DecodeLimits.max_dict_entries`` must stop such a blob
while it is read, not after every entry exists.  The sequence tree is
held to the same limit as it is walked.
"""

import tracemalloc

import pytest

from repro.core import (
    DecodeLimits,
    compress,
    decode_base_entries,
    decode_sequence_tree,
    encode_base_entries,
    encode_sequence_tree,
    open_container,
    parse,
    serialize,
)
from repro.errors import LimitExceeded
from repro.isa import Op, assemble, info
from repro.lz import lz77
from repro.lz.varint import ByteWriter

SOURCE = """
func main
    li r1, 5
    trap 1
    ret
end
"""

_NOP = (info(Op.NOP).code, None, None, None, None, None)


def _nop_blob(count: int) -> bytes:
    """An "lz" base-entry blob declaring ``count`` NOP bases, padded with
    ``count`` zero bytes (LZ77 squeezes the padding to a few bytes)."""
    writer = ByteWriter()
    writer.write_uvarint(1)
    writer.write_u8(_NOP[0])
    writer.write_uvarint(count)
    return b"\x00" + lz77.compress(writer.getvalue() + bytes(count))


def test_container_declaring_a_million_bases_is_refused_cheaply():
    sections = parse(compress(assemble(SOURCE)).data)
    sections.segments[0].base_blob = _nop_blob(1 << 20)
    data = serialize(sections)
    assert len(data) < 2048
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded):
            open_container(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_base_entry_count_is_checked_against_the_limit():
    limits = DecodeLimits(max_dict_entries=100)
    assert decode_base_entries(_nop_blob(100), limits) == [_NOP] * 100
    with pytest.raises(LimitExceeded):
        decode_base_entries(_nop_blob(101), limits)
    # Two groups whose sum passes the limit.
    li = [(info(Op.LI).code, value, None, 1, None, None) for value in range(60)]
    blob = encode_base_entries([_NOP] * 50 + li)
    with pytest.raises(LimitExceeded):
        decode_base_entries(blob, limits)


def test_base_entry_lz_output_is_bounded():
    with pytest.raises(LimitExceeded):
        decode_base_entries(_nop_blob(1000), DecodeLimits(max_blob_output=64))


def test_sequence_tree_node_count_is_checked_against_the_limit():
    limits = DecodeLimits(max_dict_entries=100)
    # Ten roots with ten children each: exactly 100 nodes.
    paths = [(root, child) for root in range(10) for child in range(10)]
    blob = encode_sequence_tree(paths, base_space=16)
    assert len(decode_sequence_tree(blob, limits)) == 100
    blob = encode_sequence_tree(paths + [(10, 0)], base_space=16)
    with pytest.raises(LimitExceeded):
        decode_sequence_tree(blob, limits)
    # A single root whose chain runs deeper than the limit.
    blob = encode_sequence_tree([(0,) * 200], base_space=16)
    with pytest.raises(LimitExceeded):
        decode_sequence_tree(blob, limits)
