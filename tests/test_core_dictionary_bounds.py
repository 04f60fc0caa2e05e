"""Dictionary decode is bounded before it builds anything.

A base-entry group declares its entry count up front, and a group of
NOPs carries no per-entry bytes, so a few bytes of LZ77 can declare a
million bases.  ``DecodeLimits.max_dict_entries`` must stop such a blob
while it is read, not after every entry exists.  The sequence tree is
held to the same limit as it is walked, and its paths to
``SEQUENCE_LENGTH_CAP`` entries, which the compressor's ``max_len`` may
not pass either.
"""

import time
import tracemalloc

import pytest

from repro.core import (
    SEQUENCE_LENGTH_CAP,
    DecodeLimits,
    build_dictionary,
    compress,
    decode_base_entries,
    decode_sequence_tree,
    decompress,
    encode_base_entries,
    encode_sequence_tree,
    open_container,
    parse,
    serialize,
)
from repro.errors import CorruptContainer, LimitExceeded
from repro.isa import Op, assemble, info
from repro.lz import lz77
from repro.lz.varint import ByteWriter
from repro.tools import main

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


def _chain_blob(depth: int) -> bytes:
    """A tree blob holding one chain of base 0, ``depth`` entries deep:
    the bytes of ``encode_sequence_tree([(0,) * depth], base_space=16)``,
    written token by token (the encoder's forest is quadratic in depth)."""
    writer = ByteWriter()
    writer.write_u8(1)           # high-bit pop tokens
    writer.write_uvarint(1)      # one root
    for token in [0] * depth + [0x8000] * depth:
        writer.write_u16(token)
    return lz77.compress(writer.getvalue())


def test_sequence_path_past_the_cap_is_refused():
    assert SEQUENCE_LENGTH_CAP == 16
    assert _chain_blob(16) == encode_sequence_tree([(0,) * 16], base_space=16)
    assert len(decode_sequence_tree(_chain_blob(16))) == 15
    with pytest.raises(CorruptContainer, match="longer than 16 entries"):
        decode_sequence_tree(_chain_blob(17))


def test_deep_chain_container_is_refused_fast():
    sections = parse(compress(assemble(SOURCE)).data)
    sections.segments[0].tree_blob = _chain_blob(4000)
    data = serialize(sections)
    assert len(data) < 256
    start = time.perf_counter()
    with pytest.raises(CorruptContainer, match="longer than 16 entries"):
        open_container(data)
    assert time.perf_counter() - start < 0.1


def test_immediate_outside_int32_is_a_corrupt_container():
    # No native encoding holds a wider immediate: a decoder that took it
    # would have to truncate it.  Hand-encode the LI row with 2**40.
    sections = parse(compress(assemble(SOURCE)).data)
    segment = sections.segments[0]
    li = info(Op.LI).code
    rows = [row[:1] + (1 << 40,) + row[2:] if row[0] == li else row
            for row in decode_base_entries(segment.base_blob)]
    assert sum(row[0] == li for row in rows) == 1
    segment.base_blob = encode_base_entries(rows)
    with pytest.raises(CorruptContainer, match="li: immediate 1099511627776 outside int32"):
        open_container(serialize(sections))
    with pytest.raises(CorruptContainer, match="outside int32"):
        decode_base_entries(encode_base_entries(rows, codec="delta"))


def test_max_len_at_the_cap_round_trips():
    body = "".join(f"    li r1, {value}\n" for value in range(20))
    program = assemble(f"func main\n{body}{body}    ret\nend\n")
    data = compress(program, max_len=SEQUENCE_LENGTH_CAP).data
    assert max(map(len, open_container(data).layouts[0].paths)) == 16
    assert decompress(data) == program


def test_max_len_past_the_cap_is_refused(tmp_path, capsys):
    program = assemble(SOURCE)
    with pytest.raises(ValueError, match="max_len must be <= 16"):
        build_dictionary(program, max_len=SEQUENCE_LENGTH_CAP + 1)
    with pytest.raises(ValueError, match="max_len must be <= 16"):
        compress(program, max_len=SEQUENCE_LENGTH_CAP + 1)
    source = tmp_path / "p.asm"
    source.write_text(SOURCE)
    out = tmp_path / "p.ssd"
    assert main(["compress", str(source), "-o", str(out),
                 "--max-len", "17"]) == 2
    assert "error: --max-len must be <= 16, got 17" in capsys.readouterr().err
    assert not out.exists()
