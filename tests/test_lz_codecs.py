"""Unit and property tests for repro.lz.delta and repro.lz.lz77."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptContainer, LimitExceeded, TruncatedStream
from repro.lz.delta import decode_deltas, encode_deltas
from repro.lz.lz77 import compress, decompress
from repro.lz.varint import ByteWriter


class TestDelta:
    def test_empty_sequence(self):
        assert decode_deltas(encode_deltas([])) == []

    def test_single_value(self):
        assert decode_deltas(encode_deltas([42])) == [42]

    def test_monotone_run_is_compact(self):
        values = list(range(1000, 2000))
        encoded = encode_deltas(values)
        # 1000 deltas of +1 -> roughly one byte each plus header.
        assert len(encoded) < 1100
        assert decode_deltas(encoded) == values

    def test_large_deltas_use_escape(self):
        values = [0, 10**6, -(10**6), 0]
        assert decode_deltas(encode_deltas(values)) == values

    def test_negative_start(self):
        values = [-500, -400, -650]
        assert decode_deltas(encode_deltas(values)) == values

    def test_boundary_deltas(self):
        # Exactly at the small-delta boundary, both sides.
        values = [0, 127, 0, -127, 0, 128, 0, -128]
        assert decode_deltas(encode_deltas(values)) == values

    def test_sorted_field_beats_raw_varints(self):
        # The use case from the paper: a sorted immediate field.
        values = sorted((v * 37) % 5000 for v in range(2000))
        encoded = encode_deltas(values)
        raw_size = 2 * len(values)  # 16-bit literal encoding
        assert len(encoded) < raw_size


class TestLZ77:
    def test_empty(self):
        assert decompress(compress(b"")) == b""

    def test_short_literal_only(self):
        data = b"abc"
        assert decompress(compress(data)) == data

    def test_repetitive_input_compresses(self):
        data = b"the quick brown fox " * 200
        compressed = compress(data)
        assert len(compressed) < len(data) // 5
        assert decompress(compressed) == data

    def test_overlapping_copy(self):
        # A run like 'aaaa...' forces distance < length (overlap).
        data = b"a" * 1000
        compressed = compress(data)
        assert decompress(compressed) == data
        assert len(compressed) < 40

    def test_incompressible_random_bytes_roundtrip(self):
        import random

        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(4096))
        assert decompress(compress(data)) == data

    def test_binary_with_structure(self):
        # Simulates concatenated sorted instruction groups: repeated
        # 4-byte records with slowly varying fields.
        records = b"".join(
            bytes([op, i % 16, 0, 0])
            for op in range(16)
            for i in range(64)
        )
        compressed = compress(records)
        assert decompress(compressed) == records
        assert len(compressed) < len(records)

    def test_corrupt_distance_detected(self):
        w = ByteWriter()
        w.write_uvarint(10)  # claim 10 bytes
        w.write_uvarint(1)   # match of length 4
        w.write_uvarint(5)   # distance 5 with empty output -> corrupt
        with pytest.raises(ValueError):
            decompress(w.getvalue())


class TestLZ77WithBase:
    def test_distance_past_the_base_is_corrupt(self):
        w = ByteWriter()
        w.write_uvarint(4)
        w.write_uvarint(1)   # copy 4 bytes
        w.write_uvarint(9)   # from 9 back, with only 8 base bytes
        with pytest.raises(CorruptContainer) as info:
            decompress(w.getvalue(), base=b"12345678")
        assert info.value.offset == 1

    def test_truncated_and_oversized_streams(self):
        stream = compress(b"abcdefgh" * 4, base=b"xyz")
        with pytest.raises(TruncatedStream):
            decompress(stream[:-1], base=b"xyz")
        with pytest.raises(LimitExceeded):
            decompress(stream, 8, base=b"xyz")


@given(st.binary(max_size=2048), st.binary(max_size=1024),
       st.one_of(st.none(), st.integers(min_value=1, max_value=4096)))
@settings(max_examples=60)
def test_property_lz77_roundtrip(data, base, window):
    assert decompress(compress(data, base=base, window=window),
                      base=base) == data


@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=300))
def test_property_delta_roundtrip(values):
    assert decode_deltas(encode_deltas(values)) == values


@given(st.binary(min_size=1, max_size=512), st.integers(min_value=2, max_value=8))
@settings(max_examples=30)
def test_property_lz77_repetition_always_helps(chunk, repeats):
    data = chunk * (repeats * 8)
    assert len(compress(data)) < len(data) + 16
    assert decompress(compress(data)) == data
