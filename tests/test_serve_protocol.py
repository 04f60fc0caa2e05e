"""Tests for the repro.serve wire protocol (framing, bodies, CRCs)."""

import io

import pytest

from repro.errors import ProtocolError, TruncatedStream
from repro.isa import assemble
from repro.serve import protocol

ASM = """
func main
    li r2, 6
    call double
    trap 1
    ret
end
func double
    add r1, r2, r2
    ret
end
"""

CID = "ab" * 32


def roundtrip(message):
    frame = protocol.encode_frame(message)
    return protocol.read_frame(io.BytesIO(frame))


class TestFraming:
    def test_roundtrip(self):
        message = protocol.Message(type=protocol.STATS, request_id=7,
                                   body=b"xyz")
        restored = roundtrip(message)
        assert restored == message

    def test_empty_body(self):
        assert roundtrip(protocol.Message(type=protocol.STATS,
                                          request_id=0)).body == b""

    def test_clean_eof_returns_none(self):
        assert protocol.read_frame(io.BytesIO(b"")) is None

    def test_truncated_payload_raises(self):
        frame = protocol.encode_frame(
            protocol.Message(type=protocol.STATS, request_id=1, body=b"abc"))
        with pytest.raises(ProtocolError, match="mid frame"):
            protocol.read_frame(io.BytesIO(frame[:-6]))

    def test_corrupt_byte_fails_crc(self):
        frame = bytearray(protocol.encode_frame(
            protocol.Message(type=protocol.STATS, request_id=1,
                             body=b"abcdef")))
        frame[3] ^= 0xFF
        with pytest.raises(ProtocolError, match="CRC32"):
            protocol.read_frame(io.BytesIO(bytes(frame)))

    def test_version_mismatch_rejected(self):
        frame = protocol.encode_frame(
            protocol.Message(type=protocol.STATS, request_id=1, version=9))
        with pytest.raises(ProtocolError, match="version 9"):
            protocol.read_frame(io.BytesIO(frame))

    def test_oversized_frame_rejected_before_read(self):
        frame = protocol.encode_frame(
            protocol.Message(type=protocol.STATS, request_id=1,
                             body=b"x" * 100))
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.read_frame(io.BytesIO(frame), max_frame=10)

    def test_request_id_survives(self):
        assert roundtrip(protocol.Message(
            type=protocol.GET_META, request_id=123456789,
            body=bytes.fromhex(CID))).request_id == 123456789


class TestBodies:
    def test_put_roundtrip(self):
        assert protocol.parse_put(protocol.build_put(b"container")) == \
            b"container"

    def test_get_meta_roundtrip(self):
        assert protocol.parse_get_meta(protocol.build_get_meta(CID)) == CID

    def test_get_function_roundtrip(self):
        body = protocol.build_get_function(CID, 42)
        assert protocol.parse_get_function(body) == (CID, 42)

    def test_get_block_roundtrip(self):
        body = protocol.build_get_block(CID, 3, 10, 64)
        assert protocol.parse_get_block(body) == (CID, 3, 10, 64)

    def test_bad_container_id_rejected(self):
        with pytest.raises(ProtocolError, match="not hex"):
            protocol.build_get_meta("zz" * 32)
        with pytest.raises(ProtocolError, match="32 bytes"):
            protocol.build_get_meta("ab" * 4)

    def test_trailing_bytes_rejected(self):
        body = protocol.build_get_meta(CID) + b"\x00"
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.parse_get_meta(body)

    def test_truncated_body_raises_taxonomy_error(self):
        with pytest.raises(TruncatedStream):
            protocol.parse_get_function(protocol.build_get_meta(CID)[:10])

    def test_ok_put_roundtrip(self):
        body = protocol.build_ok_put(CID, 9, 2)
        assert protocol.parse_ok_put(body) == (CID, 9, 2)

    def test_ok_meta_roundtrip(self):
        body = protocol.build_ok_meta("prog", 1, ["main", "helper"],
                                      container_version=1)
        assert protocol.parse_ok_meta(body) == \
            ("prog", 1, ["main", "helper"], 1)

    def test_ok_meta_default_codec_is_ssd(self):
        # The layout keeps its codec id + codec wire id: always "ssd"/1.
        body = protocol.build_ok_meta("prog", 1, ["main"])
        assert body.endswith(b"\x03ssd\x01\x02")

    def test_ok_meta_carries_wire_id_and_version(self):
        body = protocol.build_ok_meta("p", 0, [], container_version=1)
        assert body[-2:] == bytes([protocol.META_CODEC_WIRE_ID, 1])
        assert protocol.parse_ok_meta(body)[3] == 1

    def test_ok_meta_codec_fields_are_read_and_discarded(self):
        # A body naming another codec still parses: the fields are skipped.
        body = protocol.build_ok_meta("p", 0, ["main"])
        foreign = body[:-6] + b"\x05brisc\x02\x02"
        assert protocol.parse_ok_meta(foreign) == ("p", 0, ["main"], 2)
        with pytest.raises(TruncatedStream):
            protocol.parse_ok_meta(body[:-3])

    def test_ok_meta_no_functions(self):
        assert protocol.parse_ok_meta(protocol.build_ok_meta("p", 0, [])) == \
            ("p", 0, [], 2)

    def test_error_roundtrip(self):
        body = protocol.build_error(protocol.E_NOT_FOUND, "no such container")
        assert protocol.parse_error(body) == (protocol.E_NOT_FOUND,
                                              "no such container")

    def test_ok_stats_roundtrip(self):
        assert protocol.parse_ok_stats(
            protocol.build_ok_stats(b'{"a": 1}')) == b'{"a": 1}'


class TestInstructionTransport:
    @pytest.fixture()
    def program(self):
        return assemble(ASM)

    def test_function_roundtrip(self, program):
        function = program.functions[0]
        body = protocol.build_ok_function(0, function.name, function.insns)
        restored = protocol.parse_ok_function(body)
        assert restored.name == function.name
        assert restored.insns == function.insns

    def test_block_roundtrip_preserves_branch_targets(self, program):
        # Slices must encode with their true indices or pc-relative
        # targets shift; exercise a non-zero start.
        function = program.functions[0]
        insns = function.insns[1:3]
        body = protocol.build_ok_block(0, 1, len(function.insns), insns)
        findex, start, total, restored = protocol.parse_ok_block(body)
        assert (findex, start, total) == (0, 1, len(function.insns))
        assert restored == insns

    def test_slice_helpers_roundtrip(self, program):
        insns = program.functions[0].insns
        blob = protocol.encode_instruction_slice(insns, 0)
        assert protocol.decode_instruction_slice(blob, 0) == insns
