"""Differential tests for the table-driven VM bytecode codec on the wire.

``repro.isa.encoding`` decodes and encodes instruction slices with one
table lookup per opcode.  The per-instruction ``ByteReader``/``ByteWriter``
codec it replaced is kept below as the oracle: valid slices must encode
to the oracle's bytes and decode to the oracle's instructions, and every
byte string the oracle rejects must be rejected with ``ProtocolError``
(never a ``KeyError``, a bare ``ValueError`` or any other escape).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CorruptContainer, ProtocolError
from repro.isa import NUM_REGISTERS, Function, Instruction, Op, info
from repro.isa.encoding import (
    decode_function,
    decode_instruction,
    encode_function,
    function_byte_offsets,
    instruction_size,
)
from repro.isa.instruction import immediate_size_class, target_size_class
from repro.isa.opcodes import OP_BY_CODE, OP_TABLE
from repro.lz.varint import ByteReader, ByteWriter
from repro.serve import protocol
from repro.workloads import corpus

# -- the oracle: the per-instruction codec the table-driven one replaced ----

_SIZE_TO_TAG = {0: 0, 1: 1, 2: 2, 4: 3}
_TAG_TO_SIZE = {0: 0, 1: 1, 2: 2, 3: 4}


def _write_signed(writer, value, size):
    unsigned = value & ((1 << (8 * size)) - 1)
    for shift in range(0, 8 * size, 8):
        writer.write_u8((unsigned >> shift) & 0xFF)


def _read_signed(reader, size):
    value = 0
    for position in range(size):
        value |= reader.read_u8() << (8 * position)
    sign_bit = 1 << (8 * size - 1)
    return value - (1 << (8 * size)) if value & sign_bit else value


def oracle_encode_instruction(insn, index, writer):
    meta = info(insn.op)
    writer.write_u8(meta.code)
    imm_size = immediate_size_class(insn.imm) if meta.uses_imm else 0
    if meta.uses_target:
        if meta.is_branch:
            displacement = insn.target - (index + 1)
            tgt_size = target_size_class(displacement)
        else:
            displacement = insn.target
            tgt_size = (
                1 if displacement < (1 << 7) else 2 if displacement < (1 << 15) else 4
            )
    else:
        displacement = 0
        tgt_size = 0
    if meta.uses_imm or meta.uses_target:
        writer.write_u8(_SIZE_TO_TAG[imm_size] | (_SIZE_TO_TAG[tgt_size] << 2))
    for used, reg in (
        (meta.uses_rd, insn.rd),
        (meta.uses_rs1, insn.rs1),
        (meta.uses_rs2, insn.rs2),
    ):
        if used:
            writer.write_u8(reg)
    if imm_size:
        _write_signed(writer, insn.imm, imm_size)
    if tgt_size:
        _write_signed(writer, displacement, tgt_size)


def oracle_decode_instruction(reader, index):
    meta = OP_BY_CODE[reader.read_u8()]
    imm_size = 0
    tgt_size = 0
    if meta.uses_imm or meta.uses_target:
        mode = reader.read_u8()
        imm_size = _TAG_TO_SIZE[mode & 0x3]
        tgt_size = _TAG_TO_SIZE[(mode >> 2) & 0x3]
    rd = reader.read_u8() if meta.uses_rd else None
    rs1 = reader.read_u8() if meta.uses_rs1 else None
    rs2 = reader.read_u8() if meta.uses_rs2 else None
    imm = _read_signed(reader, imm_size) if imm_size else None
    target = None
    if meta.uses_target:
        displacement = _read_signed(reader, tgt_size)
        if meta.is_branch:
            target = index + 1 + displacement
        else:
            target = displacement & ((1 << (8 * tgt_size)) - 1)
    if meta.uses_imm and imm is None:
        imm = 0
    return Instruction(op=meta.op, rd=rd, rs1=rs1, rs2=rs2, imm=imm, target=target)


def oracle_encode_slice(insns, start):
    writer = ByteWriter()
    writer.write_uvarint(len(insns))
    for offset, insn in enumerate(insns):
        oracle_encode_instruction(insn, start + offset, writer)
    return writer.getvalue()


def oracle_decode_slice(data, start):
    reader = ByteReader(data)
    count = reader.read_uvarint()
    insns = [oracle_decode_instruction(reader, start + i) for i in range(count)]
    if not reader.at_end():
        raise ValueError(f"{reader.remaining} trailing bytes")
    return insns


def assert_same_verdict(data, start):
    """The codec accepts ``data`` iff the oracle does, with equal results."""
    try:
        expected = oracle_decode_slice(data, start)
    except (KeyError, ValueError):  # TruncatedStream is a ValueError too
        expected = None
    if expected is None:
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_instruction_slice(data, start)
        assert excinfo.value.offset is not None
    else:
        assert protocol.decode_instruction_slice(data, start) == expected


# -- strategies --------------------------------------------------------------

_REG = st.integers(min_value=0, max_value=NUM_REGISTERS - 1)
_IMM = st.one_of(
    st.integers(min_value=-128, max_value=127),
    st.integers(min_value=-(2**15), max_value=2**15 - 1),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
)


@st.composite
def instructions(draw):
    """Any valid instruction; branch and call targets of every size class."""
    op = draw(st.sampled_from(list(Op)))
    meta = info(op)
    target = None
    if meta.is_branch:
        target = draw(st.integers(min_value=0, max_value=100_000))
    elif meta.is_call:
        target = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return Instruction(
        op=op,
        rd=draw(_REG) if meta.uses_rd else None,
        rs1=draw(_REG) if meta.uses_rs1 else None,
        rs2=draw(_REG) if meta.uses_rs2 else None,
        imm=draw(_IMM) if meta.uses_imm else None,
        target=target,
    )


_SLICES = st.tuples(
    st.lists(instructions(), max_size=40),
    st.integers(min_value=0, max_value=5_000),
)


@st.composite
def hostile_slices(draw):
    """A valid slice's bytes, then mutated, truncated or extended."""
    insns, start = draw(_SLICES)
    data = bytearray(oracle_encode_slice(insns, start))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        position = draw(st.integers(min_value=0, max_value=len(data) - 1))
        data[position] = draw(st.integers(min_value=0, max_value=255))
    cut = draw(st.integers(min_value=0, max_value=len(data)))
    if draw(st.booleans()):
        data = data[:cut]
    data += draw(st.binary(max_size=4))
    return bytes(data), start


# -- property tests ----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_SLICES)
def test_valid_slices_roundtrip_with_oracle_bytes(case):
    insns, start = case
    blob = protocol.encode_instruction_slice(insns, start)
    assert blob == oracle_encode_slice(insns, start)
    assert protocol.decode_instruction_slice(blob, start) == insns


@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(hostile_slices())
def test_hostile_slices_match_oracle_or_raise_protocol_error(case):
    data, start = case
    assert_same_verdict(data, start)


@settings(max_examples=100, deadline=None)
@given(st.lists(instructions(), max_size=20))
def test_sizes_and_offsets_follow_the_encoding(insns):
    sizes = []
    for index, insn in enumerate(insns):
        writer = ByteWriter()
        oracle_encode_instruction(insn, index, writer)
        sizes.append(len(writer))
        assert instruction_size(insn, index) == sizes[-1]
    offsets, total = function_byte_offsets(_function(insns))
    assert total == sum(sizes)
    assert offsets == [sum(sizes[:index]) for index in range(len(insns))]


def _function(insns):
    return Function(name="f", insns=insns)


# -- explicit hostile cases --------------------------------------------------


def _code(op):
    return OP_TABLE[op].code


def _decode_error(data, start=0):
    with pytest.raises(ProtocolError) as excinfo:
        protocol.decode_instruction_slice(data, start)
    return excinfo.value


class TestRejections:
    def test_unknown_opcode(self):
        error = _decode_error(bytes([1, 200]))
        assert "unknown opcode" in str(error)
        assert error.offset == 1

    def test_register_32(self):
        error = _decode_error(bytes([1, _code(Op.MOV), 1, NUM_REGISTERS]))
        assert "register" in str(error)
        assert error.offset == 1
        # the oracle rejects it too (through the constructor)
        assert_same_verdict(bytes([1, _code(Op.MOV), 1, NUM_REGISTERS]), 0)

    def test_imm_bits_on_op_without_imm(self):
        # BEQZ has a target but no imm: mode imm tag 1, target tag 1
        data = bytes([1, _code(Op.BEQZ), 0b0101, 3, 7, 2])
        error = _decode_error(data)
        assert error.offset == 2
        assert_same_verdict(data, 0)

    def test_target_bits_on_op_without_target_are_ignored(self):
        # ADDI has an imm but no target: target tag 3 is ignored
        data = bytes([1, _code(Op.ADDI), 0b1101, 1, 2, 0xFF])
        (insn,) = protocol.decode_instruction_slice(data, 0)
        assert insn == Instruction(op=Op.ADDI, rd=1, rs1=2, imm=-1)
        assert_same_verdict(data, 0)

    def test_high_mode_bits_are_ignored(self):
        data = bytes([1, _code(Op.LI), 0xF1, 4, 9])
        (insn,) = protocol.decode_instruction_slice(data, 0)
        assert insn == Instruction(op=Op.LI, rd=4, imm=9)
        assert_same_verdict(data, 0)

    def test_imm_size_zero_reads_as_zero(self):
        data = bytes([1, _code(Op.LI), 0, 4])
        (insn,) = protocol.decode_instruction_slice(data, 0)
        assert insn == Instruction(op=Op.LI, rd=4, imm=0)
        assert_same_verdict(data, 0)

    @pytest.mark.parametrize("op", [Op.BEQZ, Op.JMP, Op.CALL])
    def test_target_size_zero_is_rejected(self, op):
        # The encoder never writes a target size of 0, and the oracle
        # rejects it (with a bare ValueError); the codec says so typed.
        meta = OP_TABLE[op]
        data = bytes([1, meta.code, 0] + [3] * (meta.uses_rs1 + meta.uses_rs2))
        error = _decode_error(data)
        assert error.offset == 2
        assert_same_verdict(data, 0)

    def test_trailing_bytes(self):
        data = protocol.encode_instruction_slice([Instruction(op=Op.RET)], 0) + b"\0"
        error = _decode_error(data)
        assert "trailing" in str(error)
        assert error.offset == len(data) - 1

    def test_truncation_mid_imm(self):
        blob = protocol.encode_instruction_slice(
            [Instruction(op=Op.LI, rd=3, imm=1 << 20)], 0
        )
        for cut in range(1, len(blob)):
            error = _decode_error(blob[:cut])
            assert error.offset is not None
            assert_same_verdict(blob[:cut], 0)

    def test_truncated_count(self):
        error = _decode_error(b"\x80")
        assert error.offset == 1

    def test_empty(self):
        _decode_error(b"")

    def test_count_beyond_the_body(self):
        # The decoder stops at the first missing opcode.
        error = _decode_error(bytes([0xFF, 0xFF, 0xFF, 0x7F, _code(Op.RET)]))
        assert error.offset == 5

    def test_ok_bodies_surface_protocol_errors(self):
        bad = bytes([1, 200])
        body = ByteWriter()
        body.write_uvarint(0)
        body.write_uvarint(1)
        body.write_bytes(b"f")
        body.write_uvarint(len(bad))
        body.write_bytes(bad)
        block = ByteWriter()
        for value in (0, 4, 10, len(bad)):
            block.write_uvarint(value)
        block.write_bytes(bad)
        for parse, data in (
            (protocol.parse_ok_function, body.getvalue()),
            (protocol.parse_ok_block, block.getvalue()),
        ):
            with pytest.raises(ProtocolError):
                parse(data)
            # a body cut inside its envelope is a ProtocolError too
            with pytest.raises(ProtocolError):
                parse(data[:3])


class TestCodecPaths:
    """Outside the wire, rejections stay ``CorruptContainer``."""

    def test_decode_function_rejects_typed(self):
        with pytest.raises(CorruptContainer):
            decode_function(ByteReader(bytes([1, 200])), "f")
        with pytest.raises(CorruptContainer):
            decode_function(ByteReader(bytes([1, _code(Op.MOV), 1, 40])), "f")

    def test_decode_instruction_advances_the_reader(self):
        insns = [Instruction(op=Op.LI, rd=1, imm=300), Instruction(op=Op.RET)]
        blob = encode_function(_function(insns))
        reader = ByteReader(blob)
        assert reader.read_uvarint() == 2
        assert decode_instruction(reader, 0) == insns[0]
        assert decode_instruction(reader, 1) == insns[1]
        assert reader.at_end()


# -- the corpus: byte-identical encoding, differential mutation sweep -------


@pytest.fixture(scope="module")
def corpus_functions():
    return [fn for _, program in corpus(0.05) for fn in program.functions]


def test_corpus_encodes_byte_identically(corpus_functions):
    for function in corpus_functions:
        blob = protocol.encode_instruction_slice(function.insns, 0)
        assert blob == oracle_encode_slice(function.insns, 0), function.name
        assert protocol.decode_instruction_slice(blob, 0) == function.insns
        body = protocol.build_ok_function(3, function.name, function.insns)
        assert protocol.parse_ok_function(body).insns == function.insns


def test_corpus_block_slice_at_nonzero_start(corpus_functions):
    function = max(corpus_functions, key=lambda fn: len(fn.insns))
    start = len(function.insns) // 3
    insns = function.insns[start : start + 64]
    assert any(insn.is_branch for insn in insns)
    body = protocol.build_ok_block(7, start, len(function.insns), insns)
    findex, got_start, total, restored = protocol.parse_ok_block(body)
    assert (findex, got_start, total) == (7, start, len(function.insns))
    assert restored == insns
    blob = protocol.encode_instruction_slice(insns, start)
    assert blob == oracle_encode_slice(insns, start)


def test_corpus_single_byte_mutations(corpus_functions):
    rng = random.Random(12)
    bodies = [
        protocol.encode_instruction_slice(fn.insns, 0)
        for fn in corpus_functions
        if len(fn.insns) <= 400
    ]
    for _ in range(2000):
        data = bytearray(rng.choice(bodies))
        data[rng.randrange(len(data))] = rng.randrange(256)
        assert_same_verdict(bytes(data), 0)
