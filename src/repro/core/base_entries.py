"""Base-entry compression (paper section 2.2.1).

SSD sorts base entries by opcode into *instruction groups*, sorts each
group by its largest instruction field, and emits each field as a separate
stream — the split-stream step.  The paper tried two final codecs:

* ``delta`` — delta-code the sorted field (with escapes), others literal;
* ``lz``    — emit everything literally and LZ-compress the concatenated
  groups.  This was "simpler and yielded better compression" and is the
  default, as in the paper.

Crucially, the *serialization order defines the base-entry index space*:
the decompressor rebuilds entries in exactly this canonical order, so both
sides agree on every 16-bit index without transmitting them.
"""

from __future__ import annotations

from itertools import groupby, repeat
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from ..errors import CorruptContainer, LimitExceeded
from ..isa import Instruction
from ..isa.instruction import IMM_RANGE, SLOT_SETTERS, TARGET_SIZES
from ..isa.opcodes import NUM_REGISTERS, OP_BY_CODE
from ..lz import delta as delta_codec
from ..lz import lz77
from ..lz.varint import ByteReader, ByteWriter
from .container import DEFAULT_LIMITS, DecodeLimits
from .dictionary import Row

#: codecs accepted by encode/decode: "lz" and "delta" are the paper's two
#: variants; "delta+lz" is this reproduction's extension combining them
#: (delta-code the sorted field, then LZ the concatenated groups).
CODECS = ("lz", "delta", "delta+lz")


def _encode_groups(rows: Sequence[Row], use_delta: bool) -> bytes:
    writer = ByteWriter()
    groups = [list(group) for _, group in groupby(rows, key=itemgetter(0))]
    writer.write_uvarint(len(groups))
    for group in groups:
        meta = OP_BY_CODE[group[0][0]]
        writer.write_u8(meta.code)
        writer.write_uvarint(len(group))
        if meta.uses_imm:
            imms = [row[1] for row in group]
            if use_delta:
                blob = delta_codec.encode_deltas(imms)
                writer.write_uvarint(len(blob))
                writer.write_bytes(blob)
            else:
                writer.write_svarint_run(imms)
        if meta.uses_target:
            writer.write_bytes(bytes([row[2] or 0 for row in group]))
            # Absolute-targets ablation: targets live in the entry.
            has_targets = any(len(row) > 6 for row in group)
            writer.write_u8(1 if has_targets else 0)
            if has_targets:
                writer.write_svarint_run(row[6] if len(row) > 6 else 0
                                         for row in group)
        for column, used in ((3, meta.uses_rd), (4, meta.uses_rs1),
                             (5, meta.uses_rs2)):
            if used:
                writer.write_bytes(bytes([row[column] for row in group]))
    return writer.getvalue()


def _raise_first_bad_entry(op, imms: List[Optional[int]],
                           regs: Tuple[List[Optional[int]], ...],
                           sizes: List[Optional[int]]) -> None:
    """Report the first entry of a group that failed a column check."""
    for position, size in enumerate(sizes):
        imm = imms[position]
        if imm is not None and imm not in IMM_RANGE:
            raise CorruptContainer(f"{op.value}: immediate {imm} outside int32")
        for name, column in zip(("rd", "rs1", "rs2"), regs):
            value = column[position]
            if value is not None and not 0 <= value < NUM_REGISTERS:
                raise CorruptContainer(
                    f"{op.value}: register {name}={value} out of range")
        if size is not None and size not in TARGET_SIZES:
            raise CorruptContainer(
                f"{op.value}: branch match key needs a target size in "
                f"{TARGET_SIZES}, got {size or None!r}")
    raise AssertionError("column check failed but no entry does")


def _decode_groups(data: bytes, use_delta: bool, limit: int) -> List[Row]:
    """Rebuild the rows a group at a time, column by column.

    Each check runs once per group on the whole column: the opcode fixes
    which fields are present, a register column is in range when its
    maximum is, an immediate column when its minimum and maximum are in
    ``IMM_RANGE``, and a target-size column when its set of values is a
    subset of ``TARGET_SIZES``.  A group that would take the entry count
    past ``limit`` is refused before any of its columns is read.
    """
    reader = ByteReader(data)
    group_count = reader.read_uvarint()
    if group_count > len(OP_BY_CODE):
        raise CorruptContainer(f"corrupt base-entry blob: {group_count} groups")
    rows: List[Row] = []
    for _ in range(group_count):
        code = reader.read_u8()
        meta = OP_BY_CODE.get(code)
        if meta is None:
            raise CorruptContainer(f"corrupt base-entry blob: unknown opcode {code}")
        count = reader.read_uvarint()
        if len(rows) + count > limit:
            raise LimitExceeded(
                f"base-entry blob declares at least {len(rows) + count} "
                f"entries (limit {limit})")
        absent: List[Optional[int]] = [None] * count
        imms = absent
        if meta.uses_imm:
            if use_delta:
                imms = delta_codec.decode_deltas(
                    reader.read_bytes(reader.read_uvarint()))
                if len(imms) != count:
                    raise CorruptContainer(
                        f"corrupt base-entry blob: {len(imms)} immediates "
                        f"for a group of {count} entries")
            else:
                imms = reader.read_svarint_run(count)
        sizes = stored_targets = absent
        if meta.uses_target:
            sizes = reader.read_u8_run(count)
            if reader.read_u8():
                stored_targets = reader.read_svarint_run(count)
        regs = tuple(reader.read_u8_run(count) if used else absent
                     for used in (meta.uses_rd, meta.uses_rs1, meta.uses_rs2))
        if (any(max(column, default=0) >= NUM_REGISTERS
                for column in regs if column is not absent)
                or imms is not absent
                and (min(imms, default=0) not in IMM_RANGE
                     or max(imms, default=0) not in IMM_RANGE)
                or sizes is not absent
                and not set(sizes).issubset(TARGET_SIZES)):
            _raise_first_bad_entry(meta.op, imms, regs, sizes)
        columns = (repeat(code, count), imms, sizes, *regs)
        if stored_targets is not absent:
            columns += (stored_targets,)
        rows += zip(*columns)
    return rows


def row_instruction(row: Row) -> Instruction:
    """The canonical instruction of a decoded row.

    Its target is the stored target in the absolute-targets ablation,
    else 0 for an op that takes one (the real target travels in the
    item stream).  The row's columns were checked when it was decoded,
    so the instruction is built with its slot setters.
    """
    meta = OP_BY_CODE[row[0]]
    insn = object.__new__(Instruction)
    set_op, set_rd, set_rs1, set_rs2, set_imm, set_target = SLOT_SETTERS
    set_op(insn, meta.op)
    set_rd(insn, row[3])
    set_rs1(insn, row[4])
    set_rs2(insn, row[5])
    set_imm(insn, row[1])
    set_target(insn, (row[6] if len(row) > 6 else 0)
               if meta.uses_target else None)
    return insn


def encode_base_entries(rows: Sequence[Row], codec: str = "lz") -> bytes:
    """Compress canonically ordered base entries (rows).

    ``rows`` must be in canonical order, that is, sorted.  The blob
    layout is ``u8 codec | payload``.
    """
    if codec not in CODECS:
        raise ValueError(f"unknown codec {codec!r}; expected one of {CODECS}")
    writer = ByteWriter()
    writer.write_u8(CODECS.index(codec))
    if codec == "lz":
        writer.write_bytes(lz77.compress(_encode_groups(rows, use_delta=False)))
    elif codec == "delta":
        writer.write_bytes(_encode_groups(rows, use_delta=True))
    else:  # delta+lz
        writer.write_bytes(lz77.compress(_encode_groups(rows, use_delta=True)))
    return writer.getvalue()


def decode_base_entries(blob: bytes,
                        limits: DecodeLimits = DEFAULT_LIMITS) -> List[Row]:
    """Inverse of :func:`encode_base_entries`: the rows, whose order
    defines the indices.  More than ``limits.max_dict_entries`` rows, or
    an LZ payload expanding past ``limits.max_blob_output``, raise
    :class:`~repro.errors.LimitExceeded` before they are built."""
    if not blob:
        raise CorruptContainer("empty base-entry blob")
    codec_tag = blob[0]
    if codec_tag >= len(CODECS):
        raise CorruptContainer(f"unknown codec tag {codec_tag}")
    payload = blob[1:]
    codec = CODECS[codec_tag]
    if codec != "delta":
        payload = lz77.decompress(payload, limits.max_blob_output)
    return _decode_groups(payload, codec != "lz", limits.max_dict_entries)
