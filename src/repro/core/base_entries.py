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

from itertools import groupby
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from ..errors import CorruptContainer
from ..isa import Instruction, info
from ..isa.instruction import SLOT_SETTERS, TARGET_SIZES
from ..isa.opcodes import NUM_REGISTERS, OP_BY_CODE
from ..lz import delta as delta_codec
from ..lz import lz77
from ..lz.varint import ByteReader, ByteWriter
from .dictionary import BaseEntry, Row

#: codecs accepted by encode/decode: "lz" and "delta" are the paper's two
#: variants; "delta+lz" is this reproduction's extension combining them
#: (delta-code the sorted field, then LZ the concatenated groups).
CODECS = ("lz", "delta", "delta+lz")


def base_row(entry: BaseEntry) -> Row:
    """The row of a base entry: its fields as the compressor interns them
    (see :data:`repro.core.dictionary.Row`)."""
    insn = entry.instruction
    row = (info(insn.op).code, insn.imm, entry.target_size, insn.rd,
           insn.rs1, insn.rs2)
    return row if entry.stored_target is None else row + (entry.stored_target,)


def order_base_entries(entries: List[BaseEntry]) -> List[BaseEntry]:
    """Canonical order — the index-space order: by group (opcode), then
    largest field first (imm, target size, registers, stored target).

    Rows sort in exactly this order: within one opcode the same fields
    are ``None``, so comparisons only ever meet two ints or two ``None``s.
    """
    return sorted(entries, key=base_row)


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


#: slot setters of :class:`BaseEntry`, in field order (it has no checks)
_ENTRY_SETTERS = tuple(BaseEntry.__dict__[name].__set__
                       for name in ("key", "instruction", "target_size",
                                    "stored_target"))


def _raise_first_bad_entry(op, regs: Tuple[List[Optional[int]], ...],
                           sizes: List[Optional[int]]) -> None:
    """Report the first entry of a group that failed a column check, with
    the message the validating constructor and ``match_key`` give."""
    for position, size in enumerate(sizes):
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


def _decode_groups(data: bytes, use_delta: bool) -> List[BaseEntry]:
    """Rebuild base entries a group at a time, column by column.

    Each constructor check runs once per group on the whole column: the
    opcode fixes which fields are present, a register column is in range
    when its maximum is, and a target-size column when its set of values
    is a subset of ``TARGET_SIZES``.  Instructions and entries are then
    built with their slot setters, keys laid out as
    :meth:`Instruction.match_key` does.
    """
    reader = ByteReader(data)
    group_count = reader.read_uvarint()
    if group_count > len(OP_BY_CODE):
        raise CorruptContainer(f"corrupt base-entry blob: {group_count} groups")
    entries: List[BaseEntry] = []
    append = entries.append
    new = object.__new__
    set_op, set_rd, set_rs1, set_rs2, set_imm, set_target = SLOT_SETTERS
    set_key, set_instruction, set_size, set_stored = _ENTRY_SETTERS
    for _ in range(group_count):
        code = reader.read_u8()
        meta = OP_BY_CODE.get(code)
        if meta is None:
            raise CorruptContainer(f"corrupt base-entry blob: unknown opcode {code}")
        count = reader.read_uvarint()
        if count > len(data):
            raise CorruptContainer(f"corrupt base-entry blob: group of {count} entries")
        op = meta.op
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
        target = tag = None
        if meta.uses_target:
            sizes = reader.read_u8_run(count)
            if reader.read_u8():
                stored_targets = reader.read_svarint_run(count)
            target, tag = 0, "sz"
        regs = tuple(reader.read_u8_run(count) if used else absent
                     for used in (meta.uses_rd, meta.uses_rs1, meta.uses_rs2))
        if (any(max(column, default=0) >= NUM_REGISTERS
                for column in regs if column is not absent)
                or sizes is not absent
                and not set(sizes).issubset(TARGET_SIZES)):
            _raise_first_bad_entry(op, regs, sizes)
        for rd, rs1, rs2, imm, size, stored in zip(*regs, imms, sizes,
                                                  stored_targets):
            insn = new(Instruction)
            set_op(insn, op)
            set_rd(insn, rd)
            set_rs1(insn, rs1)
            set_rs2(insn, rs2)
            set_imm(insn, imm)
            set_target(insn, target)
            key = (op, rd, rs1, rs2, imm, tag, size)
            if stored is not None:
                key += (stored,)
            entry = new(BaseEntry)
            set_key(entry, key)
            set_instruction(entry, insn)
            set_size(entry, size)
            set_stored(entry, stored)
            append(entry)
    return entries


def encode_base_entries(rows: Sequence[Row], codec: str = "lz") -> bytes:
    """Compress the rows of canonically ordered base entries.

    ``rows`` must be in canonical order: sorted rows, or the
    :func:`base_row` of each of :func:`order_base_entries`' output.  The
    blob layout is ``u8 codec | payload``.
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


def decode_base_entries(blob: bytes) -> List[BaseEntry]:
    """Inverse of :func:`encode_base_entries`; order defines indices."""
    if not blob:
        raise CorruptContainer("empty base-entry blob")
    codec_tag = blob[0]
    if codec_tag >= len(CODECS):
        raise CorruptContainer(f"unknown codec tag {codec_tag}")
    payload = blob[1:]
    codec = CODECS[codec_tag]
    if codec == "lz":
        return _decode_groups(lz77.decompress(payload), use_delta=False)
    if codec == "delta":
        return _decode_groups(payload, use_delta=True)
    return _decode_groups(lz77.decompress(payload), use_delta=True)
