"""Binary encoding of virtual-machine programs.

This is the *uncompressed* VM bytecode format: the form a program would
ship in without SSD.  It is a conventional variable-length encoding — one
opcode byte, one byte per register operand, size-tagged immediates and
pc-relative targets — so that the compression ratios we report are measured
against a credible dense baseline rather than a padded straw man.

Layout per instruction::

    opcode u8
    [mode u8]              only if the opcode has an imm or target field:
                           bits 0-1 encode imm size (0/1/2/4 -> tag 0..3),
                           bits 2-3 encode target size likewise
    registers              one u8 per used register operand (rd, rs1, rs2)
    imm                    little-endian signed, 1/2/4 bytes per mode
    target                 branches/jumps: signed pc-relative displacement
                           in instructions, from the following instruction;
                           calls: unsigned function index

Programs serialize as a varint function count, then per function a
varint instruction count and the instruction bytes.

Both directions are table-driven: one plan per opcode byte, so each
instruction costs one table lookup.  The decoder builds instructions
without their constructor and applies its checks itself; malformed bytes
raise :class:`repro.errors.CorruptContainer` with the byte offset.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..errors import CorruptContainer, TruncatedStream
from ..lz.varint import ByteReader, ByteWriter, encode_uvarint
from .instruction import (SLOT_SETTERS, Instruction, immediate_size_class,
                          target_size_class)
from .opcodes import NUM_REGISTERS, OP_BY_CODE, Op, info
from .program import Function, Program

#: byte size of each 2-bit size tag in the mode byte
_TAG_SIZES = (0, 1, 2, 4)
#: low-byte mask per field size
_MASKS = {size: (1 << (8 * size)) - 1 for size in _TAG_SIZES}

_Sizes = Optional[Tuple[int, int]]

assert NUM_REGISTERS & (NUM_REGISTERS - 1) == 0, "the decoder ORs registers"


@lru_cache(maxsize=None)
def _mode_table(uses_imm: bool, uses_target: bool) -> Tuple[_Sizes, ...]:
    """``(imm_size, target_size)`` per mode byte; ``None`` for an imm size
    without an imm field or target size 0 with a target field.  Bits 4-7,
    and target bits without a target field, are ignored."""
    table: List[_Sizes] = []
    for mode in range(256):
        imm_size = _TAG_SIZES[mode & 0x3]
        tgt_size = _TAG_SIZES[(mode >> 2) & 0x3] if uses_target else 0
        valid = (uses_imm or not imm_size) and (tgt_size or not uses_target)
        table.append((imm_size, tgt_size) if valid else None)
    return tuple(table)


class _Plan(NamedTuple):
    """What one opcode carries on the wire."""

    op: Op
    mode: Optional[Tuple[_Sizes, ...]]  # None: the opcode has no mode byte
    registers: int  # register operand bytes
    uses_rd: bool
    uses_rs1: bool
    uses_rs2: bool
    uses_imm: bool
    uses_target: bool
    is_branch: bool


def _plan(code: int) -> Optional[_Plan]:
    meta = OP_BY_CODE.get(code)
    if meta is None:
        return None
    mode = (_mode_table(meta.uses_imm, meta.uses_target)
            if meta.uses_imm or meta.uses_target else None)
    return _Plan(meta.op, mode, meta.uses_rd + meta.uses_rs1 + meta.uses_rs2,
                 meta.uses_rd, meta.uses_rs1, meta.uses_rs2, meta.uses_imm,
                 meta.uses_target, meta.is_branch)


#: one plan per opcode byte; ``None`` for bytes that name no opcode
_PLANS: List[Optional[_Plan]] = [_plan(code) for code in range(256)]

def decode_instructions(data: bytes, pos: int, count: int,
                        start: int) -> Tuple[List[Instruction], int]:
    """Decode ``count`` instructions from ``data[pos:]``, the first at
    instruction index ``start``.  Returns ``(instructions, next_pos)``."""
    size = len(data)
    from_bytes = int.from_bytes
    new = object.__new__
    set_op, set_rd, set_rs1, set_rs2, set_imm, set_target = SLOT_SETTERS
    plans = _PLANS
    insns: List[Instruction] = []
    append = insns.append
    for index in range(start, start + count):
        if pos >= size:
            raise TruncatedStream(
                f"instruction {index}: input ends before its opcode", offset=pos)
        plan = plans[data[pos]]
        if plan is None:
            raise CorruptContainer(
                f"instruction {index}: unknown opcode byte {data[pos]}", offset=pos)
        (op, mode, registers, uses_rd, uses_rs1, uses_rs2, uses_imm,
         uses_target, is_branch) = plan
        p = pos + 1
        imm_size = tgt_size = 0
        if mode is not None:
            # a missing mode byte fails the length check below
            sizes = mode[data[p]] if p < size else (0, 0)
            if sizes is None:
                raise CorruptContainer(f"instruction {index}: mode byte "
                                       f"{data[p]:#04x} does not fit {op.value}",
                                       offset=p)
            imm_size, tgt_size = sizes
            p += 1
        end = p + registers + imm_size + tgt_size
        if end > size:
            raise TruncatedStream(f"instruction {index}: needs {end - pos} "
                                  f"bytes, {size - pos} remain", offset=pos)
        rd = data[p] if uses_rd else None
        p += uses_rd
        rs1 = data[p] if uses_rs1 else None
        p += uses_rs1
        rs2 = data[p] if uses_rs2 else None
        p += uses_rs2
        # NUM_REGISTERS is a power of two: the OR reaches it iff one does
        if ((rd or 0) | (rs1 or 0) | (rs2 or 0)) >= NUM_REGISTERS:
            raise CorruptContainer(
                f"instruction {index}: {op.value} register out of range", offset=pos)
        insn = new(Instruction)
        set_op(insn, op)
        set_rd(insn, rd)
        set_rs1(insn, rs1)
        set_rs2(insn, rs2)
        if uses_imm:  # imm size 0 reads as imm 0
            set_imm(insn, (data[p] ^ 0x80) - 0x80 if imm_size == 1 else
                    from_bytes(data[p:p + imm_size], "little", signed=True))
            p += imm_size
        else:
            set_imm(insn, None)
        if is_branch:
            set_target(insn, index + 1 + (
                (data[p] ^ 0x80) - 0x80 if tgt_size == 1 else
                from_bytes(data[p:end], "little", signed=True)))
        elif uses_target:
            set_target(insn, from_bytes(data[p:end], "little"))
        else:
            set_target(insn, None)
        append(insn)
        pos = end
    return insns, pos


def _call_target_size(findex: int) -> int:
    return 1 if findex < (1 << 7) else 2 if findex < (1 << 15) else 4


def encode_instructions(insns: Sequence[Instruction], start: int) -> bytes:
    """Encode ``insns``, the first at instruction index ``start``."""
    out = bytearray()
    for index, insn in enumerate(insns, start):
        code = info(insn.op).code
        (_, mode, _, uses_rd, uses_rs1, uses_rs2, uses_imm, uses_target,
         is_branch) = _PLANS[code]
        out.append(code)
        imm_size = immediate_size_class(insn.imm) if uses_imm else 0
        tgt_size = 0
        if is_branch:
            target = insn.target - (index + 1)
            tgt_size = target_size_class(target)
        elif uses_target:
            target = insn.target
            tgt_size = _call_target_size(target)
        if mode is not None:
            # a size's tag is its bit length: 0, 1, 2, 4 -> 0, 1, 2, 3
            out.append(imm_size.bit_length() | (tgt_size.bit_length() << 2))
        if uses_rd:
            out.append(insn.rd)
        if uses_rs1:
            out.append(insn.rs1)
        if uses_rs2:
            out.append(insn.rs2)
        if imm_size:
            out += (insn.imm & _MASKS[imm_size]).to_bytes(imm_size, "little")
        if tgt_size:
            out += (target & _MASKS[tgt_size]).to_bytes(tgt_size, "little")
    return bytes(out)


def encode_instruction(insn: Instruction, index: int, writer: ByteWriter) -> None:
    """Append the encoding of ``insn`` (at instruction index ``index``)."""
    writer.write_bytes(encode_instructions((insn,), index))


def instruction_size(insn: Instruction, index: int) -> int:
    """Encoded size in bytes of ``insn`` at instruction index ``index``."""
    plan = _PLANS[info(insn.op).code]
    size = 1 + (plan.mode is not None) + plan.registers
    if plan.uses_imm:
        size += immediate_size_class(insn.imm)
    if plan.is_branch:
        size += target_size_class(insn.target - (index + 1))
    elif plan.uses_target:
        size += _call_target_size(insn.target)
    return size


def decode_instruction(reader: ByteReader, index: int) -> Instruction:
    """Decode one instruction (at instruction index ``index``)."""
    return reader.read_with(decode_instructions, 1, index)[0]


def encode_function(function: Function) -> bytes:
    return (encode_uvarint(len(function.insns))
            + encode_instructions(function.insns, 0))


def decode_function(reader: ByteReader, name: str) -> Function:
    count = reader.read_uvarint()
    return Function(name=name,
                    insns=reader.read_with(decode_instructions, count, 0))


def encode_program(program: Program) -> bytes:
    """Serialize a whole program to VM bytecode."""
    writer = ByteWriter()
    name_bytes = program.name.encode("utf-8")
    writer.write_uvarint(len(name_bytes))
    writer.write_bytes(name_bytes)
    writer.write_uvarint(program.entry)
    writer.write_uvarint(len(program.functions))
    for function in program.functions:
        fn_name = function.name.encode("utf-8")
        writer.write_uvarint(len(fn_name))
        writer.write_bytes(fn_name)
        writer.write_bytes(encode_function(function))
    return writer.getvalue()


def decode_program(data: bytes) -> Program:
    """Inverse of :func:`encode_program`."""
    reader = ByteReader(data)
    name = reader.read_bytes(reader.read_uvarint()).decode("utf-8")
    entry = reader.read_uvarint()
    count = reader.read_uvarint()
    functions: List[Function] = []
    for _ in range(count):
        fn_name = reader.read_bytes(reader.read_uvarint()).decode("utf-8")
        functions.append(decode_function(reader, fn_name))
    return Program(name=name, functions=functions, entry=entry)


def program_size(program: Program) -> int:
    """Total VM bytecode size in bytes (sum over instruction encodings)."""
    return sum(
        instruction_size(insn, iindex)
        for _, iindex, insn in program.iter_instructions()
    )


def function_byte_offsets(function: Function) -> Tuple[List[int], int]:
    """Byte offset of each instruction in the function's encoding.

    Returns ``(offsets, total_size)``.
    """
    offsets: List[int] = []
    position = 0
    for index, insn in enumerate(function.insns):
        offsets.append(position)
        position += instruction_size(insn, index)
    return offsets, position
