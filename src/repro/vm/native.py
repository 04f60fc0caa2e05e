"""Native (x86-flavoured) backend.

The paper measures everything relative to "optimized x86" code, and SSD's
phase-one dictionary decompression converts VM instructions to *native*
instructions so that phase two is a block copy (section 2.2.4).  This
module is the stand-in for both:

* :func:`lower_instruction` converts one VM instruction into a
  :class:`NativeChunk` — concrete bytes with a realistic x86-like length,
  a cycle cost for the time model, and (for control transfers) a
  *target hole*: the trailing bytes where the pc-relative displacement or
  call address lands.  The hole is exactly what Algorithm 3 overwrites
  when copying dictionary entries.
* :func:`lower_function` lowers a whole function, optionally applying the
  peephole fusion plan (``optimize=True``) — fused code is the paper's
  "optimized x86" baseline; unfused code is what SSD's per-instruction JIT
  translation produces.

Byte lengths follow the x86 pattern: one or two opcode bytes, a ModRM-like
operand byte, immediates/displacements of 1/2/4 bytes, an extra ``mov``
when a two-operand machine must implement a three-operand VM op.  Cycle
costs are coarse (ALU 1, load 3, store 2, branch 2, call 4, div 20) — the
relative shape, not the absolute values, is what the experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from ..isa import Function, Instruction, Kind, Op, info
from ..isa.instruction import immediate_size_class
from .peephole import FusionPlan, plan_function, rewritten_consumer

#: Native call displacements are always rel32 (like x86 ``call rel32``).
CALL_HOLE_SIZE = 4


class NativeChunk(NamedTuple):
    """Native code for one VM instruction (or one fused pair).

    ``data`` contains the instruction bytes with any target hole zeroed.
    ``hole_size`` > 0 means the final ``hole_size`` bytes of ``data`` are a
    pc-relative displacement (branch/jump) or call target to be patched —
    the paper's "negative offset from the end" tag points here.
    """

    data: bytes
    cycles: float
    hole_size: int = 0
    is_branch: bool = False
    is_call: bool = False

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def hole_offset(self) -> int:
        """Offset of the hole from the start of ``data`` (hole at the end)."""
        return len(self.data) - self.hole_size


def _fill(*parts: int) -> bytearray:
    """Deterministic filler bytes standing in for real machine code."""
    out = bytearray()
    for part in parts:
        out.append(part & 0xFF)
    return out


def _imm_bytes(value: int) -> bytearray:
    size = immediate_size_class(value)
    if size == 2:
        size = 4  # x86 immediates are imm8 or imm32
    unsigned = value & ((1 << (8 * size)) - 1)
    return bytearray(unsigned.to_bytes(size, "little"))


#: keyed by opcode code (an int hashes faster than an enum member)
_ALU_CYCLES = {info(op).code: cycles for op, cycles in (
    (Op.MUL, 3.0), (Op.MULI, 3.0), (Op.DIVS, 20.0), (Op.REMS, 20.0))}


def lower_instruction(insn: Instruction, target_size: Optional[int] = None) -> NativeChunk:
    """Lower one VM instruction to native code.

    ``target_size`` (1, 2 or 4) is required for branches/jumps and gives
    the pc-relative hole size; calls always get a 4-byte hole.
    """
    meta = info(insn.op)
    kind = meta.kind
    op = insn.op

    if kind is Kind.ALU_RR:
        cycles = _ALU_CYCLES.get(meta.code, 1.0)
        if op in (Op.SLT, Op.SLTU):
            # cmp r,r ; setcc r8 ; movzx — the expensive unfused compare.
            data = _fill(0x39, 0xC0 | insn.rs1, 0x0F, 0x90 | insn.rd, 0xC0)
            return NativeChunk(bytes(data), cycles=3.0)
        if insn.rd == insn.rs1 or insn.rd == insn.rs2 and op in (Op.ADD, Op.MUL,
                                                                 Op.AND, Op.OR, Op.XOR):
            data = _fill(0x01 + meta.code, 0xC0 | (insn.rd << 3) >> 3)
            return NativeChunk(bytes(data), cycles=cycles)
        # mov rd, rs1 ; op rd, rs2
        data = _fill(0x89, 0xC0 | insn.rd, 0x01 + meta.code, 0xC0 | insn.rs2)
        return NativeChunk(bytes(data), cycles=cycles + 1.0)

    if kind is Kind.ALU_RI:
        cycles = _ALU_CYCLES.get(meta.code, 1.0)
        if op is Op.SLTI:
            data = _fill(0x83, 0xF8 | insn.rs1) + _imm_bytes(insn.imm)
            data += _fill(0x0F, 0x90 | insn.rd, 0xC0)
            return NativeChunk(bytes(data), cycles=3.0)
        head = _fill(0x83, 0xC0 | insn.rd) + _imm_bytes(insn.imm)
        if insn.rd != insn.rs1:
            head = _fill(0x89, 0xC0 | insn.rd) + head
            cycles += 1.0
        return NativeChunk(bytes(head), cycles=cycles)

    if kind is Kind.UNARY:
        if op is Op.MOV:
            return NativeChunk(bytes(_fill(0x89, 0xC0 | insn.rd)), cycles=1.0)
        data = _fill(0xF7, 0xD8 | insn.rd)
        if insn.rd != insn.rs1:
            data = _fill(0x89, 0xC0 | insn.rd) + data
            return NativeChunk(bytes(data), cycles=2.0)
        return NativeChunk(bytes(data), cycles=1.0)

    if kind is Kind.CONST:
        data = _fill(0xB8 | insn.rd) + _imm_bytes(insn.imm)
        return NativeChunk(bytes(data), cycles=1.0)

    if kind is Kind.LOAD:
        disp = _imm_bytes(insn.imm) if insn.imm else bytearray(b"\x00")
        data = _fill(0x8B, (insn.rd << 3) | insn.rs1 & 0x7, 0x24) + disp
        return NativeChunk(bytes(data), cycles=3.0)

    if kind is Kind.STORE:
        disp = _imm_bytes(insn.imm) if insn.imm else bytearray(b"\x00")
        data = _fill(0x89, (insn.rs2 << 3) | insn.rs1 & 0x7, 0x24) + disp
        return NativeChunk(bytes(data), cycles=2.0)

    if kind is Kind.BRANCH:
        if target_size not in (1, 2, 4):
            raise ValueError(f"{op.value}: branch lowering needs target_size, got {target_size!r}")
        # cmp/test (2 bytes) + jcc opcode (1-2 bytes) + displacement hole.
        head = _fill(0x39 if meta.uses_rs2 else 0x85, 0xC0 | insn.rs1)
        jcc = _fill(0x70 | meta.code & 0xF) if target_size == 1 else _fill(0x0F, 0x80)
        hole = bytearray(target_size)
        return NativeChunk(bytes(head + jcc + hole), cycles=2.0,
                           hole_size=target_size, is_branch=True)

    if kind is Kind.JUMP:
        if target_size not in (1, 2, 4):
            raise ValueError(f"{op.value}: jump lowering needs target_size, got {target_size!r}")
        head = _fill(0xEB if target_size == 1 else 0xE9)
        return NativeChunk(bytes(head + bytearray(target_size)), cycles=1.0,
                           hole_size=target_size, is_branch=True)

    if kind is Kind.CALL:
        return NativeChunk(bytes(_fill(0xE8) + bytearray(CALL_HOLE_SIZE)), cycles=4.0,
                           hole_size=CALL_HOLE_SIZE, is_call=True)

    if kind is Kind.CALL_INDIRECT:
        return NativeChunk(bytes(_fill(0xFF, 0xD0 | insn.rs1)), cycles=5.0)

    if kind is Kind.JUMP_INDIRECT:
        return NativeChunk(bytes(_fill(0xFF, 0xE0 | insn.rs1)), cycles=4.0)

    if kind is Kind.RET:
        return NativeChunk(b"\xC3", cycles=3.0)

    if op is Op.NOP:
        return NativeChunk(b"\x90", cycles=1.0)
    if op is Op.HALT:
        return NativeChunk(b"\xF4\x90", cycles=1.0)
    if op is Op.TRAP:
        return NativeChunk(bytes(_fill(0xCD) + _imm_bytes(insn.imm)), cycles=30.0)

    raise ValueError(f"no native lowering for {op}")  # pragma: no cover


@dataclass
class LoweredFunction:
    """Native lowering of one function.

    ``chunks`` is parallel to the VM instruction list.  An instruction
    absorbed by a fusion gets a zero-length, zero-cost chunk; its consumer's
    chunk covers the pair.
    """

    name: str
    chunks: List[NativeChunk]

    @property
    def size(self) -> int:
        return sum(chunk.size for chunk in self.chunks)

    @property
    def cycles_per_insn(self) -> List[float]:
        return [chunk.cycles for chunk in self.chunks]

    def byte_offsets(self) -> List[int]:
        offsets = []
        position = 0
        for chunk in self.chunks:
            offsets.append(position)
            position += chunk.size
        return offsets


_EMPTY = NativeChunk(b"", cycles=0.0)


def lower_function(function: Function, optimize: bool = False,
                   plan: Optional[FusionPlan] = None) -> LoweredFunction:
    """Lower a function; with ``optimize=True`` apply peephole fusions."""
    sizes = function.target_sizes()
    chunks: List[NativeChunk] = []
    if optimize:
        plan = plan if plan is not None else plan_function(function)
        for index, insn in enumerate(function.insns):
            if index in plan.absorbed:
                chunks.append(_EMPTY)
                continue
            fusion = plan.by_consumer.get(index)
            if fusion is not None:
                merged = rewritten_consumer(function.insns[fusion.producer], insn,
                                            fusion.kind)
                target_size = sizes[index]
                if merged.is_branch and target_size is None:
                    # The consumer was a branch; reuse its target size.
                    target_size = 1
                chunks.append(lower_instruction(merged, target_size))
            else:
                chunks.append(lower_instruction(insn, sizes[index]))
    else:
        for index, insn in enumerate(function.insns):
            chunks.append(lower_instruction(insn, sizes[index]))
    return LoweredFunction(name=function.name, chunks=chunks)


def native_size(program, optimize: bool = True) -> int:
    """Total native code bytes for a program.

    With ``optimize=True`` this is the reproduction's "optimized x86 size"
    — the denominator of every ratio in Tables 5/6 and Figure 3.
    """
    return sum(lower_function(fn, optimize=optimize).size for fn in program.functions)


def function_native_sizes(program, optimize: bool = True) -> List[int]:
    """Per-function native sizes (drives the JIT buffer experiments)."""
    return [lower_function(fn, optimize=optimize).size for fn in program.functions]
