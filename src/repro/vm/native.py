"""Native (x86-flavoured) backend.

The paper measures everything relative to "optimized x86" code, and SSD's
phase-one dictionary decompression converts VM instructions to *native*
instructions so that phase two is a block copy (section 2.2.4).  This
module is the stand-in for both:

* :data:`LOWERINGS`, indexed by opcode code, is the one lowering
  definition: per opcode, an emitter turning ``(rd, rs1, rs2, imm,
  target_size)`` into concrete bytes with a realistic x86-like length,
  their cycle cost for the time model, and their *target hole*: the
  trailing bytes where a pc-relative displacement or call address
  lands, exactly what Algorithm 3 overwrites when copying dictionary
  entries.  Phase one (``repro.jit.instruction_table``) lowers base rows
  through it straight from their columns, and :func:`lower_instruction`
  one VM instruction into a :class:`NativeChunk`.
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
from typing import Callable, List, NamedTuple, Optional, Tuple

from ..isa import OP_BY_CODE, Function, Instruction, Kind, Op, info
from ..isa.instruction import TARGET_SIZES
from ..isa.opcodes import OpInfo
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


def _imm(value: int) -> bytes:
    """imm8 or imm32 (x86 has no imm16); ``OverflowError`` past int32."""
    return value.to_bytes(1 if -128 <= value < 128 else 4, "little", signed=True)


def _mov(rd: int) -> bytes:
    """``mov rd, rs1``: what a two-operand machine adds to a three-operand op."""
    return bytes((0x89, 0xC0 | rd))


class Lowering(NamedTuple):
    """How one opcode lowers to native code.

    ``emit(rd, rs1, rs2, imm, target_size)`` returns the bytes, any
    target hole zeroed at their end, and raises ``ValueError`` or
    ``OverflowError`` for fields no native encoding can hold.  ``cycles``
    is their cost, the second value when they open with :func:`_mov`.
    """

    emit: Callable[..., bytes]
    cycles: Tuple[float, float]
    is_branch: bool
    is_call: bool

    def hole_size(self, target_size: Optional[int]) -> int:
        """Width of the hole the bytes end with (0: none)."""
        return target_size if self.is_branch else CALL_HOLE_SIZE if self.is_call else 0


def _emitter(meta: OpInfo) -> Callable[..., bytes]:
    """The native encoding of ``meta.op``."""
    op, kind, code = meta.op, meta.kind, meta.code
    if op in (Op.SLT, Op.SLTU):
        def emit(rd, rs1, rs2, imm, target_size):
            # cmp r,r ; setcc r8 ; movzx — the expensive unfused compare.
            return bytes((0x39, 0xC0 | rs1, 0x0F, 0x90 | rd, 0xC0))
    elif kind is Kind.ALU_RR:
        commutative = op in (Op.ADD, Op.MUL, Op.AND, Op.OR, Op.XOR)

        def emit(rd, rs1, rs2, imm, target_size):
            if rd == rs1 or rd == rs2 and commutative:
                return bytes((0x01 + code, 0xC0 | rd))
            return _mov(rd) + bytes((0x01 + code, 0xC0 | rs2))
    elif op is Op.SLTI:
        def emit(rd, rs1, rs2, imm, target_size):
            return bytes((0x83, 0xF8 | rs1)) + _imm(imm) + bytes((0x0F, 0x90 | rd, 0xC0))
    elif kind is Kind.ALU_RI:
        def emit(rd, rs1, rs2, imm, target_size):
            data = bytes((0x83, 0xC0 | rd)) + _imm(imm)
            return data if rd == rs1 else _mov(rd) + data
    elif op is Op.MOV:
        def emit(rd, rs1, rs2, imm, target_size):
            return _mov(rd)
    elif kind is Kind.UNARY:
        def emit(rd, rs1, rs2, imm, target_size):
            data = bytes((0xF7, 0xD8 | rd))
            return data if rd == rs1 else _mov(rd) + data
    elif kind is Kind.CONST:
        def emit(rd, rs1, rs2, imm, target_size):
            return bytes((0xB8 | rd,)) + _imm(imm)
    elif kind is Kind.LOAD:
        def emit(rd, rs1, rs2, imm, target_size):
            return bytes((0x8B, rd << 3 | rs1 & 0x7, 0x24)) + _imm(imm)
    elif kind is Kind.STORE:
        def emit(rd, rs1, rs2, imm, target_size):
            return bytes((0x89, rs2 << 3 | rs1 & 0x7, 0x24)) + _imm(imm)
    elif meta.is_branch:
        # A branch is cmp/test (2 bytes) and a jcc (1-2 bytes), a jump
        # one jmp byte; then the displacement hole.
        what, branch = kind.value, kind is Kind.BRANCH
        test = 0x39 if meta.uses_rs2 else 0x85
        short, near = ((bytes((0x70 | code & 0xF,)), b"\x0F\x80") if branch
                       else (b"\xEB", b"\xE9"))
        forms = {size: (short if size == 1 else near) + bytes(size)
                 for size in TARGET_SIZES}

        def emit(rd, rs1, rs2, imm, target_size):
            form = forms.get(target_size)
            if form is None:
                raise ValueError(
                    f"{op.value}: {what} lowering needs target_size, got {target_size!r}")
            return bytes((test, 0xC0 | rs1)) + form if branch else form
    elif kind in (Kind.CALL_INDIRECT, Kind.JUMP_INDIRECT):
        modrm = 0xD0 if kind is Kind.CALL_INDIRECT else 0xE0

        def emit(rd, rs1, rs2, imm, target_size):
            return bytes((0xFF, modrm | rs1))
    elif op is Op.TRAP:
        def emit(rd, rs1, rs2, imm, target_size):
            return b"\xCD" + _imm(imm)
    else:
        data = {Op.CALL: b"\xE8" + bytes(CALL_HOLE_SIZE), Op.RET: b"\xC3",
                Op.NOP: b"\x90", Op.HALT: b"\xF4\x90"}[op]

        def emit(rd, rs1, rs2, imm, target_size):
            return data
    return emit


_KIND_CYCLES = {Kind.LOAD: 3.0, Kind.STORE: 2.0, Kind.BRANCH: 2.0, Kind.CALL: 4.0,
                Kind.CALL_INDIRECT: 5.0, Kind.JUMP_INDIRECT: 4.0, Kind.RET: 3.0}
_OP_CYCLES = {Op.MUL: 3.0, Op.MULI: 3.0, Op.DIVS: 20.0, Op.REMS: 20.0,
              Op.SLT: 3.0, Op.SLTU: 3.0, Op.SLTI: 3.0, Op.TRAP: 30.0}


def _lowering(meta: OpInfo) -> Lowering:
    cycles = _OP_CYCLES.get(meta.op, _KIND_CYCLES.get(meta.kind, 1.0))
    # Only a three-operand op opens with a mov, which costs one cycle.
    three_operand = (meta.kind in (Kind.ALU_RR, Kind.ALU_RI, Kind.UNARY)
                     and meta.op is not Op.MOV)
    return Lowering(_emitter(meta), (cycles, cycles + 1.0 if three_operand else cycles),
                    meta.is_branch, meta.is_call)


#: The one lowering definition, indexed by opcode code: the JIT lowers
#: a base row through it, :func:`lower_instruction` an instruction.
LOWERINGS: Tuple[Lowering, ...] = tuple(
    _lowering(OP_BY_CODE[code]) for code in range(len(OP_BY_CODE)))


def lower_instruction(insn: Instruction, target_size: Optional[int] = None) -> NativeChunk:
    """Lower one VM instruction to native code.

    ``target_size`` (1, 2 or 4) is required for branches/jumps and gives
    the pc-relative hole size; calls always get a 4-byte hole.
    """
    lowering = LOWERINGS[info(insn.op).code]
    data = lowering.emit(insn.rd, insn.rs1, insn.rs2, insn.imm, target_size)
    return NativeChunk(data, lowering.cycles[data[0] == 0x89],
                       lowering.hole_size(target_size),
                       lowering.is_branch, lowering.is_call)


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
