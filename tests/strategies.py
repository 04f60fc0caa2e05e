"""Shared hypothesis strategies: random valid instructions, functions, programs.

These generate *structurally valid* programs (validate_program passes) so
that every downstream property test — encoding round-trips, compression
round-trips, JIT translation equivalence — can draw from the same source.
``item_layout`` and ``item_layouts`` give the item codec a dictionary
without compressing a program.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.layout import SegmentLayout
from repro.isa import Function, Instruction, Kind, NUM_REGISTERS, Op, Program, info
from repro.kernels import KIND_BRANCH, KIND_CALL, KIND_PLAIN

_REG = st.integers(min_value=0, max_value=NUM_REGISTERS - 1)
_IMM = st.one_of(
    st.integers(min_value=-128, max_value=127),
    st.integers(min_value=-(2**15), max_value=2**15 - 1),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
)

_NON_CONTROL_OPS = [
    op for op in Op
    if info(op).kind in (Kind.ALU_RR, Kind.ALU_RI, Kind.UNARY, Kind.CONST,
                         Kind.LOAD, Kind.STORE)
    or op is Op.NOP
]
_BRANCH_OPS = [op for op in Op if info(op).kind is Kind.BRANCH]


@st.composite
def non_control_instruction(draw) -> Instruction:
    """A random instruction with no target field."""
    op = draw(st.sampled_from(_NON_CONTROL_OPS))
    meta = info(op)
    return Instruction(
        op=op,
        rd=draw(_REG) if meta.uses_rd else None,
        rs1=draw(_REG) if meta.uses_rs1 else None,
        rs2=draw(_REG) if meta.uses_rs2 else None,
        imm=draw(_IMM) if meta.uses_imm else None,
    )


@st.composite
def branch_instruction(draw, function_length: int) -> Instruction:
    """A random conditional branch with an in-range target."""
    op = draw(st.sampled_from(_BRANCH_OPS))
    meta = info(op)
    return Instruction(
        op=op,
        rs1=draw(_REG),
        rs2=draw(_REG) if meta.uses_rs2 else None,
        target=draw(st.integers(min_value=0, max_value=function_length - 1)),
    )


@st.composite
def function_body(draw, name: str, function_count: int,
                  min_size: int = 1, max_size: int = 30) -> Function:
    """A random function: straight-line/branch/call mix ending in ``ret``."""
    body_len = draw(st.integers(min_value=min_size, max_value=max_size))
    total = body_len + 1  # plus the trailing ret
    insns = []
    for _ in range(body_len):
        choice = draw(st.integers(min_value=0, max_value=9))
        if choice == 0:
            insns.append(draw(branch_instruction(function_length=total)))
        elif choice == 1 and function_count > 0:
            insns.append(Instruction(
                op=Op.CALL,
                target=draw(st.integers(min_value=0, max_value=function_count - 1)),
            ))
        else:
            insns.append(draw(non_control_instruction()))
    insns.append(Instruction(op=Op.RET))
    return Function(name=name, insns=insns)


@st.composite
def programs(draw, min_functions: int = 1, max_functions: int = 5,
             max_function_size: int = 30) -> Program:
    """A random structurally valid program."""
    count = draw(st.integers(min_value=min_functions, max_value=max_functions))
    functions = [
        draw(function_body(name=f"f{i}", function_count=count,
                           max_size=max_function_size))
        for i in range(count)
    ]
    return Program(name="prop", functions=functions, entry=0)


def item_layout(entries, index_of=None) -> SegmentLayout:
    """A layout holding only the item codec's columns: ``entries[i]`` is
    dictionary index ``i``'s ``(length, kind, target width)``."""
    lengths, kinds, widths = ([list(column) for column in zip(*entries)]
                              or ([], [], []))
    return SegmentLayout(addr_rows=[], lengths=lengths, kinds=kinds,
                         widths=widths,
                         paths=[(index,) for index in range(len(entries))],
                         index_of=dict(index_of or {}))


@st.composite
def item_layouts(draw) -> SegmentLayout:
    """A random item-codec dictionary of 1 to 12 indices."""
    count = draw(st.integers(min_value=1, max_value=12))
    entries = []
    for _ in range(count):
        kind = draw(st.sampled_from([KIND_PLAIN, KIND_PLAIN, KIND_BRANCH,
                                     KIND_CALL]))
        length = draw(st.integers(min_value=1, max_value=5))
        width = 0 if kind == KIND_PLAIN else draw(st.sampled_from([1, 2, 4]))
        entries.append((length, kind, width))
    return item_layout(entries)
