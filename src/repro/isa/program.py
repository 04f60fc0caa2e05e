"""Program and function containers.

A :class:`Program` is a list of :class:`Function` objects plus an entry
point.  Branch targets are instruction indices within their function, and
call targets are function indices — the same intra-function / inter-function
split the paper uses (intra-function targets travel as pc-relative offsets
in the SSD item stream; call targets go through relocation items).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .instruction import Instruction, target_size_class
from .opcodes import OP_TABLE, Op


@dataclass
class Function:
    """A named sequence of instructions."""

    name: str
    insns: List[Instruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.insns)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.insns)

    def target_sizes(self) -> List[Optional[int]]:
        """Encoded byte size of each instruction's pc-relative target.

        Returns a list parallel to ``insns``: ``None`` for instructions
        without a target, otherwise 1, 2 or 4.  Branch displacement is
        measured from the *following* instruction, as in most pc-relative
        encodings.  Call target sizes depend on the callee index width.
        """
        sizes: List[Optional[int]] = []
        append = sizes.append
        for index, insn in enumerate(self.insns):
            meta = OP_TABLE[insn.op]
            if meta.is_branch:
                append(target_size_class(insn.target - (index + 1)))
            elif meta.is_call:
                append(1 if insn.target < (1 << 8) else
                       2 if insn.target < (1 << 16) else 4)
            else:
                append(None)
        return sizes

    def validate_targets(self) -> None:
        """Raise ``ValueError`` on out-of-range intra-function targets."""
        for index, insn in enumerate(self.insns):
            if insn.is_branch and not 0 <= insn.target < len(self.insns):
                raise ValueError(
                    f"{self.name}[{index}]: branch target {insn.target} outside "
                    f"function of {len(self.insns)} instructions"
                )


@dataclass
class Program:
    """A whole program: functions plus an entry function index."""

    name: str
    functions: List[Function] = field(default_factory=list)
    entry: int = 0

    def __post_init__(self) -> None:
        if self.functions and not 0 <= self.entry < len(self.functions):
            raise ValueError(f"entry index {self.entry} out of range")

    @property
    def instruction_count(self) -> int:
        return sum(len(fn) for fn in self.functions)

    def function_named(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r} in program {self.name!r}")

    def function_index(self, name: str) -> int:
        for index, fn in enumerate(self.functions):
            if fn.name == name:
                return index
        raise KeyError(f"no function named {name!r} in program {self.name!r}")

    def iter_instructions(self) -> Iterator[Tuple[int, int, Instruction]]:
        """Yield ``(function_index, instruction_index, instruction)``."""
        for findex, fn in enumerate(self.functions):
            for iindex, insn in enumerate(fn.insns):
                yield findex, iindex, insn

    def opcode_histogram(self) -> Dict[Op, int]:
        histogram: Dict[Op, int] = {}
        for _, _, insn in self.iter_instructions():
            histogram[insn.op] = histogram.get(insn.op, 0) + 1
        return histogram


def concatenate(programs: Sequence[Program], name: str = "corpus") -> Program:
    """Concatenate programs into one (used for BRISC corpus training).

    Call targets are re-based so they keep pointing at the right function.
    """
    functions: List[Function] = []
    for program in programs:
        base = len(functions)
        for fn in program.functions:
            rebased = [
                insn.replace_target(insn.target + base) if insn.is_call else insn
                for insn in fn.insns
            ]
            functions.append(Function(name=f"{program.name}.{fn.name}", insns=rebased))
    return Program(name=name, functions=functions, entry=0)
