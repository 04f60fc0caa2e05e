"""The :class:`Instruction` value type and its field size classes.

Instructions are *structured* values with named fields (opcode,
registers, immediate, branch target) — the non-byte-aligned quantities
split-stream methods operate on (paper Figure 1).  The size classes
below are what the paper's matching rule (section 2.1) compares branch
and call targets by; the rule itself lives in one place,
:func:`repro.core.dictionary.intern_rows`, which Algorithm 1 and the
Table 1 statistics share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .opcodes import NUM_REGISTERS, Kind, Op, OpInfo, info

#: Byte widths an encoded pc-relative target may occupy.
TARGET_SIZES = (1, 2, 4)

#: Immediates are signed 32-bit: the widest field every encoder holds.
IMM_RANGE = range(-(1 << 31), 1 << 31)

#: Upper bound on native bytes one VM instruction may lower to (the widest
#: lowering in ``repro.vm.native`` is 9 bytes; a vm test pins this).  The
#: target-size classes below are conservative under this expansion so that
#: the copy phase (Algorithm 3) can always patch a *native* byte
#: displacement into a hole whose size class was chosen from the VM
#: instruction-unit displacement.
NATIVE_EXPANSION_BOUND = 9

#: Instruction-unit displacement limits per size class: |d| * 9 must fit
#: the signed byte/halfword range.
_CLASS1_LIMIT = 127 // NATIVE_EXPANSION_BOUND          # 14
_CLASS2_LIMIT = 32767 // NATIVE_EXPANSION_BOUND        # 3640


def target_size_class(displacement: int) -> int:
    """Return the encoded byte size (1, 2 or 4) of a pc-relative displacement.

    Displacements are measured in instructions.  Classes are conservative:
    a class-1 displacement is guaranteed to fit a signed byte even after
    every intervening instruction expands to its largest possible native
    form (see ``NATIVE_EXPANSION_BOUND``).
    """
    if -_CLASS1_LIMIT <= displacement <= _CLASS1_LIMIT:
        return 1
    if -_CLASS2_LIMIT <= displacement <= _CLASS2_LIMIT:
        return 2
    return 4


def immediate_size_class(value: int) -> int:
    """Return the encoded byte size (1, 2 or 4) of an immediate field."""
    if -(1 << 7) <= value < (1 << 7):
        return 1
    if -(1 << 15) <= value < (1 << 15):
        return 2
    return 4


@dataclass(frozen=True, slots=True)
class Instruction:
    """One virtual-machine instruction.

    ``target`` is an *instruction index* within the enclosing function for
    branches and jumps, and a *function index* within the program for
    calls.  Fields an opcode does not use must be ``None``; the constructor
    enforces this so malformed instructions fail fast.
    """

    op: Op
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: Optional[int] = None
    target: Optional[int] = None

    def __post_init__(self) -> None:
        # Branch-free field checks: this constructor runs once per decoded
        # base entry on the hostile-input boundary, so it stays cheap but
        # never skips validation.
        meta = info(self.op)
        if ((self.rd is not None) is not meta.uses_rd
                or (self.rs1 is not None) is not meta.uses_rs1
                or (self.rs2 is not None) is not meta.uses_rs2
                or (self.imm is not None) is not meta.uses_imm
                or (self.target is not None) is not meta.uses_target):
            self._raise_field_mismatch(meta)
        for name, value in (("rd", self.rd), ("rs1", self.rs1), ("rs2", self.rs2)):
            if value is not None and not 0 <= value < NUM_REGISTERS:
                raise ValueError(f"{self.op.value}: register {name}={value} out of range")
        if self.imm is not None and self.imm not in IMM_RANGE:
            raise ValueError(f"{self.op.value}: immediate {self.imm} outside int32")

    def _raise_field_mismatch(self, meta: OpInfo) -> None:
        for name, used, value in (
            ("rd", meta.uses_rd, self.rd),
            ("rs1", meta.uses_rs1, self.rs1),
            ("rs2", meta.uses_rs2, self.rs2),
            ("imm", meta.uses_imm, self.imm),
            ("target", meta.uses_target, self.target),
        ):
            if used and value is None:
                raise ValueError(f"{self.op.value}: missing required field {name}")
            if not used and value is not None:
                raise ValueError(f"{self.op.value}: unexpected field {name}={value}")
        raise AssertionError("field mismatch flagged but not found")

    @property
    def meta(self) -> OpInfo:
        return info(self.op)

    @property
    def is_branch(self) -> bool:
        """True for intra-function control transfers (branches and jumps)."""
        return self.meta.is_branch

    @property
    def is_call(self) -> bool:
        return self.meta.is_call

    @property
    def is_terminator(self) -> bool:
        return self.meta.is_terminator

    def replace_target(self, new_target: int) -> "Instruction":
        """Return a copy with a different branch/call target.

        Every field but the target is taken from an already-validated
        instruction, so the copy skips ``__post_init__`` — this runs once
        per branch/call item in the decompress hot path.
        """
        meta = info(self.op)
        if not (meta.is_branch or meta.is_call):
            raise ValueError(f"{self.op.value}: has no target to replace")
        if new_target is None:
            raise ValueError(f"{self.op.value}: missing required field target")
        clone = object.__new__(Instruction)
        set_field = object.__setattr__
        set_field(clone, "op", self.op)
        set_field(clone, "rd", self.rd)
        set_field(clone, "rs1", self.rs1)
        set_field(clone, "rs2", self.rs2)
        set_field(clone, "imm", self.imm)
        set_field(clone, "target", new_target)
        return clone

    def render(self) -> str:
        """Human-readable assembly-like rendering (no label resolution)."""
        meta = self.meta
        parts = [meta.mnemonic]
        operands = []
        if meta.kind is Kind.STORE:
            operands.append(f"r{self.rs2}")
            operands.append(f"{self.imm}(r{self.rs1})")
        elif meta.kind is Kind.LOAD:
            operands.append(f"r{self.rd}")
            operands.append(f"{self.imm}(r{self.rs1})")
        else:
            if meta.uses_rd:
                operands.append(f"r{self.rd}")
            if meta.uses_rs1:
                operands.append(f"r{self.rs1}")
            if meta.uses_rs2:
                operands.append(f"r{self.rs2}")
            if meta.uses_imm:
                operands.append(str(self.imm))
            if meta.uses_target:
                operands.append(f"@{self.target}")
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.render()


#: slot setters in field order: decoders build instructions with these
#: instead of the validating constructor and make its checks themselves
SLOT_SETTERS = tuple(Instruction.__dict__[name].__set__
                     for name in ("op", "rd", "rs1", "rs2", "imm", "target"))
