"""Table 1 statistics: instruction and digram redundancy.

Reproduces every column of the paper's Table 1 for a program, using the
compressor's own matching rule (branch targets compare by size, not value
— the table's caption calls this out explicitly): instructions are
counted by their pass-0 base ids from
:func:`repro.core.dictionary.intern_rows`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..core.dictionary import intern_rows
from ..isa import Program
from ..vm import native_size


@dataclass(frozen=True)
class RedundancyStats:
    """One row of Table 1."""

    name: str
    x86_bytes: int
    total_instructions: int
    unique_instructions: int
    unique_digrams: int
    digram_reuse: float
    top_sequence_reuse: float

    @property
    def avg_reuse(self) -> float:
        return (self.total_instructions / self.unique_instructions
                if self.unique_instructions else 0.0)


def measure_redundancy(program: Program, x86_bytes: int = None) -> RedundancyStats:
    """Compute the Table 1 row for ``program``.

    ``x86_bytes`` may be passed to avoid re-lowering when the caller
    already knows the optimized native size.
    """
    instruction_counts: Counter = Counter()
    digram_counts: Counter = Counter()
    sequence_counts: Counter = Counter()
    total = 0
    for keys in intern_rows(program)[1]:
        total += len(keys)
        instruction_counts.update(keys)
        for a, b in zip(keys, keys[1:]):
            digram_counts[(a, b)] += 1
        for length in (2, 3, 4):
            for start in range(len(keys) - length + 1):
                sequence_counts[tuple(keys[start:start + length])] += 1

    ranked = sorted(sequence_counts.values(), reverse=True)
    top_count = max(1, len(ranked) // 10)
    top_reuse = sum(ranked[:top_count]) / top_count if ranked else 0.0
    digram_total = sum(digram_counts.values())
    digram_reuse = digram_total / len(digram_counts) if digram_counts else 0.0

    return RedundancyStats(
        name=program.name,
        x86_bytes=x86_bytes if x86_bytes is not None else native_size(program),
        total_instructions=total,
        unique_instructions=len(instruction_counts),
        unique_digrams=len(digram_counts),
        digram_reuse=digram_reuse,
        top_sequence_reuse=top_reuse,
    )
