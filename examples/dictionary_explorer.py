#!/usr/bin/env python3
"""Dictionary explorer: see what SSD actually learns about a program.

Compresses the synthetic xlisp benchmark and dumps the most valuable
dictionary entries — the instruction idioms the compiler emits over and
over (Table 1's phenomenon, made visible).  Useful for building intuition
about why split-stream dictionary compression works on machine code.

Run: ``python examples/dictionary_explorer.py``
"""

from collections import Counter

from repro.core import build_dictionary, dictionary_statistics
from repro.core.base_entries import row_instruction
from repro.workloads import benchmark_program


def _render(dictionary, base_id: int) -> str:
    """A base entry as assembly (its row's canonical instruction)."""
    return row_instruction(dictionary.rows[base_id]).render()


def main() -> None:
    program = benchmark_program("xlisp", scale=0.25)
    dictionary = build_dictionary(program)
    stats = dictionary_statistics(dictionary)

    print(f"program: {program.instruction_count} instructions")
    print(f"dictionary: {stats['base_entries']:.0f} base entries + "
          f"{stats['sequence_entries']:.0f} sequence entries")
    print(f"item stream: {stats['items']:.0f} items "
          f"({stats['compression_leverage']:.2f} instructions each on average)\n")

    # -- hottest single instructions ---------------------------------------
    print("hottest single instructions (base entries):")
    base_uses = Counter(dictionary.base_use_counts)
    for base_id, count in base_uses.most_common(8):
        print(f"  {count:>6}x  {_render(dictionary, base_id)}")

    # -- hottest sequences ---------------------------------------------------
    print("\nhottest instruction sequences (sequence entries):")
    for sequence, count in sorted(dictionary.sequence_entries.items(),
                                  key=lambda kv: -kv[1])[:8]:
        rendered = "; ".join(_render(dictionary, base_id)
                             for base_id in sequence)
        print(f"  {count:>6}x  [{rendered}]")

    # -- where the bytes go ---------------------------------------------------
    from repro.core import compress

    compressed = compress(program)
    total = compressed.size
    print(f"\ncompressed size breakdown ({total} bytes):")
    for section, size in sorted(compressed.section_sizes.items(),
                                key=lambda kv: -kv[1]):
        print(f"  {section:>14}: {size:>8} bytes ({size / total:.0%})")

    print("\nThe hot sequences above are compiler idioms — loop counters,")
    print("prologues, address computations.  Each occurrence costs just two")
    print("bytes in the item stream; that is SSD's entire trick.")


if __name__ == "__main__":
    main()
