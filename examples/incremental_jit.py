#!/usr/bin/env python3
"""Incremental JIT: watch SSD translate code block by block.

The paper's definition of interpretable compression is the ability to
decompress *at basic-block granularity* during execution.  This example
makes that visible: it compresses a small program, then materializes
native code one basic block at a time — exactly Algorithm 3 run over an
item sub-range — showing which bytes exist after each step and which
branch holes are still waiting for their target block.

Run: ``python examples/incremental_jit.py``
"""

from repro import assemble, compress
from repro.core import open_container
from repro.jit import BlockTranslator

SOURCE = """
func main
    li   r2, 10
    li   r3, 0
loop:
    add  r3, r3, r2
    addi r2, r2, -1
    bnez r2, loop
    beqz r3, skip
    mov  r1, r3
    trap 1
skip:
    ret
end
"""


def main() -> None:
    program = assemble(SOURCE)
    reader = open_container(compress(program).data)
    translator = BlockTranslator(reader)

    items = translator.items_of(0)
    leaders = translator.block_leaders(0)
    print(f"function 'main': {items.count} SSD items, "
          f"{len(leaders)} basic blocks (leaders at items {leaders})\n")

    total = 0
    for block_number, leader in enumerate(leaders):
        fragment = translator.translate_block(0, leader)
        total += fragment.size
        externals = ", ".join(f"item {e.target_item}"
                              for e in fragment.external_branches) or "none"
        print(f"block {block_number}: items [{fragment.start_item}, "
              f"{fragment.end_item}) -> {fragment.size:3d} native bytes "
              f"(cumulative {total}); unresolved external branches: {externals}")

    print(f"\ntranslated {translator.blocks_translated} blocks; every external")
    print("branch targets another block's leader, so the driver can patch it")
    print("as soon as that block gets an address — this is what lets an")
    print("interpreter materialize only the blocks a run actually reaches.")


if __name__ == "__main__":
    main()
