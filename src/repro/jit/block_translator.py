"""Basic-block-granularity translation (Algorithm 3's Start/End form).

The paper *defines* interpretable compression by this capability: "it can
be decompressed at basic-block granularity with reasonable efficiency"
(abstract), and Algorithm 3 takes ``Start``/``End`` item pointers for
exactly that reason — the Omniware VM picked whole functions, but an
interpreter may materialize one block at a time.

:class:`BlockTranslator` translates any contiguous *item range* of a
function with :func:`~repro.core.copy_phase.copy_translate_range`.
Ranges align naturally with basic blocks because dictionary entries
never span blocks: every block leader starts an item.  Branch
targets inside the range are patched as usual; branches that leave the
range are reported as :class:`ExternalBranch` fix-ups for the driver
(which knows where — or whether — the target block was materialized),
mirroring how a block-at-a-time interpreter chains translated fragments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.copy_phase import (
    CopyPhaseError,
    TranslatedFragment,
    copy_translate_range,
    lookup,
)
from ..core.decompressor import SSDReader
from ..kernels import KIND_BRANCH, KIND_CALL, ItemPlanes
from .instruction_table import InstructionTables, build_tables


class BlockTranslator:
    """Block-at-a-time translation driver for one compressed program.

    Blocks are identified lazily: an item is a *block leader* when it is
    item 0, the target of any branch item, or the successor of an item
    ending in a control transfer.  ``translate_block`` materializes the
    block containing a given item and returns the fragment; fragments are
    cached per function.
    """

    def __init__(self, reader: SSDReader,
                 tables: Optional[InstructionTables] = None) -> None:
        self.reader = reader
        self.tables = tables if tables is not None else build_tables(reader)
        self._items: Dict[int, ItemPlanes] = {}
        self._leaders: Dict[int, List[int]] = {}
        self._fragments: Dict[Tuple[int, int], TranslatedFragment] = {}

    def items_of(self, findex: int) -> ItemPlanes:
        """The function's items, as split planes (decoded once)."""
        if findex not in self._items:
            self._items[findex] = self.reader.item_planes(findex)
        return self._items[findex]

    def block_leaders(self, findex: int) -> List[int]:
        """Item indices that begin basic blocks, in order."""
        if findex not in self._leaders:
            planes = self.items_of(findex)
            table = self.tables.for_function(self.reader, findex)
            count = planes.count
            leaders = {0} if count else set()
            for item_index, (index, kind, value) in enumerate(
                    zip(planes.indices, planes.kinds, planes.values)):
                if kind == KIND_BRANCH:
                    leaders.add(item_index + 1 + value)
                ends_block = lookup(table, index).has_hole or kind == KIND_CALL
                if ends_block and item_index + 1 < count:
                    leaders.add(item_index + 1)
            self._leaders[findex] = sorted(leaders)
        return self._leaders[findex]

    def block_range(self, findex: int, item_index: int) -> Tuple[int, int]:
        """The [start, end) item range of the block containing ``item_index``."""
        count = self.items_of(findex).count
        if not 0 <= item_index < count:
            raise CopyPhaseError(
                f"item {item_index} out of range ({count} items)")
        leaders = self.block_leaders(findex)
        start = max(leader for leader in leaders if leader <= item_index)
        later = [leader for leader in leaders if leader > item_index]
        end = later[0] if later else count
        return start, end

    def translate_block(self, findex: int, item_index: int) -> TranslatedFragment:
        """Materialize the basic block containing ``item_index``."""
        start, end = self.block_range(findex, item_index)
        key = (findex, start)
        fragment = self._fragments.get(key)
        if fragment is None:
            fragment = copy_translate_range(
                self.items_of(findex),
                self.tables.for_function(self.reader, findex),
                start, end)
            self._fragments[key] = fragment
        return fragment

    def translate_whole_function(self, findex: int) -> List[TranslatedFragment]:
        """Materialize every block of a function (in leader order)."""
        leaders = self.block_leaders(findex)
        return [self.translate_block(findex, leader) for leader in leaders]

    @property
    def blocks_translated(self) -> int:
        return len(self._fragments)
