"""Algorithm 3: the copy phase of SSD decompression.

Phase one (``repro.jit.instruction_table``) turns the dictionary into an
*instruction table*: for every 16-bit index, the native bytes of its
instruction sequence plus a tag giving the byte length and — for entries
ending in a control transfer — where the target hole sits.  The copy phase
then translates a function (or, in Algorithm 3's ``Start``/``End`` form,
any item range of one) by looping over its SSD items and copying table
entries into the output buffer, patching branch holes as it goes:

* backward branches resolve immediately through a forwarding table
  (item index -> output byte offset);
* forward branches and calls deposit a relocation, applied at the end
  (step 3 of Algorithm 3).

Call relocations are returned to the caller (the JIT runtime binds callees
to buffer addresses or translation stubs); intra-function branch holes are
fully patched here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, compress
from typing import List, NamedTuple, Sequence, Tuple

from ..errors import CorruptContainer
from ..kernels import KIND_BRANCH, KIND_CALL, ItemPlanes


class CopyPhaseError(CorruptContainer):
    """Raised when an item stream cannot be translated."""


class TableEntry(NamedTuple):
    """One instruction-table row (the paper's tagged native sequence).

    ``hole_offset`` is the (paper's "negative offset from the end")
    position of the target hole, expressed here from the start of
    ``data``; ``hole_size`` is its width.  ``is_call`` marks entries whose
    hole takes a callee address rather than an intra-function offset.
    """

    data: bytes
    hole_offset: int = 0
    hole_size: int = 0
    is_call: bool = False

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def has_hole(self) -> bool:
        return self.hole_size > 0


@dataclass(frozen=True)
class CallRelocation:
    """A call hole the runtime must bind: patch ``hole_offset`` with the
    native address of ``callee`` (function index)."""

    hole_offset: int
    hole_size: int
    callee: int


@dataclass
class TranslatedFunction:
    """Copy-phase output for one function."""

    code: bytearray
    call_relocations: List[CallRelocation] = field(default_factory=list)
    #: output byte offset of each item (the forwarding table, kept for tests)
    item_offsets: List[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.code)


@dataclass(frozen=True)
class ExternalBranch:
    """A branch hole whose target item lies outside the translated range.

    ``hole_offset``/``hole_size`` locate the hole within the fragment;
    ``target_item`` is the function-relative item index the branch wants.
    The driver patches it once the target fragment has an address.
    """

    hole_offset: int
    hole_size: int
    target_item: int


@dataclass
class TranslatedFragment(TranslatedFunction):
    """Copy-phase output for one item range ``[start_item, end_item)``."""

    start_item: int = 0
    end_item: int = 0
    external_branches: List[ExternalBranch] = field(default_factory=list)


def lookup(table: Sequence[TableEntry], index: int) -> TableEntry:
    """``table[index]``, or :class:`CopyPhaseError` when the table has no
    row for ``index`` (e.g. tables built for another container)."""
    if not 0 <= index < len(table):
        raise CopyPhaseError(f"no instruction-table entry for index {index}")
    return table[index]


def copy_translate_range(planes: ItemPlanes, table: Sequence[TableEntry],
                         start_item: int, end_item: int) -> TranslatedFragment:
    """Algorithm 3, one item at a time, over items ``[start_item,
    end_item)`` of ``planes`` (the paper's ``Start``/``End`` form).

    ``table`` is the segment's instruction table, indexed by dictionary
    index.  Branch holes are patched with native pc-relative displacements
    (relative to the end of the branch's hole, as hardware does): backward
    ones at once, forward ones in the final fix-up step.  Branches that
    leave the range become :class:`ExternalBranch` records; call holes are
    zeroed and reported as relocations.  This is the reference every other
    copy path agrees with, and it owns the error taxonomy.
    """
    item_count = planes.count
    if not 0 <= start_item <= end_item <= item_count:
        raise CopyPhaseError(
            f"bad item range [{start_item}, {end_item}) of {item_count} items")
    out = TranslatedFragment(code=bytearray(), start_item=start_item,
                             end_item=end_item)
    code, item_offsets = out.code, out.item_offsets
    pending: List[Tuple[int, int, int]] = []  # (hole, size, target item)

    for item_index in range(start_item, end_item):
        index = planes.indices[item_index]
        kind = planes.kinds[item_index]
        value = planes.values[item_index]
        entry = lookup(table, index)
        start = len(code)
        item_offsets.append(start)
        code += entry.data  # the block copy at the heart of phase two
        hole_at = start + entry.hole_offset
        if kind == KIND_BRANCH:
            if not entry.has_hole or entry.is_call:
                raise CopyPhaseError(
                    f"item {item_index} supplies a branch target but entry "
                    f"{index} has no branch hole")
            target_item = item_index + 1 + value
            if not 0 <= target_item < item_count:
                raise CopyPhaseError(
                    f"item {item_index}: branch target item {target_item} "
                    f"out of range")
            if not start_item <= target_item < end_item:
                out.external_branches.append(ExternalBranch(
                    hole_offset=hole_at, hole_size=entry.hole_size,
                    target_item=target_item))
            elif target_item <= item_index:
                _patch(code, hole_at, entry.hole_size,
                       item_offsets[target_item - start_item]
                       - (hole_at + entry.hole_size))
            else:
                pending.append((hole_at, entry.hole_size, target_item))
        elif kind == KIND_CALL:
            if not entry.has_hole or not entry.is_call:
                raise CopyPhaseError(
                    f"item {item_index} supplies a call target but entry "
                    f"{index} has no call hole")
            out.call_relocations.append(CallRelocation(
                hole_offset=hole_at, hole_size=entry.hole_size, callee=value))

    # Step 3: fix forward branches now that all offsets are known.
    for hole_at, hole_size, target_item in pending:
        _patch(code, hole_at, hole_size,
               item_offsets[target_item - start_item] - (hole_at + hole_size))
    return out


def _whole(planes: ItemPlanes, table: Sequence[TableEntry]) -> TranslatedFunction:
    fragment = copy_translate_range(planes, table, 0, planes.count)
    return TranslatedFunction(code=fragment.code,
                              call_relocations=fragment.call_relocations,
                              item_offsets=fragment.item_offsets)


def copy_translate_planes(planes: ItemPlanes,
                          table: Sequence[TableEntry]) -> TranslatedFunction:
    """Algorithm 3 over split planes: whole-function copy, then patches.

    The control plane drives one bulk gather-and-join of table rows (the
    forwarding table falls out of a single prefix sum), and only items
    with targets are touched individually afterwards — no per-item
    branching during the copy itself.  Any inconsistency re-runs the
    item-at-a-time :func:`copy_translate_range`, which owns the error
    taxonomy, so corrupt streams fail identically on every path.
    """
    try:
        return _copy_translate_planes(planes, table)
    except CopyPhaseError:
        # The reference raises the first failure in item order, which can
        # differ from the bulk path's on multi-fault streams.
        return _whole(planes, table)


def _copy_translate_planes(planes: ItemPlanes,
                           table: Sequence[TableEntry]) -> TranslatedFunction:
    indices = planes.indices
    if indices and min(indices) < 0:
        raise CopyPhaseError("negative dictionary index")
    try:
        # ``[0]`` is ``.data``: indexing is the faster read on this hot path.
        datas = [table[index][0] for index in indices]
    except IndexError:
        raise CopyPhaseError("dictionary index outside the table") from None

    # Bulk copy: one join for the code, one prefix sum for the forwarding
    # table (item index -> output byte offset).
    item_offsets = list(accumulate(map(len, datas), initial=0))
    item_offsets.pop()
    code = bytearray(b"".join(datas))

    relocations: List[CallRelocation] = []
    kinds, values = planes.kinds, planes.values
    item_count = len(indices)
    # Only branch and call items (non-zero kinds) carry a hole to fill.
    for item_index in compress(range(item_count), kinds):
        kind = kinds[item_index]
        _, hole_offset, hole_size, is_call = table[indices[item_index]]
        hole_at = item_offsets[item_index] + hole_offset
        if kind == KIND_BRANCH:
            if hole_size == 0 or is_call:
                raise CopyPhaseError("branch item on an entry without a branch hole")
            target_item = item_index + 1 + values[item_index]
            if not 0 <= target_item < item_count:
                raise CopyPhaseError("branch target item out of range")
            _patch(code, hole_at, hole_size,
                   item_offsets[target_item] - (hole_at + hole_size))
        elif kind == KIND_CALL:
            if hole_size == 0 or not is_call:
                raise CopyPhaseError("call item on an entry without a call hole")
            relocations.append(CallRelocation(
                hole_offset=hole_at, hole_size=hole_size,
                callee=values[item_index]))
    return TranslatedFunction(code=code, call_relocations=relocations,
                              item_offsets=item_offsets)


def _patch(code: bytearray, offset: int, size: int, value: int) -> None:
    try:
        code[offset:offset + size] = value.to_bytes(size, "little", signed=True)
    except OverflowError:
        raise CopyPhaseError(
            f"native displacement {value} does not fit the {size}-byte hole"
        ) from None


def read_patched_displacement(code: Sequence[int], offset: int, size: int) -> int:
    """Read back a patched hole (test helper; signed little-endian)."""
    value = int.from_bytes(bytes(code[offset:offset + size]), "little")
    sign = 1 << (8 * size - 1)
    return value - (1 << (8 * size)) if value & sign else value
