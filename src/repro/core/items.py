"""Algorithm 2: SSD item generation (and its inverse).

An SSD item is a 16-bit dictionary index, optionally followed by a branch
target.  Intra-function branch targets are *pc-relative in item units*
(displacement from the following item), sized by the dictionary entry's
target-size class — the design the paper credits with a 6.2% size win over
absolute targets stored in the dictionary.  Call items carry the callee's
function index the same way (fixed up via relocation at copy time, like
forward branches).

Because dictionary entries never span basic blocks, every branch target
(a block leader) is also the first instruction of some item, so targets
are always expressible at item granularity; a displacement in items never
exceeds the same displacement in instructions, so the instruction-derived
size class always fits.  Encoding performs the paper's two-pass relocation
(forwarding table for backward branches, relocation items for forward
ones) in one materialized pass over the per-function reference stream.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Optional, Sequence

from .. import kernels as _kernels
from ..errors import CorruptContainer
from ..kernels import KIND_BRANCH, KIND_CALL, KIND_PLAIN, ItemPlanes
from ..lz.varint import ByteReader
from .layout import SegmentLayout


class ItemStreamError(CorruptContainer):
    """Raised for malformed item streams or unresolvable targets."""


def _write_signed(out: bytearray, value: int, size: int) -> None:
    lo = -(1 << (8 * size - 1))
    hi = (1 << (8 * size - 1)) - 1
    if not lo <= value <= hi:
        raise ItemStreamError(f"displacement {value} does not fit in {size} bytes")
    unsigned = value & ((1 << (8 * size)) - 1)
    out += unsigned.to_bytes(size, "little")


def _write_unsigned(out: bytearray, value: int, size: int) -> None:
    if not 0 <= value < (1 << (8 * size)):
        raise ItemStreamError(f"call target {value} does not fit in {size} bytes")
    out += value.to_bytes(size, "little")


def encode_items(keys: Sequence[int], targets: Sequence[Optional[int]],
                 layout: SegmentLayout) -> bytes:
    """Encode one function's reference columns as SSD items.

    ``keys[r]`` is reference ``r``'s packed key and ``targets[r]`` its
    branch target (instruction index) or callee index, if any (see
    :class:`~repro.core.dictionary.SSDDictionary`).  ``layout.index_of``
    maps a packed key to its 16-bit dictionary index; the layout's
    ``lengths``, ``kinds`` and ``widths`` columns describe each index.
    """
    try:
        indices = [layout.index_of[key] for key in keys]
    except KeyError as exc:
        raise ItemStreamError(f"no dictionary index for entry {exc.args[0]}") from None
    kinds, widths = layout.kinds, layout.widths
    # Instruction index -> item index (the forwarding table, materialized).
    item_of_insn = dict(zip(
        accumulate(map(layout.lengths.__getitem__, indices), initial=0),
        range(len(indices))))

    out = bytearray()
    append = out.append
    for item_index, (index, target) in enumerate(zip(indices, targets)):
        append(index & 0xFF)
        append(index >> 8)
        kind = kinds[index]
        if kind == KIND_BRANCH:
            if target is None:
                raise ItemStreamError("branch entry without a branch target")
            target_item = item_of_insn.get(target)
            if target_item is None:
                raise ItemStreamError(
                    f"branch target {target} is not item-aligned")
            _write_signed(out, target_item - (item_index + 1), widths[index])
        elif kind == KIND_CALL:
            if target is None:
                raise ItemStreamError("call entry without a call target")
            _write_unsigned(out, target, widths[index])
    return bytes(out)


def _decode_planes_scalar(blob: bytes, layout: SegmentLayout) -> ItemPlanes:
    """Reference plane decoder — owns the error semantics.

    Walks the stream item by item through :class:`ByteReader`, so
    truncation and unknown-index errors keep their documented types,
    messages, and offsets.  :func:`decode_item_planes` re-runs it on any
    stream its fast loop finds malformed.
    """
    reader = ByteReader(blob)
    lengths_of, kinds_of, widths_of = layout.lengths, layout.kinds, layout.widths
    size = len(kinds_of)
    indices: List[int] = []
    kinds: List[int] = []
    values: List[int] = []
    lengths: List[int] = []
    starts: List[int] = []
    position = 0
    while not reader.at_end():
        dict_index = reader.read_u16()
        if dict_index >= size:
            raise ItemStreamError(f"item references unknown index {dict_index}")
        kind = kinds_of[dict_index]
        value = 0
        if kind != KIND_PLAIN:
            value = int.from_bytes(reader.read_bytes(widths_of[dict_index]),
                                   "little", signed=kind == KIND_BRANCH)
        length = lengths_of[dict_index]
        indices.append(dict_index)
        kinds.append(kind)
        values.append(value)
        lengths.append(length)
        starts.append(position)
        position += length
    return ItemPlanes(indices=indices, kinds=kinds, values=values,
                      lengths=lengths, starts=starts)


def decode_item_planes(blob: bytes, layout: SegmentLayout) -> ItemPlanes:
    """Decode one item stream into split planes (Stream VByte style).

    One loop reads each 16-bit control word and takes its target width
    from the layout's ``widths`` column; kinds, lengths and starts come
    from the indices afterwards.  The loop is speculative: a dangling
    byte, an index past the table or a truncated target makes it re-run
    :func:`_decode_planes_scalar`, which raises the typed error.
    """
    widths = layout.widths
    kinds_of = layout.kinds
    indices: List[int] = []
    values: List[int] = []
    add_index = indices.append
    add_value = values.append
    from_bytes = int.from_bytes
    end = len(blob)
    position = 0
    try:
        while position < end:
            index = blob[position] | blob[position + 1] << 8
            width = widths[index]
            position += 2
            add_index(index)
            if width:
                stop = position + width
                add_value(from_bytes(blob[position:stop], "little",
                                     signed=kinds_of[index] == KIND_BRANCH))
                position = stop
            else:
                add_value(0)
    except IndexError:
        position = end + 1
    if position != end:
        _kernels.record_fallback("items")
        planes = _decode_planes_scalar(blob, layout)
    else:
        lengths = list(map(layout.lengths.__getitem__, indices))
        planes = ItemPlanes(
            indices=indices, kinds=list(map(kinds_of.__getitem__, indices)),
            values=values, lengths=lengths,
            starts=list(accumulate(lengths, initial=0))[:-1])
    _kernels.record_batch("items", planes.count, backend_name="python")
    return planes


def resolve_plane_targets(planes: ItemPlanes) -> List[Optional[int]]:
    """The decode-side forwarding pass: branch targets in instruction units.

    Item displacements convert back to instruction indices via each
    item's starting position (``planes.starts``); a displacement that
    leaves the function raises :class:`ItemStreamError`.  It has no numpy
    version: one measured slower than this loop at every function size
    of the corpus.
    """
    count = planes.count
    starts = planes.starts
    targets: List[Optional[int]] = []
    for item_index, (kind, value) in enumerate(zip(planes.kinds,
                                                   planes.values)):
        if kind != KIND_BRANCH:
            targets.append(None)
            continue
        target_item = item_index + 1 + value
        if not 0 <= target_item < count:
            raise ItemStreamError(
                f"item {item_index}: branch displacement {value} "
                f"leaves the function ({count} items)")
        targets.append(starts[target_item])
    return targets
