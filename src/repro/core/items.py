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

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence

from .. import kernels as _kernels
from ..errors import CorruptContainer
from ..kernels import KIND_BRANCH, KIND_CALL, KIND_PLAIN, ItemPlanes
from ..kernels import items as _kernel_items
from ..lz.varint import ByteReader


@dataclass(frozen=True)
class EntryInfo:
    """What the item codec needs to know about one dictionary index."""

    length: int              # instructions covered
    is_branch: bool = False  # ends with an intra-function branch/jump
    is_call: bool = False    # ends with a call
    target_size: int = 0     # encoded target width (1/2/4) when branch/call


class ItemStreamError(CorruptContainer):
    """Raised for malformed item streams or unresolvable targets."""


#: below this stream size the vectorized item kernel's fixed setup cost
#: (a dozen array ops) exceeds the scalar loop (measured break-even ~230B)
_ITEM_KERNEL_MIN_BYTES = 224


def _write_signed(out: bytearray, value: int, size: int) -> None:
    lo = -(1 << (8 * size - 1))
    hi = (1 << (8 * size - 1)) - 1
    if not lo <= value <= hi:
        raise ItemStreamError(f"displacement {value} does not fit in {size} bytes")
    unsigned = value & ((1 << (8 * size)) - 1)
    out += unsigned.to_bytes(size, "little")


def _read_signed(reader: ByteReader, size: int) -> int:
    value = int.from_bytes(reader.read_bytes(size), "little")
    sign = 1 << (8 * size - 1)
    return value - (1 << (8 * size)) if value & sign else value


def _write_unsigned(out: bytearray, value: int, size: int) -> None:
    if not 0 <= value < (1 << (8 * size)):
        raise ItemStreamError(f"call target {value} does not fit in {size} bytes")
    out += value.to_bytes(size, "little")


def encode_items(keys: Sequence[int], targets: Sequence[Optional[int]],
                 index_of: Dict[int, int],
                 info_of: Dict[int, EntryInfo]) -> bytes:
    """Encode one function's reference columns as SSD items.

    ``keys[r]`` is reference ``r``'s packed key and ``targets[r]`` its
    branch target (instruction index) or callee index, if any (see
    :class:`~repro.core.dictionary.SSDDictionary`).  ``index_of`` maps a
    packed key to its 16-bit dictionary index; ``info_of`` maps
    dictionary indices to :class:`EntryInfo`.
    """
    try:
        indices = [index_of[key] for key in keys]
    except KeyError as exc:
        raise ItemStreamError(f"no dictionary index for entry {exc.args[0]}") from None
    infos = [info_of[index] for index in indices]
    # Instruction index -> item index (the forwarding table, materialized).
    item_of_insn = dict(zip(accumulate([info.length for info in infos],
                                       initial=0), range(len(infos))))

    out = bytearray()
    append = out.append
    for item_index, (index, entry, target) in enumerate(
            zip(indices, infos, targets)):
        append(index & 0xFF)
        append(index >> 8)
        if entry.is_branch:
            if target is None:
                raise ItemStreamError("branch entry without a branch target")
            target_item = item_of_insn.get(target)
            if target_item is None:
                raise ItemStreamError(
                    f"branch target {target} is not item-aligned")
            _write_signed(out, target_item - (item_index + 1),
                          entry.target_size)
        elif entry.is_call:
            if target is None:
                raise ItemStreamError("call entry without a call target")
            _write_unsigned(out, target, entry.target_size)
    return bytes(out)


def _decode_planes_scalar(blob: bytes,
                          info_of: Dict[int, EntryInfo]) -> ItemPlanes:
    """Reference plane decoder — owns the error semantics.

    Walks the stream exactly like the historical per-item decoder (via
    :class:`ByteReader`), so truncation and unknown-index errors keep
    their documented types, messages, and offsets on every backend.
    """
    reader = ByteReader(blob)
    indices: List[int] = []
    kinds: List[int] = []
    values: List[int] = []
    lengths: List[int] = []
    starts: List[int] = []
    position = 0
    get = info_of.get
    while not reader.at_end():
        dict_index = reader.read_u16()
        entry = get(dict_index)
        if entry is None:
            raise ItemStreamError(f"item references unknown index {dict_index}")
        if entry.is_branch:
            kind = KIND_BRANCH
            value = _read_signed(reader, entry.target_size)
        elif entry.is_call:
            kind = KIND_CALL
            value = int.from_bytes(reader.read_bytes(entry.target_size),
                                   "little")
        else:
            kind = KIND_PLAIN
            value = 0
        indices.append(dict_index)
        kinds.append(kind)
        values.append(value)
        lengths.append(entry.length)
        starts.append(position)
        position += entry.length
    return ItemPlanes(indices=indices, kinds=kinds, values=values,
                      lengths=lengths, starts=starts)


def decode_item_planes(blob: bytes, info_of: Dict[int, EntryInfo],
                       cache: Optional[object] = None) -> ItemPlanes:
    """Decode one item stream into split planes (Stream VByte style).

    The numpy backend decodes the whole stream at once and bails to the
    scalar reference decoder on any anomaly, so corrupt streams raise
    identical errors regardless of backend.  ``cache`` is any object with
    a ``kernel_table`` slot (a :class:`SegmentLayout`) used to memoize the
    per-layout :class:`~repro.kernels.items.ItemDecodeTable`.
    """
    if _kernels.backend() == "numpy" and len(blob) >= _ITEM_KERNEL_MIN_BYTES:
        table = getattr(cache, "kernel_table", None)
        if table is None:
            table = _kernel_items.ItemDecodeTable(info_of)
            if cache is not None:
                cache.kernel_table = table
        planes = _kernel_items.try_decode_planes(blob, table)
        if planes is not None:
            _kernels.record_batch("items", planes.count)
            return planes
        _kernels.record_fallback("items")
        planes = _decode_planes_scalar(blob, info_of)
        _kernels.record_batch("items", planes.count, backend_name="python")
        return planes
    planes = _decode_planes_scalar(blob, info_of)
    _kernels.record_batch("items", planes.count)
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
