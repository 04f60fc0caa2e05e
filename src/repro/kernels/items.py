"""Vectorized split-plane decode of SSD item streams (numpy backend).

The item stream interleaves a 16-bit control word (dictionary index) with
0/1/2/4 data bytes whose width is a *function of the control word* — the
same shape Stream VByte exploits.  The kernel runs in three passes:

1. **Boundary discovery.**  Read the 16-bit word at *every* byte offset
   and gather each offset's stride (2 + target width) from the dictionary
   table; item boundaries are then the orbit of offset 0 under
   ``next(o) = o + stride_at(o)``.  The orbit is enumerated without a
   per-item Python loop by binary jump composition: squaring the jump
   table log2(n) times yields ``2^k``-step jumps, and composing them by
   the bits of ``k`` yields every position at once (iterates of a single
   function commute, so bit order is irrelevant).
2. **Plane split.**  One gather pulls the control plane (indices, and
   through the table: kinds, lengths, target widths); padded little-endian
   reads at ``start + 2`` pull the data plane, masked per item to its
   width and sign-extended where the entry is a branch.
3. **Expansion tables.**  An exclusive prefix sum over lengths gives each
   item's first-instruction index — the decode-side forwarding table.

The kernel is speculative: any anomaly (dangling byte, unknown index,
truncated target bytes) returns ``None`` and the caller re-runs the
scalar decoder, which raises the documented ``repro.errors`` types at the
same offsets.  On well-formed streams the two backends produce identical
planes — the hypothesis differential suite pins this.
"""

from __future__ import annotations

from typing import Mapping, Optional

from . import KIND_BRANCH, KIND_CALL, KIND_PLAIN, ItemPlanes

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

_KIND_INVALID = 255
#: the item index space is 16-bit, so tables cover it fully
_TABLE_SIZE = 1 << 16


class ItemDecodeTable:
    """Dictionary metadata flattened into gather-friendly arrays.

    Built once per segment layout from ``info_of`` (16-bit index ->
    ``EntryInfo``-shaped object with ``length``/``is_branch``/``is_call``/
    ``target_size``) and cached there; every function in the segment
    reuses it.
    """

    __slots__ = ("stride", "kind", "tsize", "length")

    def __init__(self, info_of: Mapping[int, object]) -> None:
        assert _np is not None, "ItemDecodeTable requires the numpy backend"
        stride = _np.full(_TABLE_SIZE, 2, dtype=_np.int64)
        kind = _np.full(_TABLE_SIZE, _KIND_INVALID, dtype=_np.int64)
        tsize = _np.zeros(_TABLE_SIZE, dtype=_np.int64)
        length = _np.zeros(_TABLE_SIZE, dtype=_np.int64)
        for index, info in info_of.items():
            width = info.target_size if (info.is_branch or info.is_call) else 0
            stride[index] = 2 + width
            kind[index] = (KIND_BRANCH if info.is_branch
                           else KIND_CALL if info.is_call else KIND_PLAIN)
            tsize[index] = width
            length[index] = info.length
        self.stride = stride
        self.kind = kind
        self.tsize = tsize
        self.length = length


# Width-indexed constants for the data-plane extraction (widths 0/1/2/4).
def _width_tables():
    mask = _np.zeros(5, dtype=_np.int64)
    sign = _np.zeros(5, dtype=_np.int64)
    wrap = _np.zeros(5, dtype=_np.int64)
    for width in (1, 2, 4):
        mask[width] = (1 << (8 * width)) - 1
        sign[width] = 1 << (8 * width - 1)
        wrap[width] = 1 << (8 * width)
    return mask, sign, wrap


_MASK_BY_WIDTH, _SIGN_BY_WIDTH, _WRAP_BY_WIDTH = (
    _width_tables() if _np is not None else (None, None, None))


def try_decode_planes(blob: bytes,
                      table: ItemDecodeTable) -> Optional[ItemPlanes]:
    """Decode one item stream into split planes, or ``None`` on anomaly."""
    n = len(blob)
    if n == 0:
        return ItemPlanes(indices=[], kinds=[], values=[], lengths=[],
                          starts=[])
    if n < 2:
        return None  # dangling byte; scalar raises TruncatedStream
    buf = _np.frombuffer(blob, dtype=_np.uint8).astype(_np.int64)

    # Pass 1: boundary discovery.  u16 and stride at every offset, then
    # the orbit of 0 under o -> o + stride_at[o] via jump composition.
    u16_at = buf[:-1] | (buf[1:] << 8)              # u16 readable in [0, n-1)
    stride_at = table.stride[u16_at]
    jump = _np.full(n + 1, n, dtype=_np.int64)       # n is absorbing ("end")
    _np.minimum(_np.arange(n - 1, dtype=_np.int64) + stride_at, n,
                out=jump[:n - 1])
    max_items = n // 2                               # strides are >= 2
    ks = _np.arange(max_items + 1, dtype=_np.int64)
    pos = _np.zeros(max_items + 1, dtype=_np.int64)
    bit = 1
    while bit <= max_items:
        mask = (ks & bit) != 0
        pos[mask] = jump[pos[mask]]
        bit <<= 1
        if bit <= max_items:
            jump = jump[jump]
    count = int(_np.searchsorted(pos, n - 1, side="left"))
    if count == 0 or int(pos[count]) != n:
        return None  # dangling byte at the tail; scalar raises
    item_starts = pos[:count]
    # The jump table clamps at n, so re-check the last item's true end.
    last = int(item_starts[-1])
    if last + int(stride_at[last]) != n:
        return None  # target bytes truncated; scalar raises

    # Pass 2: plane split.
    indices = u16_at[item_starts]
    kinds = table.kind[indices]
    if int(kinds.max()) == _KIND_INVALID:
        return None  # unknown dictionary index; scalar raises
    widths = table.tsize[indices]
    padded = _np.concatenate([buf, _np.zeros(4, dtype=_np.int64)])
    at = item_starts + 2
    raw = (padded[at]
           | (padded[at + 1] << 8)
           | (padded[at + 2] << 16)
           | (padded[at + 3] << 24))
    values = raw & _MASK_BY_WIDTH[widths]
    negative = ((kinds == KIND_BRANCH)
                & ((values & _SIGN_BY_WIDTH[widths]) != 0))
    values = _np.where(negative, values - _WRAP_BY_WIDTH[widths], values)

    # Pass 3: expansion tables (forwarding prefix sums).
    lengths = table.length[indices]
    starts = _np.empty(count, dtype=_np.int64)
    starts[0] = 0
    _np.cumsum(lengths[:-1], out=starts[1:])
    return ItemPlanes(indices=indices.tolist(), kinds=kinds.tolist(),
                      values=values.tolist(), lengths=lengths.tolist(),
                      starts=starts.tolist())
