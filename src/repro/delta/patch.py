"""Self-describing container patches: the `repro.delta` wire artifact.

A *patch* encodes one container (the **target**) as edits against
another (the **base**), both named by SHA-256 so application is
verifiable end to end:

``
u8       patch format version (currently 1)
32 bytes base SHA-256   (sha256(b"") for a standalone patch)
32 bytes target SHA-256
uvarint  base length in bytes
uvarint  target length in bytes
u8       mode (0 = RAW, 1 = SECTIONS)
...      mode-specific body
``

**RAW** bodies are one byte delta over the whole container
(:func:`repro.lz.lz77.compress` of the target given the base, with no
window cap) — always available, used when either side does not
parse as an SSD container or the target is not v2.

**SECTIONS** bodies exploit the split-stream container layout: the
base's blobs (function-name stream, common base/tree dictionaries,
per-segment dictionaries, per-function item streams) form an indexed
reference table, and each target blob is transmitted as one *op*:

* ``COPY index``  — byte-identical to a base blob (the common case for
  unchanged dictionaries and untouched functions);
* ``BDELTA index stream`` — a byte delta against a base blob
  (item streams are matched to the base function of the same *name*,
  so insertions and deletions do not shift every subsequent diff);
* ``RAW bytes`` — no useful base (new functions, heavy rewrites).

Item streams get two more ops, because a small dictionary edit
renumbers the 16-bit index of nearly every entry and defeats byte-level
matching even for *unchanged* functions:

* ``REMAP base_findex`` — re-tokenize the base function's item stream
  and translate every dictionary index through the old→new entry
  mapping (base entries matched by row, sequence nodes by their path
  of rows).
  A function whose body did not change re-encodes byte-identically, so
  the whole stream costs three bytes on the wire;
* ``REMAP_DELTA base_findex stream`` — the same translation followed
  by a byte delta, for functions that changed *and* sit in a
  renumbered index space.

The mode is chosen at make time by measured size, and SECTIONS is only
eligible when re-serializing the parsed target reproduces it
byte-for-byte, so both modes reconstruct exactly.  Application always
verifies ``sha256(base)`` before touching anything
(:class:`~repro.errors.BaseMismatch`) and ``sha256(result)`` before
returning (:class:`~repro.errors.DeltaError`): a corrupt or mismatched
patch can fail loudly, never produce a wrong container.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.container import (
    DEFAULT_LIMITS,
    ContainerSections,
    DecodeLimits,
    SegmentSections,
    container_version,
    parse,
    serialize,
)
from ..core.layout import SegmentLayout, layouts_from_sections
from ..errors import BaseMismatch, CorruptContainer, DeltaError, LimitExceeded
from ..lz import lz77
from ..lz.varint import ByteReader, ByteWriter

#: current patch header format version
PATCH_VERSION = 1
#: length of the SHA-256 digests naming base and target
HASH_BYTES = 32
#: digest of the empty base — the standalone-patch convention
EMPTY_BASE_HASH = hashlib.sha256(b"").digest()

#: whole-container byte delta
MODE_RAW = 0
#: per-section ops against the base's blob table
MODE_SECTIONS = 1

_OP_COPY = 0
_OP_BDELTA = 1
_OP_RAW = 2
_OP_REMAP = 3        # item streams only
_OP_REMAP_DELTA = 4  # item streams only
_OP_ZDELTA = 3       # dictionary blobs only (separate op namespace)

#: ZDELTA framing: the whole blob is one LZ77 stream (sequence trees)
_FRAME_LZ = 0
#: ZDELTA framing: codec-tag byte + LZ77 stream (base-entry blobs)
_FRAME_TAGGED_LZ = 1

#: base-entry codec tags whose payload is LZ77-compressed
#: (``repro.core.base_entries.CODECS`` indices for "lz" and "delta+lz")
_LZ_TAGS = (0, 2)

_HEADER_LEN = 1 + 2 * HASH_BYTES  # fixed prefix before the varint fields


@dataclass(frozen=True)
class PatchInfo:
    """Decoded patch header (no body decoding)."""

    version: int
    base_hash: bytes
    target_hash: bytes
    base_len: int
    target_len: int
    mode: int

    @property
    def base_hex(self) -> str:
        return self.base_hash.hex()

    @property
    def target_hex(self) -> str:
        return self.target_hash.hex()

    @property
    def standalone(self) -> bool:
        """True when the patch applies to the empty base."""
        return self.base_hash == EMPTY_BASE_HASH


def _read_header(patch: bytes) -> Tuple[PatchInfo, ByteReader]:
    reader = ByteReader(patch)
    version = reader.read_u8()
    if version != PATCH_VERSION:
        raise DeltaError(
            f"unsupported patch format version {version} "
            f"(expected {PATCH_VERSION})", section="patch", offset=0)
    base_hash = reader.read_bytes(HASH_BYTES)
    target_hash = reader.read_bytes(HASH_BYTES)
    base_len = reader.read_uvarint()
    target_len = reader.read_uvarint()
    mode = reader.read_u8()
    if mode not in (MODE_RAW, MODE_SECTIONS):
        raise DeltaError(f"unknown patch mode {mode}", section="patch",
                         offset=_HEADER_LEN)
    return (PatchInfo(version=version, base_hash=base_hash,
                      target_hash=target_hash, base_len=base_len,
                      target_len=target_len, mode=mode), reader)


def patch_info(patch: bytes) -> PatchInfo:
    """Decode and validate a patch header without applying it."""
    info, _ = _read_header(patch)
    return info


def is_patch(data: bytes) -> bool:
    """Cheap sniff: does ``data`` start with a decodable patch header?"""
    try:
        patch_info(data)
    except CorruptContainer:
        return False
    return True


# ---------------------------------------------------------------------------
# SECTIONS mode: split-stream-aware blob ops


def _names_stream(names: Sequence[str]) -> bytes:
    writer = ByteWriter()
    writer.write_uvarint(len(names))
    for name in names:
        raw = name.encode("utf-8")
        writer.write_uvarint(len(raw))
        writer.write_bytes(raw)
    return writer.getvalue()


def _parse_names_stream(blob: bytes, limits: DecodeLimits) -> List[str]:
    reader = ByteReader(blob)
    count = reader.read_uvarint()
    if count > limits.max_functions:
        raise LimitExceeded(f"patch names {count} functions, limit "
                            f"{limits.max_functions}", section="patch")
    names = []
    for _ in range(count):
        raw = reader.read_bytes(reader.read_uvarint())
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DeltaError(f"undecodable function name: {exc}",
                             section="patch") from exc
    return names


def _section_blobs(sections: ContainerSections) -> List[bytes]:
    """The base's indexed blob table (everything but item streams)."""
    blobs = [_names_stream(sections.function_names),
             sections.common_base_blob, sections.common_tree_blob]
    for segment in sections.segments:
        blobs.append(segment.base_blob)
        blobs.append(segment.tree_blob)
    return blobs


def _inflate(blob: bytes, framing: int) -> Optional[Tuple[int, bytes]]:
    """(codec tag, inflated payload) of an LZ-framed blob, else None."""
    try:
        if framing == _FRAME_LZ and blob:
            return (0, lz77.decompress(blob))
        if (framing == _FRAME_TAGGED_LZ and len(blob) >= 2
                and blob[0] in _LZ_TAGS):
            return (blob[0], lz77.decompress(blob[1:]))
    except CorruptContainer:
        return None
    return None


def _deflate(tag: int, payload: bytes, framing: int) -> bytes:
    if framing == _FRAME_LZ:
        return lz77.compress(payload)
    return bytes([tag]) + lz77.compress(payload)


def _emit_op(writer: ByteWriter, target_blob: bytes, table: Sequence[bytes],
             index_of: Dict[bytes, int], preferred: Optional[int],
             framing: Optional[int] = None) -> None:
    """Write the smallest of COPY / ZDELTA / BDELTA / RAW.

    ``framing`` marks blobs that are LZ77 streams on the wire (dictionary
    sections): those get a ZDELTA candidate — a byte delta over the
    *inflated* payloads, re-compressed deterministically on apply —
    because deltas of compressed bytes barely shrink.
    """
    copy_index = index_of.get(target_blob)
    if copy_index is not None:
        writer.write_u8(_OP_COPY)
        writer.write_uvarint(copy_index)
        return
    candidates = []
    if preferred is not None:
        stream = lz77.compress(target_blob, base=table[preferred],
                               window=None)
        w = ByteWriter()
        w.write_u8(_OP_BDELTA)
        w.write_uvarint(preferred)
        w.write_uvarint(len(stream))
        w.write_bytes(stream)
        candidates.append(w.getvalue())
        if framing is not None:
            base_inflated = _inflate(table[preferred], framing)
            target_inflated = _inflate(target_blob, framing)
            if base_inflated is not None and target_inflated is not None:
                tag, payload = target_inflated
                if _deflate(tag, payload, framing) == target_blob:
                    stream = lz77.compress(payload, base=base_inflated[1],
                                           window=None)
                    w = ByteWriter()
                    w.write_u8(_OP_ZDELTA)
                    w.write_uvarint(preferred)
                    w.write_u8(framing)
                    w.write_u8(tag)
                    w.write_uvarint(len(stream))
                    w.write_bytes(stream)
                    candidates.append(w.getvalue())
    w = ByteWriter()
    w.write_u8(_OP_RAW)
    w.write_uvarint(len(target_blob))
    w.write_bytes(target_blob)
    candidates.append(w.getvalue())
    writer.write_bytes(min(candidates, key=len))


def _read_op(reader: ByteReader, table: Sequence[bytes],
             limits: DecodeLimits) -> bytes:
    at = reader.position
    op = reader.read_u8()
    if op == _OP_COPY:
        index = reader.read_uvarint()
        if index >= len(table):
            raise DeltaError(f"COPY references base blob {index} of "
                             f"{len(table)}", section="patch", offset=at)
        return table[index]
    if op == _OP_BDELTA:
        index = reader.read_uvarint()
        if index >= len(table):
            raise DeltaError(f"BDELTA references base blob {index} of "
                             f"{len(table)}", section="patch", offset=at)
        stream = reader.read_bytes(reader.read_uvarint())
        return lz77.decompress(stream, limits.max_blob_output,
                               base=table[index])
    if op == _OP_ZDELTA:
        index = reader.read_uvarint()
        if index >= len(table):
            raise DeltaError(f"ZDELTA references base blob {index} of "
                             f"{len(table)}", section="patch", offset=at)
        framing = reader.read_u8()
        if framing not in (_FRAME_LZ, _FRAME_TAGGED_LZ):
            raise DeltaError(f"unknown ZDELTA framing {framing}",
                             section="patch", offset=at)
        tag = reader.read_u8()
        stream = reader.read_bytes(reader.read_uvarint())
        inflated = _inflate(table[index], framing)
        if inflated is None:
            raise DeltaError("ZDELTA against a base blob that is not an "
                             "LZ stream", section="patch", offset=at)
        payload = lz77.decompress(stream, limits.max_blob_output,
                                  base=inflated[1])
        return _deflate(tag, payload, framing)
    if op == _OP_RAW:
        length = reader.read_uvarint()
        if length > limits.max_blob_output:
            raise LimitExceeded(f"RAW blob of {length} bytes exceeds limit "
                                f"{limits.max_blob_output}",
                                section="patch", offset=at)
        return reader.read_bytes(length)
    raise DeltaError(f"unknown blob op {op}", section="patch", offset=at)


class _RemapContext:
    """Lazily built dictionary-index symbol tables for one container.

    Both sides of a REMAP run this over *identical* section bytes (the
    base's on both ends; the target's as parsed at make time and as
    reconstructed at apply time), so the symbol tables — and therefore
    the old→new index mapping — are deterministic.
    """

    def __init__(self, sections: ContainerSections,
                 limits: DecodeLimits = DEFAULT_LIMITS) -> None:
        self.sections = sections
        self.limits = limits
        self._layouts: Optional[List[SegmentLayout]] = None
        self._symbols: Dict[int, Dict[int, Tuple]] = {}
        self._reverse: Dict[int, Dict[Tuple, int]] = {}

    def layouts(self) -> List[SegmentLayout]:
        if self._layouts is None:
            self._layouts = layouts_from_sections(
                self.sections.common_base_blob,
                self.sections.common_tree_blob,
                list(self.sections.segments), limits=self.limits)
        return self._layouts

    def segment_of(self, findex: int) -> Optional[int]:
        for sindex, segment in enumerate(self.sections.segments):
            if (segment.first_function <= findex
                    < segment.first_function + segment.function_count):
                return sindex
        return None

    def symbols(self, sindex: int) -> Dict[int, Tuple]:
        cached = self._symbols.get(sindex)
        if cached is None:
            layout = self.layouts()[sindex]
            rows = layout.addr_rows
            cached = {index: tuple(map(rows.__getitem__, path))
                      for index, path in enumerate(layout.paths)}
            self._symbols[sindex] = cached
        return cached

    def reverse_symbols(self, sindex: int) -> Dict[Tuple, int]:
        cached = self._reverse.get(sindex)
        if cached is None:
            cached = {}
            for index, symbol in self.symbols(sindex).items():
                cached.setdefault(symbol, index)
            self._reverse[sindex] = cached
        return cached


def _index_mapping(base_ctx: _RemapContext, bsindex: int,
                   target_ctx: _RemapContext, tsindex: int,
                   cache: Dict[Tuple[int, int], Dict[int, int]],
                   ) -> Dict[int, int]:
    """old index → new index, for entries whose symbol survived."""
    key = (bsindex, tsindex)
    mapping = cache.get(key)
    if mapping is None:
        reverse = target_ctx.reverse_symbols(tsindex)
        mapping = {}
        for old, symbol in base_ctx.symbols(bsindex).items():
            new = reverse.get(symbol)
            if new is not None:
                mapping[old] = new
        cache[key] = mapping
    return mapping


def _remap_stream(blob: bytes, layout: SegmentLayout,
                  mapping: Dict[int, int]) -> bytes:
    """Translate one item stream into the target's index space.

    Indices whose entry has no counterpart in the target keep their old
    value — deterministic on both sides, and the ``REMAP_DELTA`` fixup
    stream corrects those spots (a bare ``REMAP`` is only emitted when
    the translation reproduces the target stream exactly).  Raises
    :class:`DeltaError` when the stream references an index the base
    layout does not define — at make time that just disqualifies the
    candidate; at apply time it means the patch is corrupt.
    """
    reader = ByteReader(blob)
    writer = ByteWriter()
    widths = layout.widths
    while not reader.at_end():
        old = reader.read_u16()
        if old >= len(widths):
            raise DeltaError(f"REMAP: stream references unknown dictionary "
                             f"index {old}", section="patch")
        writer.write_u16(mapping.get(old, old))
        if widths[old]:
            writer.write_bytes(reader.read_bytes(widths[old]))
    return writer.getvalue()


def _remapped_base_stream(bfindex: int, base_ctx: _RemapContext,
                          target_ctx: _RemapContext, tfindex: int,
                          mapping_cache: Dict[Tuple[int, int], Dict[int, int]],
                          ) -> bytes:
    """Base function ``bfindex``'s stream, translated for ``tfindex``."""
    item_table = base_ctx.sections.item_streams
    if bfindex >= len(item_table):
        raise DeltaError(f"REMAP references base function {bfindex} of "
                         f"{len(item_table)}", section="patch")
    bsindex = base_ctx.segment_of(bfindex)
    tsindex = target_ctx.segment_of(tfindex)
    if bsindex is None or tsindex is None:
        raise DeltaError(f"REMAP: function {bfindex}→{tfindex} is outside "
                         "every segment", section="patch")
    mapping = _index_mapping(base_ctx, bsindex, target_ctx, tsindex,
                             mapping_cache)
    return _remap_stream(item_table[bfindex],
                         base_ctx.layouts()[bsindex], mapping)


def _emit_item_op(writer: ByteWriter, stream: bytes, tfindex: int,
                  item_table: Sequence[bytes], index_of: Dict[bytes, int],
                  bfindex: Optional[int], base_ctx: _RemapContext,
                  target_ctx: _RemapContext,
                  mapping_cache: Dict[Tuple[int, int], Dict[int, int]],
                  ) -> None:
    """Smallest of COPY / REMAP / REMAP_DELTA / BDELTA / RAW."""
    copy_index = index_of.get(stream)
    if copy_index is not None:
        writer.write_u8(_OP_COPY)
        writer.write_uvarint(copy_index)
        return
    candidates = []
    if bfindex is not None:
        try:
            remapped = _remapped_base_stream(bfindex, base_ctx, target_ctx,
                                             tfindex, mapping_cache)
        except CorruptContainer:
            remapped = None
        if remapped == stream:
            w = ByteWriter()
            w.write_u8(_OP_REMAP)
            w.write_uvarint(bfindex)
            candidates.append(w.getvalue())
        elif remapped is not None:
            fixup = lz77.compress(stream, base=remapped, window=None)
            w = ByteWriter()
            w.write_u8(_OP_REMAP_DELTA)
            w.write_uvarint(bfindex)
            w.write_uvarint(len(fixup))
            w.write_bytes(fixup)
            candidates.append(w.getvalue())
        if not candidates:
            bdelta = lz77.compress(stream, base=item_table[bfindex],
                                   window=None)
            w = ByteWriter()
            w.write_u8(_OP_BDELTA)
            w.write_uvarint(bfindex)
            w.write_uvarint(len(bdelta))
            w.write_bytes(bdelta)
            candidates.append(w.getvalue())
    w = ByteWriter()
    w.write_u8(_OP_RAW)
    w.write_uvarint(len(stream))
    w.write_bytes(stream)
    candidates.append(w.getvalue())
    writer.write_bytes(min(candidates, key=len))


def _read_item_op(reader: ByteReader, tfindex: int, base_ctx: _RemapContext,
                  target_ctx: _RemapContext,
                  mapping_cache: Dict[Tuple[int, int], Dict[int, int]],
                  limits: DecodeLimits) -> bytes:
    at = reader.position
    op = reader.read_u8()
    item_table = base_ctx.sections.item_streams
    if op in (_OP_COPY, _OP_BDELTA):
        index = reader.read_uvarint()
        if index >= len(item_table):
            raise DeltaError(f"item op references base function {index} of "
                             f"{len(item_table)}", section="patch", offset=at)
        if op == _OP_COPY:
            return item_table[index]
        stream = reader.read_bytes(reader.read_uvarint())
        return lz77.decompress(stream, limits.max_blob_output,
                               base=item_table[index])
    if op == _OP_RAW:
        length = reader.read_uvarint()
        if length > limits.max_blob_output:
            raise LimitExceeded(f"RAW item stream of {length} bytes exceeds "
                                f"limit {limits.max_blob_output}",
                                section="patch", offset=at)
        return reader.read_bytes(length)
    if op in (_OP_REMAP, _OP_REMAP_DELTA):
        bfindex = reader.read_uvarint()
        remapped = _remapped_base_stream(bfindex, base_ctx, target_ctx,
                                         tfindex, mapping_cache)
        if op == _OP_REMAP:
            return remapped
        fixup = reader.read_bytes(reader.read_uvarint())
        return lz77.decompress(fixup, limits.max_blob_output,
                               base=remapped)
    raise DeltaError(f"unknown item op {op}", section="patch", offset=at)


def _sections_body(base: bytes, target: bytes) -> Optional[bytes]:
    """SECTIONS body, or None when either side is not eligible."""
    try:
        if container_version(base) not in (1, 2):
            return None
        if container_version(target) != 2:
            return None
        base_sections = parse(base)
        target_sections = parse(target)
    except CorruptContainer:
        return None
    if serialize(target_sections, version=2) != target:
        return None  # not canonically serialized; RAW still reconstructs

    table = _section_blobs(base_sections)
    index_of: Dict[bytes, int] = {}
    for index, blob in enumerate(table):
        index_of.setdefault(blob, index)
    item_table = list(base_sections.item_streams)
    item_index_of: Dict[bytes, int] = {}
    for index, blob in enumerate(item_table):
        item_index_of.setdefault(blob, index)
    base_findex = {name: index
                   for index, name in enumerate(base_sections.function_names)}

    writer = ByteWriter()
    raw_name = target_sections.program_name.encode("utf-8")
    writer.write_uvarint(len(raw_name))
    writer.write_bytes(raw_name)
    writer.write_uvarint(target_sections.entry)
    _emit_op(writer, _names_stream(target_sections.function_names),
             table, index_of, preferred=0)
    _emit_op(writer, target_sections.common_base_blob, table, index_of,
             preferred=1, framing=_FRAME_TAGGED_LZ)
    _emit_op(writer, target_sections.common_tree_blob, table, index_of,
             preferred=2, framing=_FRAME_LZ)
    writer.write_uvarint(len(target_sections.segments))
    for sindex, segment in enumerate(target_sections.segments):
        writer.write_uvarint(segment.first_function)
        writer.write_uvarint(segment.function_count)
        has_peer = sindex < len(base_sections.segments)
        _emit_op(writer, segment.base_blob, table, index_of,
                 preferred=3 + 2 * sindex if has_peer else None,
                 framing=_FRAME_TAGGED_LZ)
        _emit_op(writer, segment.tree_blob, table, index_of,
                 preferred=4 + 2 * sindex if has_peer else None,
                 framing=_FRAME_LZ)
    base_ctx = _RemapContext(base_sections)
    target_ctx = _RemapContext(target_sections)
    mapping_cache: Dict[Tuple[int, int], Dict[int, int]] = {}
    for findex, stream in enumerate(target_sections.item_streams):
        name = target_sections.function_names[findex]
        _emit_item_op(writer, stream, findex, item_table, item_index_of,
                      base_findex.get(name), base_ctx, target_ctx,
                      mapping_cache)
    return writer.getvalue()


def _apply_sections(base: bytes, reader: ByteReader,
                    limits: DecodeLimits) -> bytes:
    base_sections = parse(base, limits=limits)
    table = _section_blobs(base_sections)

    raw_name = reader.read_bytes(reader.read_uvarint())
    try:
        program_name = raw_name.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DeltaError(f"undecodable program name: {exc}",
                         section="patch") from exc
    entry = reader.read_uvarint()
    function_names = _parse_names_stream(_read_op(reader, table, limits),
                                         limits)
    common_base_blob = _read_op(reader, table, limits)
    common_tree_blob = _read_op(reader, table, limits)
    segment_count = reader.read_uvarint()
    if segment_count > limits.max_segments:
        raise LimitExceeded(f"patch declares {segment_count} segments, limit "
                            f"{limits.max_segments}", section="patch")
    segments = []
    for _ in range(segment_count):
        first_function = reader.read_uvarint()
        function_count = reader.read_uvarint()
        base_blob = _read_op(reader, table, limits)
        tree_blob = _read_op(reader, table, limits)
        segments.append(SegmentSections(first_function=first_function,
                                        function_count=function_count,
                                        base_blob=base_blob,
                                        tree_blob=tree_blob))
    base_ctx = _RemapContext(base_sections, limits=limits)
    target_ctx = _RemapContext(
        ContainerSections(program_name=program_name, entry=entry,
                          function_names=function_names,
                          common_base_blob=common_base_blob,
                          common_tree_blob=common_tree_blob,
                          segments=segments, item_streams=[]),
        limits=limits)
    mapping_cache: Dict[Tuple[int, int], Dict[int, int]] = {}
    item_streams = [_read_item_op(reader, tfindex, base_ctx, target_ctx,
                                  mapping_cache, limits)
                    for tfindex in range(len(function_names))]
    if not reader.at_end():
        raise DeltaError(f"{reader.remaining} trailing bytes after patch "
                         "body", section="patch", offset=reader.position)
    sections = ContainerSections(program_name=program_name, entry=entry,
                                 function_names=function_names,
                                 common_base_blob=common_base_blob,
                                 common_tree_blob=common_tree_blob,
                                 segments=segments,
                                 item_streams=item_streams)
    try:
        return serialize(sections, version=2)
    except (CorruptContainer, ValueError) as exc:
        raise DeltaError(f"patched sections do not serialize: {exc}",
                         section="patch") from exc


# ---------------------------------------------------------------------------
# public surface


def make_patch(base: bytes, target: bytes) -> bytes:
    """Encode ``target`` as a patch against ``base``.

    ``base=b""`` produces a *standalone* patch, which rebuilds the
    target from nothing.  The smaller of the RAW and SECTIONS bodies
    wins; both reconstruct byte-identically.
    """
    body = lz77.compress(target, base=base, window=None)
    mode = MODE_RAW
    sections = _sections_body(base, target)
    if sections is not None and len(sections) < len(body):
        body, mode = sections, MODE_SECTIONS
    writer = ByteWriter()
    writer.write_u8(PATCH_VERSION)
    writer.write_bytes(hashlib.sha256(base).digest())
    writer.write_bytes(hashlib.sha256(target).digest())
    writer.write_uvarint(len(base))
    writer.write_uvarint(len(target))
    writer.write_u8(mode)
    writer.write_bytes(body)
    return writer.getvalue()


def apply_patch(base: bytes, patch: bytes,
                limits: DecodeLimits = DEFAULT_LIMITS) -> bytes:
    """Apply ``patch`` to ``base``, verifying both digests.

    Raises :class:`~repro.errors.BaseMismatch` when ``base`` is not the
    patch's declared base (before any reconstruction), and
    :class:`~repro.errors.DeltaError` (or another
    :class:`~repro.errors.CorruptContainer` member) when the patch is
    damaged or the result does not hash to the declared target.
    """
    info, reader = _read_header(patch)
    got = hashlib.sha256(base).digest()
    if got != info.base_hash:
        raise BaseMismatch(
            f"patch expects base {info.base_hex[:12]}…, got "
            f"{got.hex()[:12]}…", expected=info.base_hex, got=got.hex())
    if info.target_len > limits.max_blob_output:
        raise LimitExceeded(
            f"patch declares a {info.target_len}-byte target, limit "
            f"{limits.max_blob_output}", section="patch")
    try:
        if info.mode == MODE_RAW:
            result = lz77.decompress(patch[reader.position:],
                                     limits.max_blob_output, base=base)
        else:
            result = _apply_sections(base, reader, limits)
    except CorruptContainer:
        raise
    except (ValueError, KeyError, IndexError, OverflowError) as exc:
        # Corrupt patch bytes can reconstruct well-formed-looking blobs
        # whose *content* is invalid (e.g. a dictionary entry with an
        # impossible register); whatever a lower layer raises, the caller
        # sees the taxonomy.
        raise DeltaError(f"patch application failed: {exc}",
                         section="patch") from exc
    if hashlib.sha256(result).digest() != info.target_hash:
        raise DeltaError(
            f"patch applied cleanly but the result hashes to "
            f"{hashlib.sha256(result).hexdigest()[:12]}…, not the declared "
            f"target {info.target_hex[:12]}…", section="patch")
    return result


def apply_chain(base: bytes, patches: Sequence[bytes],
                limits: DecodeLimits = DEFAULT_LIMITS) -> bytes:
    """Apply a sequence of patches, each against the previous result.

    Detects cycles (a patch whose target is a state the chain already
    visited) before applying the offending patch, so a malicious chain
    cannot loop the updater.
    """
    seen = {hashlib.sha256(base).digest()}
    current = base
    for position, patch in enumerate(patches):
        info = patch_info(patch)
        if info.target_hash in seen:
            raise DeltaError(
                f"patch chain cycles: patch {position} re-targets already-"
                f"visited state {info.target_hex[:12]}…", section="patch")
        current = apply_patch(current, patch, limits=limits)
        seen.add(info.target_hash)
    return current


__all__ = [
    "EMPTY_BASE_HASH",
    "HASH_BYTES",
    "MODE_RAW",
    "MODE_SECTIONS",
    "PATCH_VERSION",
    "PatchInfo",
    "apply_chain",
    "apply_patch",
    "is_patch",
    "make_patch",
    "patch_info",
]
