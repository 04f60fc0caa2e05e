"""The compressed-program container format.

Version 2 (current, magic ``SSD2``) byte layout (varints unless stated)::

    magic  b"SSD2"
    version             u8 (= 2)
    program name        (uvarint length + utf-8)
    entry function index
    function count
    name blob           (uvarint length + LZ-compressed '\\n'-joined names + u32 CRC32)
    common base blob    (uvarint length + bytes + u32 CRC32; empty when unpartitioned)
    common tree blob    (uvarint length + bytes + u32 CRC32)
    segment count
    per segment:
        first function index, function count
        base blob       (uvarint length + bytes + u32 CRC32)
        tree blob       (uvarint length + bytes + u32 CRC32)
    per function (placement order):
        item stream     (uvarint length + bytes + u32 CRC32)
    [function order]    (uvarint length + permutation + u32 CRC32;
                        only in profile-guided containers)
    container CRC       u32 CRC32 over everything after the version byte
                        and before this field
    [profile hints]     (uvarint length + hints + u32 CRC32;
                        only in profile-guided containers)

Every *blob* carries its own CRC32 so corruption is attributed to a
section with a byte offset; the trailing container CRC covers the varint
metadata between blobs (counts, indices, lengths).  Version 1 (magic
``SSD1``) is the same layout minus the version byte and every CRC; it is
still read for compatibility with old archives.

A **profile-guided** container (built from a ``repro.profile``
:class:`~repro.profile.LayoutPlan`, see docs/LAYOUT.md) stores item
streams in plan placement order and appends two optional sections.  The
*function order* permutation (``order[slot] = logical function index``)
sits inside the CRC-covered body: corrupting it is fatal, because a bad
permutation would attach wrong bytes to a function.  The *profile
hints* blob (hot-set ranks + successor edges, ``repro.core.hints``)
trails the container CRC with only its own CRC32: hints are advisory,
so a corrupt hint section degrades to no-hint behaviour instead of
failing the container.  :func:`parse` restores item streams to logical
(program) order, so every consumer above this layer — readers, the JIT,
the serve stack — sees identical bytes whatever the placement.

Function names ride along (LZ-compressed) so decompression reproduces the
program exactly; they are charged to the compressed size, just as symbol
information is part of a shipped binary.

Decoding is treated as a hostile-input boundary: all failures raise
``repro.errors`` types (:class:`~repro.errors.CorruptContainer`,
:class:`~repro.errors.ChecksumMismatch`,
:class:`~repro.errors.TruncatedStream`,
:class:`~repro.errors.LimitExceeded`) and resource limits
(:class:`DecodeLimits`) bound what a malformed length field can allocate.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, NoReturn, Optional

from ..errors import ChecksumMismatch, CorruptContainer, LimitExceeded
from ..lz import lz77
from ..lz.varint import ByteReader, ByteWriter
from ..obs import REGISTRY
from .hints import decode_order, encode_order

#: legacy (version 1) magic — still readable, no longer written by default
MAGIC = b"SSD1"
#: current magic
MAGIC_V2 = b"SSD2"
#: retired version-3 magic (a multi-codec envelope); refused on read
MAGIC_V3 = b"SSD3"
#: the format version :func:`serialize` emits by default
FORMAT_VERSION = 2


class ContainerError(CorruptContainer):
    """Raised for malformed container bytes."""


@dataclass(frozen=True)
class DecodeLimits:
    """Resource ceilings enforced while parsing untrusted containers."""

    #: maximum functions a container may declare
    max_functions: int = 1 << 20
    #: maximum segments a container may declare
    max_segments: int = 1 << 14
    #: maximum decompressed size of any single LZ-compressed blob
    max_blob_output: int = lz77.MAX_OUTPUT_BYTES
    #: maximum dictionary entries (bases + tree nodes) per segment; the
    #: item encoding is 16-bit so anything above 0x10000 is unreferencable
    max_dict_entries: int = 1 << 16


DEFAULT_LIMITS = DecodeLimits()


@dataclass(frozen=True)
class SectionSpan:
    """Location of one section inside the container bytes (for reports
    and structure-aware fault injection)."""

    name: str
    length_offset: int        # offset of the uvarint length field
    data_offset: int          # offset of the section payload
    length: int               # payload length in bytes
    crc_offset: int = -1      # offset of the stored CRC32 (-1: none, v1)
    crc_ok: Optional[bool] = None  # None when the section carries no CRC


@dataclass
class SegmentSections:
    """Serialized pieces of one sub-dictionary."""

    first_function: int
    function_count: int
    base_blob: bytes
    tree_blob: bytes


@dataclass
class ContainerSections:
    """Everything stored in a compressed program, pre-byte-packing."""

    program_name: str
    entry: int
    function_names: List[str]
    common_base_blob: bytes
    common_tree_blob: bytes
    segments: List[SegmentSections]
    item_streams: List[bytes]
    #: physical placement permutation (``order[slot] = logical findex``);
    #: ``None`` for plain source-order containers.  ``item_streams`` is
    #: ALWAYS logical (program) order — the permutation only records how
    #: the bytes are (or will be) placed on disk.
    function_order: Optional[List[int]] = None
    #: encoded profile-hint payload (``repro.core.hints``); empty when absent
    profile_hints_blob: bytes = b""

    def section_sizes(self) -> dict:
        """Per-section byte accounting for reports."""
        return {
            "names": len(lz77.compress("\n".join(self.function_names).encode())),
            "common_bases": len(self.common_base_blob),
            "common_tree": len(self.common_tree_blob),
            "segment_bases": sum(len(s.base_blob) for s in self.segments),
            "segment_trees": sum(len(s.tree_blob) for s in self.segments),
            "items": sum(len(stream) for stream in self.item_streams),
            "profile_hints": len(self.profile_hints_blob),
        }


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


_SERIALIZE_BYTES = REGISTRY.counter(
    "container_serialize_bytes_total", "Container bytes written by serialize().")
_PARSE_BYTES = REGISTRY.counter(
    "container_parse_bytes_total", "Container bytes presented to parse().")


def serialize(sections: ContainerSections, version: int = FORMAT_VERSION) -> bytes:
    """Pack sections into container bytes.

    ``version=2`` (default) writes the checksummed ``SSD2`` layout;
    ``version=1`` writes the legacy ``SSD1`` layout (used by tests that
    pin backward compatibility).
    """
    if version not in (1, 2):
        raise ValueError(f"unsupported container version {version}")
    if len(sections.item_streams) != len(sections.function_names):
        raise ContainerError("one item stream per function required")
    order = sections.function_order
    if order is not None:
        if version != 2:
            raise ValueError(
                "profile-guided layout requires container version 2")
        if sorted(order) != list(range(len(sections.item_streams))):
            raise ContainerError(
                "function_order is not a permutation of the functions",
                section="function_order")
    elif sections.profile_hints_blob:
        raise ContainerError(
            "profile hints require a function_order (identity is fine)",
            section="profile_hints")
    with_crc = version == 2
    writer = ByteWriter()
    writer.write_bytes(MAGIC_V2 if with_crc else MAGIC)
    if with_crc:
        writer.write_u8(FORMAT_VERSION)
    body_start = len(writer)

    def write_blob(blob: bytes) -> None:
        writer.write_uvarint(len(blob))
        writer.write_bytes(blob)
        if with_crc:
            writer.write_u32(_crc(blob))

    name = sections.program_name.encode("utf-8")
    writer.write_uvarint(len(name))
    writer.write_bytes(name)
    writer.write_uvarint(sections.entry)
    writer.write_uvarint(len(sections.function_names))
    write_blob(lz77.compress("\n".join(sections.function_names).encode("utf-8")))
    write_blob(sections.common_base_blob)
    write_blob(sections.common_tree_blob)
    writer.write_uvarint(len(sections.segments))
    for segment in sections.segments:
        writer.write_uvarint(segment.first_function)
        writer.write_uvarint(segment.function_count)
        write_blob(segment.base_blob)
        write_blob(segment.tree_blob)
    if order is None:
        for stream in sections.item_streams:
            write_blob(stream)
    else:
        for findex in order:  # placement order: slot -> logical stream
            write_blob(sections.item_streams[findex])
        write_blob(encode_order(order))
    if with_crc:
        writer.write_u32(_crc(writer.getvalue()[body_start:]))
    if order is not None:
        write_blob(sections.profile_hints_blob)
    _SERIALIZE_BYTES.inc(len(writer.getvalue()))
    return writer.getvalue()


def _read_blob(reader: ByteReader, section: str, with_crc: bool,
               trace: Optional[List[SectionSpan]],
               strict: bool) -> "tuple[bytes, Optional[bool]]":
    length_offset = reader.position
    length = reader.read_uvarint()
    data_offset = reader.position
    payload = reader.read_bytes(length)
    crc_offset = -1
    crc_ok: Optional[bool] = None
    if with_crc:
        crc_offset = reader.position
        stored = reader.read_u32()
        crc_ok = _crc(payload) == stored
    if trace is not None:
        trace.append(SectionSpan(name=section, length_offset=length_offset,
                                 data_offset=data_offset, length=length,
                                 crc_offset=crc_offset, crc_ok=crc_ok))
    if strict and crc_ok is False:
        raise ChecksumMismatch(
            f"CRC32 mismatch: stored {stored:#010x}, "
            f"computed {_crc(payload):#010x}",
            section=section, offset=data_offset)
    return payload, crc_ok


def _probe_profiled(data: bytes, pos: int, function_count: int) -> bool:
    """Does the tail at ``pos`` parse as the profile-layout extension?

    Requires a CRC-valid function-order blob holding a real permutation,
    the 4-byte container CRC, and a structurally complete hint blob with
    nothing after it.  The hint blob's CRC is deliberately *not* checked
    here — a corrupt hint section still counts as the extension (and
    degrades to no hints); a corrupt order blob does not, so the plain
    path rejects the container via its CRC/trailing checks.
    """
    probe = ByteReader(data, pos)
    try:
        length = probe.read_uvarint()
        payload = probe.read_bytes(length)
        if _crc(payload) != probe.read_u32():
            return False
        decode_order(payload, function_count)
        probe.read_u32()  # container CRC; verified by the main path
        hint_length = probe.read_uvarint()
        probe.read_bytes(hint_length)
        probe.read_u32()  # hint CRC; mismatch degrades, not rejects
        return probe.at_end()
    except CorruptContainer:
        return False


def parse(data: bytes,
          limits: DecodeLimits = DEFAULT_LIMITS,
          trace: Optional[List[SectionSpan]] = None,
          strict: bool = True) -> ContainerSections:
    """Inverse of :func:`serialize` (both format versions).

    ``trace`` (optional) receives a :class:`SectionSpan` per section as it
    is walked — the machinery behind ``ssd verify`` and the fault
    injector.  ``strict=False`` records CRC mismatches in the trace
    instead of raising, so a report can keep walking past a corrupt
    section (structural errors still raise).
    """
    _PARSE_BYTES.inc(len(data))
    reader = ByteReader(data)
    magic = reader.read_bytes(4)
    if magic == MAGIC:
        with_crc = False
    elif magic == MAGIC_V2:
        with_crc = True
        version = reader.read_u8()
        if version != FORMAT_VERSION:
            raise ContainerError(f"unsupported container version {version}",
                                 section="header", offset=4)
    elif magic == MAGIC_V3:
        _refuse_v3()
    else:
        raise ContainerError("bad magic; not an SSD container",
                             section="header", offset=0)
    body_start = reader.position

    name_length = reader.read_uvarint()
    if name_length > 1 << 16:
        raise LimitExceeded(f"program name of {name_length} bytes",
                            section="header", offset=reader.position)
    try:
        program_name = reader.read_bytes(name_length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ContainerError(f"program name is not UTF-8: {exc}",
                             section="header") from exc
    entry = reader.read_uvarint()
    function_count = reader.read_uvarint()
    if function_count > limits.max_functions:
        raise LimitExceeded(
            f"container declares {function_count} functions "
            f"(limit {limits.max_functions})",
            section="header", offset=reader.position)
    if function_count and entry >= function_count:
        raise ContainerError(
            f"entry index {entry} out of range for {function_count} functions",
            section="header")
    name_blob, names_crc_ok = _read_blob(reader, "names", with_crc, trace, strict)
    function_names = []
    if names_crc_ok is not False:  # skip semantic decode of known-corrupt bytes
        try:
            joined = lz77.decompress(
                name_blob, max_output=limits.max_blob_output).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"function names are not UTF-8: {exc}",
                                 section="names") from exc
        except CorruptContainer as exc:
            raise exc.__class__(f"names: {exc}", section="names") from exc
        function_names = joined.split("\n") if joined else []
        if len(function_names) != function_count:
            raise ContainerError(
                f"expected {function_count} function names, "
                f"got {len(function_names)}", section="names")
    common_base_blob, _ = _read_blob(reader, "common_bases", with_crc, trace, strict)
    common_tree_blob, _ = _read_blob(reader, "common_tree", with_crc, trace, strict)
    segment_count = reader.read_uvarint()
    if segment_count > limits.max_segments:
        raise LimitExceeded(
            f"container declares {segment_count} segments "
            f"(limit {limits.max_segments})",
            section="header", offset=reader.position)
    segments = []
    for sindex in range(segment_count):
        first_function = reader.read_uvarint()
        seg_count = reader.read_uvarint()
        base_blob, _ = _read_blob(reader, f"segment[{sindex}].bases",
                                  with_crc, trace, strict)
        tree_blob, _ = _read_blob(reader, f"segment[{sindex}].tree",
                                  with_crc, trace, strict)
        segments.append(SegmentSections(first_function=first_function,
                                        function_count=seg_count,
                                        base_blob=base_blob,
                                        tree_blob=tree_blob))
    item_streams = [_read_blob(reader, f"items[{findex}]",
                               with_crc, trace, strict)[0]
                    for findex in range(function_count)]
    # A profile-guided container still has the function-order blob before
    # the 4-byte container CRC (and the hint blob after it); a plain one
    # has exactly the CRC left.  The tail only counts as the extension if
    # it fully parses as one — anything else falls through to the plain
    # path, where the CRC check / trailing-bytes check rejects it.
    profiled = (with_crc and reader.remaining > 4
                and _probe_profiled(data, reader.position, function_count))
    function_order: Optional[List[int]] = None
    if profiled:
        order_payload, order_crc_ok = _read_blob(
            reader, "function_order", with_crc, trace, strict)
        if order_crc_ok is not False:
            function_order = decode_order(order_payload, function_count)
            logical = list(item_streams)
            for slot, findex in enumerate(function_order):
                logical[findex] = item_streams[slot]
            item_streams = logical
    if with_crc:
        crc_offset = reader.position
        body = data[body_start:crc_offset]
        stored = reader.read_u32()
        crc_ok = _crc(body) == stored
        if trace is not None:
            trace.append(SectionSpan(name="container", length_offset=-1,
                                     data_offset=body_start, length=len(body),
                                     crc_offset=crc_offset, crc_ok=crc_ok))
        if strict and not crc_ok:
            raise ChecksumMismatch(
                f"container CRC32 mismatch: stored {stored:#010x}, "
                f"computed {_crc(body):#010x}",
                section="container", offset=crc_offset)
    profile_hints_blob = b""
    if profiled:
        # Advisory section: never strict — a corrupt hint blob degrades
        # to no hints, it must not fail an otherwise-good container.
        hint_payload, hint_crc_ok = _read_blob(
            reader, "profile_hints", with_crc, trace, strict=False)
        if hint_crc_ok is not False:
            profile_hints_blob = hint_payload
    if not reader.at_end():
        raise ContainerError(f"{reader.remaining} trailing bytes in container",
                             offset=reader.position)
    return ContainerSections(program_name=program_name, entry=entry,
                             function_names=function_names,
                             common_base_blob=common_base_blob,
                             common_tree_blob=common_tree_blob,
                             segments=segments, item_streams=item_streams,
                             function_order=function_order,
                             profile_hints_blob=profile_hints_blob)


def _refuse_v3() -> NoReturn:
    raise ContainerError(
        "version-3 (SSD3) envelope is retired; only SSD1 and SSD2 "
        "containers are readable", section="header", offset=0)


def container_version(data: bytes) -> int:
    """The format version of ``data`` (1 or 2); raises on any other magic,
    the retired ``SSD3`` envelope included."""
    if data[:4] == MAGIC:
        return 1
    if data[:4] == MAGIC_V2:
        return 2
    if data[:4] == MAGIC_V3:
        _refuse_v3()
    raise ContainerError("bad magic; not an SSD container",
                         section="header", offset=0)


@dataclass
class IntegrityReport:
    """Outcome of a structural + checksum walk over container bytes."""

    version: int
    spans: List[SectionSpan] = field(default_factory=list)
    #: structural error that stopped the walk, if any
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(
            span.crc_ok is not False for span in self.spans)

    @property
    def corrupt_sections(self) -> List[SectionSpan]:
        return [span for span in self.spans if span.crc_ok is False]


def integrity_report(data: bytes,
                     limits: DecodeLimits = DEFAULT_LIMITS) -> IntegrityReport:
    """Check magic/version/CRCs without decoding dictionary contents.

    Walks every section, recording per-section CRC status; keeps going
    past checksum failures (structural failures necessarily stop the
    walk).  Never raises on corrupt input.
    """
    spans: List[SectionSpan] = []
    try:
        version = container_version(data)
    except CorruptContainer as exc:
        return IntegrityReport(version=0, spans=spans, error=str(exc))
    report = IntegrityReport(version=version, spans=spans)
    try:
        parse(data, limits=limits, trace=spans, strict=False)
    except CorruptContainer as exc:
        report.error = str(exc)
    return report
