"""The ``repro.serve`` wire protocol: varint-framed, versioned, CRC-carrying.

Every message travels as one *frame*::

    uvarint  payload length (LEB128, repro.lz.varint)
    payload  (exactly that many bytes)
    u32      CRC32 over the payload (little-endian)

and every payload starts with the same header::

    u8       protocol version (currently 1)
    u8       message type
    uvarint  request id (echoed verbatim in the response)
    ...      type-specific body

Containers are addressed by the SHA-256 of their bytes (32 raw bytes on
the wire, lowercase hex in Python APIs) — the same fingerprint
``SSDReader.container_hash`` uses for the instruction-table memo.

Malformed bytes raise :class:`repro.errors.ProtocolError`; a server
ERROR frame surfaces client-side as :class:`repro.errors.RemoteError`.
The full specification lives in docs/PROTOCOL.md.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import BinaryIO, Iterator, List, Optional, Tuple

from ..errors import CorruptContainer, ProtocolError
from ..isa import Function, Instruction
from ..isa.encoding import decode_instructions, encode_instructions
from ..lz.varint import ByteReader, ByteWriter, decode_uvarint, encode_uvarint

#: protocol version this implementation speaks.  Version 2 added a
#: codec id to OK_META.  Version 3 adds the code-update surface: whole-
#: container fetch (GET_CONTAINER), delta fetch (GET_DELTA with the
#: E_NO_BASE negotiation), and a codec wire id + container version in
#: OK_META.  SSD is the only codec, so the two codec fields are the
#: constants below: written as-is, skipped on read.
PROTOCOL_VERSION = 3

#: OK_META's codec id and codec wire id (fixed; kept for layout only)
META_CODEC_ID = b"ssd"
META_CODEC_WIRE_ID = 1

#: frames larger than this are rejected before allocation (both sides)
MAX_FRAME_BYTES = 1 << 26

#: SHA-256 container ids travel as raw bytes
CONTAINER_ID_BYTES = 32

# -- message types ----------------------------------------------------------

PUT_CONTAINER = 0x01
GET_META = 0x02
GET_FUNCTION = 0x03
GET_BLOCK = 0x04
STATS = 0x05
GET_METRICS = 0x06
HEALTH = 0x07
GET_CONTAINER = 0x08
GET_DELTA = 0x09

OK_PUT = 0x81
OK_META = 0x82
OK_FUNCTION = 0x83
OK_BLOCK = 0x84
OK_STATS = 0x85
OK_METRICS = 0x86
OK_HEALTH = 0x87
OK_CONTAINER = 0x88
OK_DELTA = 0x89
ERROR = 0xFF

TYPE_NAMES = {
    PUT_CONTAINER: "PUT_CONTAINER",
    GET_META: "GET_META",
    GET_FUNCTION: "GET_FUNCTION",
    GET_BLOCK: "GET_BLOCK",
    STATS: "STATS",
    GET_METRICS: "GET_METRICS",
    HEALTH: "HEALTH",
    GET_CONTAINER: "GET_CONTAINER",
    GET_DELTA: "GET_DELTA",
    OK_PUT: "OK_PUT",
    OK_META: "OK_META",
    OK_FUNCTION: "OK_FUNCTION",
    OK_BLOCK: "OK_BLOCK",
    OK_STATS: "OK_STATS",
    OK_METRICS: "OK_METRICS",
    OK_HEALTH: "OK_HEALTH",
    OK_CONTAINER: "OK_CONTAINER",
    OK_DELTA: "OK_DELTA",
    ERROR: "ERROR",
}

REQUEST_TYPES = (PUT_CONTAINER, GET_META, GET_FUNCTION, GET_BLOCK, STATS,
                 GET_METRICS, HEALTH, GET_CONTAINER, GET_DELTA)

#: requests a server (shard or router) answers about itself; their body
#: is empty, and a draining shard keeps answering them
OBSERVABILITY_TYPES = frozenset((STATS, GET_METRICS, HEALTH))

# -- error codes ------------------------------------------------------------

E_BAD_REQUEST = 1     # unparseable body, unknown type, bad field values
E_NOT_FOUND = 2       # container id or function index unknown
E_CORRUPT = 3         # container failed verify-gated admission / decode
E_LIMIT = 4           # a DecodeLimits or frame-size ceiling was hit
E_TIMEOUT = 5         # the per-request deadline elapsed server-side
E_BUSY = 6            # backpressure: server refused to queue the request
E_INTERNAL = 7        # anything else (a server bug; still a clean answer)
E_VERSION = 8         # protocol version mismatch
E_UNAVAILABLE = 9     # shard draining / no live replica / below quorum
E_NO_BASE = 10        # GET_DELTA: the named base is not held here; the
                      # client should fall back to a full transfer

ERROR_NAMES = {
    E_BAD_REQUEST: "E_BAD_REQUEST",
    E_NOT_FOUND: "E_NOT_FOUND",
    E_CORRUPT: "E_CORRUPT",
    E_LIMIT: "E_LIMIT",
    E_TIMEOUT: "E_TIMEOUT",
    E_BUSY: "E_BUSY",
    E_INTERNAL: "E_INTERNAL",
    E_VERSION: "E_VERSION",
    E_UNAVAILABLE: "E_UNAVAILABLE",
    E_NO_BASE: "E_NO_BASE",
}

#: error codes safe to retry for idempotent requests (the answer may
#: change after backoff: load drains, a deadline stops slipping, a
#: replica fails over).  Everything else is definitive.
RETRYABLE_ERROR_CODES = frozenset((E_BUSY, E_TIMEOUT, E_UNAVAILABLE))

# -- health ----------------------------------------------------------------

#: HEALTH states a server reports about itself
HEALTH_OK = 0
HEALTH_DRAINING = 1

HEALTH_STATE_NAMES = {
    HEALTH_OK: "ok",
    HEALTH_DRAINING: "draining",
}


@dataclass(frozen=True)
class Message:
    """One decoded frame payload."""

    type: int
    request_id: int
    body: bytes = b""
    version: int = PROTOCOL_VERSION

    @property
    def type_name(self) -> str:
        return TYPE_NAMES.get(self.type, f"0x{self.type:02x}")


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


# -- framing ----------------------------------------------------------------

def encode_frame(message: Message) -> bytes:
    """Serialize a message into frame bytes ready for the socket."""
    writer = ByteWriter()
    writer.write_u8(message.version)
    writer.write_u8(message.type)
    writer.write_uvarint(message.request_id)
    writer.write_bytes(message.body)
    payload = writer.getvalue()
    out = ByteWriter()
    out.write_uvarint(len(payload))
    out.write_bytes(payload)
    out.write_u32(_crc(payload))
    return out.getvalue()


def parse_payload(payload: bytes, crc: Optional[int] = None) -> Message:
    """Decode a frame payload (and check ``crc`` when given)."""
    if crc is not None and _crc(payload) != crc:
        raise ProtocolError(
            f"frame CRC32 mismatch: stored {crc:#010x}, "
            f"computed {_crc(payload):#010x}")
    if len(payload) < 2:
        raise ProtocolError(f"frame payload of {len(payload)} bytes is "
                            "shorter than the fixed header")
    version = payload[0]
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version} "
                            f"(this side speaks {PROTOCOL_VERSION})")
    mtype = payload[1]
    try:
        request_id, offset = decode_uvarint(payload, 2)
    except ValueError as exc:
        raise ProtocolError(f"bad request id varint: {exc}") from exc
    return Message(type=mtype, request_id=request_id,
                   body=payload[offset:], version=version)


def read_frame(stream: BinaryIO,
               max_frame: int = MAX_FRAME_BYTES) -> Optional[Message]:
    """Read one frame from a blocking binary stream.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`ProtocolError` on truncation mid-frame, oversized frames, or
    CRC/version mismatch.  This is the synchronous (client-side) reader;
    shards and routers read with ``repro.serve.service.read_frame_async``.
    """
    length_bytes = bytearray()
    while True:
        chunk = stream.read(1)
        if not chunk:
            if not length_bytes:
                return None
            raise ProtocolError("connection closed mid frame-length varint")
        length_bytes += chunk
        if not chunk[0] & 0x80:
            break
        if len(length_bytes) > 10:
            raise ProtocolError("frame-length varint too long")
    length, _ = decode_uvarint(bytes(length_bytes))
    if length > max_frame:
        raise ProtocolError(f"frame of {length} bytes exceeds the "
                            f"{max_frame}-byte limit")
    payload = _read_exact(stream, length, "frame payload")
    crc_bytes = _read_exact(stream, 4, "frame CRC")
    crc = int.from_bytes(crc_bytes, "little")
    return parse_payload(payload, crc)


def _read_exact(stream: BinaryIO, count: int, what: str) -> bytes:
    data = b""
    while len(data) < count:
        chunk = stream.read(count - len(data))
        if not chunk:
            raise ProtocolError(f"connection closed mid {what} "
                                f"({len(data)}/{count} bytes)")
        data += chunk
    return data


# -- container ids ----------------------------------------------------------

def write_container_id(writer: ByteWriter, container_id: str) -> None:
    try:
        raw = bytes.fromhex(container_id)
    except ValueError as exc:
        raise ProtocolError(f"container id is not hex: {container_id!r}") from exc
    if len(raw) != CONTAINER_ID_BYTES:
        raise ProtocolError(f"container id must be {CONTAINER_ID_BYTES} bytes, "
                            f"got {len(raw)}")
    writer.write_bytes(raw)


def read_container_id(reader: ByteReader) -> str:
    return reader.read_bytes(CONTAINER_ID_BYTES).hex()


# -- request bodies ---------------------------------------------------------

def build_put(container: bytes) -> bytes:
    writer = ByteWriter()
    writer.write_uvarint(len(container))
    writer.write_bytes(container)
    return writer.getvalue()


def parse_put(body: bytes) -> bytes:
    reader = ByteReader(body)
    data = reader.read_bytes(reader.read_uvarint())
    _expect_end(reader, "PUT_CONTAINER")
    return data


def build_get_meta(container_id: str) -> bytes:
    writer = ByteWriter()
    write_container_id(writer, container_id)
    return writer.getvalue()


def parse_get_meta(body: bytes) -> str:
    reader = ByteReader(body)
    container_id = read_container_id(reader)
    _expect_end(reader, "GET_META")
    return container_id


def build_get_function(container_id: str, findex: int) -> bytes:
    writer = ByteWriter()
    write_container_id(writer, container_id)
    writer.write_uvarint(findex)
    return writer.getvalue()


def parse_get_function(body: bytes) -> Tuple[str, int]:
    reader = ByteReader(body)
    container_id = read_container_id(reader)
    findex = reader.read_uvarint()
    _expect_end(reader, "GET_FUNCTION")
    return container_id, findex


def build_get_block(container_id: str, findex: int,
                    start: int, count: int) -> bytes:
    writer = ByteWriter()
    write_container_id(writer, container_id)
    writer.write_uvarint(findex)
    writer.write_uvarint(start)
    writer.write_uvarint(count)
    return writer.getvalue()


def parse_get_block(body: bytes) -> Tuple[str, int, int, int]:
    reader = ByteReader(body)
    container_id = read_container_id(reader)
    findex = reader.read_uvarint()
    start = reader.read_uvarint()
    count = reader.read_uvarint()
    _expect_end(reader, "GET_BLOCK")
    return container_id, findex, start, count


def build_get_container(container_id: str) -> bytes:
    writer = ByteWriter()
    write_container_id(writer, container_id)
    return writer.getvalue()


def parse_get_container(body: bytes) -> str:
    reader = ByteReader(body)
    container_id = read_container_id(reader)
    _expect_end(reader, "GET_CONTAINER")
    return container_id


def build_get_delta(target_id: str, base_id: str) -> bytes:
    """GET_DELTA body: the *target* id first, then the base the client
    already holds (mirroring "give me X, I have Y")."""
    writer = ByteWriter()
    write_container_id(writer, target_id)
    write_container_id(writer, base_id)
    return writer.getvalue()


def parse_get_delta(body: bytes) -> Tuple[str, str]:
    """Returns ``(target_id, base_id)``."""
    reader = ByteReader(body)
    target_id = read_container_id(reader)
    base_id = read_container_id(reader)
    _expect_end(reader, "GET_DELTA")
    return target_id, base_id


# -- response bodies --------------------------------------------------------

def build_ok_put(container_id: str, function_count: int, entry: int) -> bytes:
    writer = ByteWriter()
    write_container_id(writer, container_id)
    writer.write_uvarint(function_count)
    writer.write_uvarint(entry)
    return writer.getvalue()


def parse_ok_put(body: bytes) -> Tuple[str, int, int]:
    reader = ByteReader(body)
    container_id = read_container_id(reader)
    function_count = reader.read_uvarint()
    entry = reader.read_uvarint()
    _expect_end(reader, "OK_PUT")
    return container_id, function_count, entry


def build_ok_meta(program_name: str, entry: int,
                  function_names: List[str],
                  container_version: int = 2) -> bytes:
    writer = ByteWriter()
    name = program_name.encode("utf-8")
    writer.write_uvarint(len(name))
    writer.write_bytes(name)
    writer.write_uvarint(entry)
    joined = "\n".join(function_names).encode("utf-8")
    writer.write_uvarint(len(function_names))
    writer.write_uvarint(len(joined))
    writer.write_bytes(joined)
    writer.write_uvarint(len(META_CODEC_ID))
    writer.write_bytes(META_CODEC_ID)
    writer.write_u8(META_CODEC_WIRE_ID)
    writer.write_u8(container_version)
    return writer.getvalue()


def parse_ok_meta(body: bytes) -> Tuple[str, int, List[str], int]:
    """Returns ``(program_name, entry, function_names, container_version)``;
    the codec id and codec wire id are read and discarded."""
    reader = ByteReader(body)
    try:
        program_name = reader.read_bytes(reader.read_uvarint()).decode("utf-8")
        entry = reader.read_uvarint()
        count = reader.read_uvarint()
        joined = reader.read_bytes(reader.read_uvarint()).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"OK_META strings are not UTF-8: {exc}") from exc
    reader.read_bytes(reader.read_uvarint())  # codec id
    reader.read_u8()                          # codec wire id
    container_version = reader.read_u8()
    names = joined.split("\n") if joined else []
    if len(names) != count:
        raise ProtocolError(f"OK_META declares {count} function names, "
                            f"carries {len(names)}")
    _expect_end(reader, "OK_META")
    return program_name, entry, names, container_version


def encode_instruction_slice(insns: List[Instruction], start: int) -> bytes:
    """Encode ``insns`` as VM bytecode, indexed from ``start``.

    Instruction encoding is position-dependent (branch displacements are
    pc-relative), so a block slice must be encoded with its true indices
    within the function; the receiver passes the same ``start`` back to
    :func:`decode_instruction_slice`.
    """
    return encode_uvarint(len(insns)) + encode_instructions(insns, start)


@contextmanager
def _malformed(what: str) -> Iterator[None]:
    """Re-raise a decode error from ``what``'s bytes as :class:`ProtocolError`."""
    try:
        yield
    except CorruptContainer as exc:
        raise ProtocolError(f"malformed {what}: {exc.reason}",
                            offset=exc.offset) from exc


def decode_instruction_slice(data: bytes, start: int) -> List[Instruction]:
    """Inverse of :func:`encode_instruction_slice`.

    Every malformed slice raises :class:`ProtocolError` carrying the byte
    offset within ``data``.
    """
    with _malformed("instruction slice"):
        count, pos = decode_uvarint(data, 0)
        insns, pos = decode_instructions(data, pos, count, start)
    if pos != len(data):
        raise ProtocolError(f"{len(data) - pos} trailing bytes in "
                            f"instruction slice body", offset=pos)
    return insns


def build_ok_function(findex: int, name: str,
                      insns: List[Instruction]) -> bytes:
    writer = ByteWriter()
    writer.write_uvarint(findex)
    encoded_name = name.encode("utf-8")
    writer.write_uvarint(len(encoded_name))
    writer.write_bytes(encoded_name)
    blob = encode_instruction_slice(insns, 0)
    writer.write_uvarint(len(blob))
    writer.write_bytes(blob)
    return writer.getvalue()


def parse_ok_function(body: bytes) -> Function:
    reader = ByteReader(body)
    with _malformed("OK_FUNCTION body"):
        reader.read_uvarint()  # findex (informational; the client asked)
        raw_name = reader.read_bytes(reader.read_uvarint())
        blob = reader.read_bytes(reader.read_uvarint())
    try:
        name = raw_name.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"OK_FUNCTION name is not UTF-8: {exc}") from exc
    _expect_end(reader, "OK_FUNCTION")
    return Function(name=name, insns=decode_instruction_slice(blob, 0))


def build_ok_block(findex: int, start: int, total: int,
                   insns: List[Instruction]) -> bytes:
    writer = ByteWriter()
    writer.write_uvarint(findex)
    writer.write_uvarint(start)
    writer.write_uvarint(total)
    blob = encode_instruction_slice(insns, start)
    writer.write_uvarint(len(blob))
    writer.write_bytes(blob)
    return writer.getvalue()


def parse_ok_block(body: bytes) -> Tuple[int, int, int, List[Instruction]]:
    """Returns ``(findex, start, total_instructions, instructions)``."""
    reader = ByteReader(body)
    with _malformed("OK_BLOCK body"):
        findex = reader.read_uvarint()
        start = reader.read_uvarint()
        total = reader.read_uvarint()
        blob = reader.read_bytes(reader.read_uvarint())
    _expect_end(reader, "OK_BLOCK")
    return findex, start, total, decode_instruction_slice(blob, start)


def build_ok_container(container: bytes) -> bytes:
    writer = ByteWriter()
    writer.write_uvarint(len(container))
    writer.write_bytes(container)
    return writer.getvalue()


def parse_ok_container(body: bytes) -> bytes:
    reader = ByteReader(body)
    data = reader.read_bytes(reader.read_uvarint())
    _expect_end(reader, "OK_CONTAINER")
    return data


def build_ok_delta(patch: bytes) -> bytes:
    writer = ByteWriter()
    writer.write_uvarint(len(patch))
    writer.write_bytes(patch)
    return writer.getvalue()


def parse_ok_delta(body: bytes) -> bytes:
    reader = ByteReader(body)
    patch = reader.read_bytes(reader.read_uvarint())
    _expect_end(reader, "OK_DELTA")
    return patch


def build_ok_stats(stats_json: bytes) -> bytes:
    writer = ByteWriter()
    writer.write_uvarint(len(stats_json))
    writer.write_bytes(stats_json)
    return writer.getvalue()


def parse_ok_stats(body: bytes) -> bytes:
    reader = ByteReader(body)
    blob = reader.read_bytes(reader.read_uvarint())
    _expect_end(reader, "OK_STATS")
    return blob


def build_ok_metrics(exposition: bytes) -> bytes:
    """OK_METRICS carries the Prometheus text exposition as UTF-8 bytes."""
    writer = ByteWriter()
    writer.write_uvarint(len(exposition))
    writer.write_bytes(exposition)
    return writer.getvalue()


def parse_ok_metrics(body: bytes) -> bytes:
    reader = ByteReader(body)
    blob = reader.read_bytes(reader.read_uvarint())
    _expect_end(reader, "OK_METRICS")
    return blob


@dataclass(frozen=True)
class HealthStatus:
    """What OK_HEALTH carries: the server's own view of its liveness.

    ``state`` is :data:`HEALTH_OK` or :data:`HEALTH_DRAINING`;
    ``inflight`` counts requests/decodes currently being worked;
    ``containers`` is the number of admitted containers (for a router
    answering on behalf of a cluster: the number of live shards).
    """

    state: int
    inflight: int
    containers: int

    @property
    def state_name(self) -> str:
        return HEALTH_STATE_NAMES.get(self.state, f"state-{self.state}")

    @property
    def ok(self) -> bool:
        return self.state == HEALTH_OK


def build_health() -> bytes:
    """HEALTH carries no body."""
    return b""


def build_ok_health(state: int, inflight: int, containers: int) -> bytes:
    writer = ByteWriter()
    writer.write_u8(state)
    writer.write_uvarint(inflight)
    writer.write_uvarint(containers)
    return writer.getvalue()


def parse_ok_health(body: bytes) -> HealthStatus:
    reader = ByteReader(body)
    state = reader.read_u8()
    inflight = reader.read_uvarint()
    containers = reader.read_uvarint()
    _expect_end(reader, "OK_HEALTH")
    if state not in HEALTH_STATE_NAMES:
        raise ProtocolError(f"unknown health state {state}")
    return HealthStatus(state=state, inflight=inflight, containers=containers)


def build_error(code: int, message: str) -> bytes:
    writer = ByteWriter()
    writer.write_u8(code)
    encoded = message.encode("utf-8")
    writer.write_uvarint(len(encoded))
    writer.write_bytes(encoded)
    return writer.getvalue()


def error_reply(request: Message, code: int, text: str) -> Message:
    """The ERROR response to ``request``."""
    return Message(type=ERROR, request_id=request.request_id,
                   body=build_error(code, text))


def parse_error(body: bytes) -> Tuple[int, str]:
    reader = ByteReader(body)
    code = reader.read_u8()
    try:
        message = reader.read_bytes(reader.read_uvarint()).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"ERROR message is not UTF-8: {exc}") from exc
    _expect_end(reader, "ERROR")
    return code, message


def _expect_end(reader: ByteReader, what: str) -> None:
    if not reader.at_end():
        raise ProtocolError(f"{reader.remaining} trailing bytes "
                            f"in {what} body")


__all__ = [
    "CONTAINER_ID_BYTES",
    "ERROR",
    "ERROR_NAMES",
    "E_BAD_REQUEST",
    "E_BUSY",
    "E_CORRUPT",
    "E_INTERNAL",
    "E_LIMIT",
    "E_NOT_FOUND",
    "E_NO_BASE",
    "E_TIMEOUT",
    "E_UNAVAILABLE",
    "E_VERSION",
    "GET_BLOCK",
    "GET_CONTAINER",
    "GET_DELTA",
    "GET_FUNCTION",
    "GET_META",
    "GET_METRICS",
    "HEALTH",
    "HEALTH_DRAINING",
    "HEALTH_OK",
    "HEALTH_STATE_NAMES",
    "HealthStatus",
    "MAX_FRAME_BYTES",
    "Message",
    "OBSERVABILITY_TYPES",
    "OK_BLOCK",
    "OK_CONTAINER",
    "OK_DELTA",
    "OK_FUNCTION",
    "OK_HEALTH",
    "OK_META",
    "OK_METRICS",
    "OK_PUT",
    "OK_STATS",
    "PROTOCOL_VERSION",
    "PUT_CONTAINER",
    "REQUEST_TYPES",
    "RETRYABLE_ERROR_CODES",
    "STATS",
    "TYPE_NAMES",
    "build_error",
    "build_get_block",
    "build_get_container",
    "build_get_delta",
    "build_get_function",
    "build_get_meta",
    "build_health",
    "build_ok_block",
    "build_ok_container",
    "build_ok_delta",
    "build_ok_function",
    "build_ok_health",
    "build_ok_meta",
    "build_ok_metrics",
    "build_ok_put",
    "build_ok_stats",
    "build_put",
    "decode_instruction_slice",
    "encode_frame",
    "encode_instruction_slice",
    "error_reply",
    "parse_error",
    "parse_ok_health",
    "parse_get_block",
    "parse_get_container",
    "parse_get_delta",
    "parse_get_function",
    "parse_get_meta",
    "parse_ok_block",
    "parse_ok_container",
    "parse_ok_delta",
    "parse_ok_function",
    "parse_ok_meta",
    "parse_ok_metrics",
    "parse_ok_put",
    "parse_ok_stats",
    "parse_payload",
    "parse_put",
    "read_frame",
]
