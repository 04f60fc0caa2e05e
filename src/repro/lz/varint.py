"""LEB128-style variable-length integers.

The container format (``repro.core.container``) stores counts, offsets and
field values with these helpers so small values cost one byte.  Signed
values use zig-zag mapping, which keeps small-magnitude negatives short —
important for the delta coder, whose deltas hover around zero.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from .. import kernels as _kernels
from ..errors import LimitExceeded, TruncatedStream
from ..kernels import varints as _kernel_varints

#: below this run length the vectorized varint kernel's setup costs more
#: than the scalar loop
_RUN_KERNEL_MIN = 8

_T = TypeVar("_T")


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as LEB128 bytes."""
    if value < 0:
        raise ValueError(f"uvarint requires a non-negative value, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> "tuple[int, int]":
    """Decode a LEB128 integer from ``data`` at ``offset``.

    Returns ``(value, next_offset)``.
    """
    value = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise TruncatedStream("truncated uvarint", offset=pos)
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise LimitExceeded(
                "uvarint too long (more than 9 continuation bytes)",
                offset=offset)


def zigzag_encode(value: int) -> int:
    """Map a signed integer to an unsigned one with small magnitudes first."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    if value < 0:
        raise ValueError(f"zigzag-encoded value must be non-negative, got {value}")
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def encode_svarint(value: int) -> bytes:
    """Encode a signed integer (zig-zag + LEB128)."""
    return encode_uvarint(zigzag_encode(value))


def decode_svarint(data: bytes, offset: int = 0) -> "tuple[int, int]":
    """Decode a signed integer written by :func:`encode_svarint`."""
    raw, pos = decode_uvarint(data, offset)
    return zigzag_decode(raw), pos


class ByteReader:
    """Cursor over a byte buffer with varint/fixed-width accessors."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._pos = offset

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        return self._pos >= len(self._data)

    def read_uvarint(self) -> int:
        value, self._pos = decode_uvarint(self._data, self._pos)
        return value

    def read_svarint(self) -> int:
        value, self._pos = decode_svarint(self._data, self._pos)
        return value

    def read_with(self, decode: Callable[..., "tuple[_T, int]"],
                  *args: object) -> _T:
        """Run ``decode(data, pos, *args) -> (value, next_pos)`` at the
        cursor, advance past what it consumed, and return ``value``."""
        value, self._pos = decode(self._data, self._pos, *args)
        return value

    def read_uvarint_run(self, count: int) -> "list[int]":
        """Read ``count`` consecutive uvarints, bulk-decoded when possible.

        The numpy kernel is speculative: truncated or overlong runs fall
        back to the scalar loop, which raises the documented errors at
        the exact failing offset.
        """
        if count <= 0:
            return []
        if _kernels.backend() == "numpy" and count >= _RUN_KERNEL_MIN:
            decoded = _kernel_varints.try_decode_uvarint_run(
                self._data, self._pos, count)
            if decoded is not None:
                values, self._pos = decoded
                _kernels.record_batch("varint_run")
                return values
            _kernels.record_fallback("varint_run")
        read = self.read_uvarint
        return [read() for _ in range(count)]

    def read_svarint_run(self, count: int) -> "list[int]":
        """Zig-zag variant of :meth:`read_uvarint_run`."""
        if count <= 0:
            return []
        if _kernels.backend() == "numpy" and count >= _RUN_KERNEL_MIN:
            decoded = _kernel_varints.try_decode_svarint_run(
                self._data, self._pos, count)
            if decoded is not None:
                values, self._pos = decoded
                _kernels.record_batch("varint_run")
                return values
            _kernels.record_fallback("varint_run")
        read = self.read_svarint
        return [read() for _ in range(count)]

    def read_u8_run(self, count: int) -> "list[int]":
        """Read ``count`` bytes as a list of ints (one slab slice).

        Truncation raises exactly what the ``count``-th scalar
        :meth:`read_u8` would: the cursor stops at the end of the buffer
        and the error reports the single missing byte there.
        """
        if count <= 0:
            return []
        if self.remaining < count:
            self._pos = len(self._data)
            raise TruncatedStream(
                "truncated byte block: need 1 bytes, 0 remain",
                offset=self._pos)
        chunk = self._data[self._pos:self._pos + count]
        self._pos += count
        return list(chunk)

    def read_bytes(self, count: int) -> bytes:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if self._pos + count > len(self._data):
            raise TruncatedStream(
                f"truncated byte block: need {count} bytes, "
                f"{len(self._data) - self._pos} remain", offset=self._pos)
        chunk = self._data[self._pos:self._pos + count]
        self._pos += count
        return chunk

    def read_u8(self) -> int:
        return self.read_bytes(1)[0]

    def read_u16(self) -> int:
        chunk = self.read_bytes(2)
        return chunk[0] | (chunk[1] << 8)

    def read_u32(self) -> int:
        chunk = self.read_bytes(4)
        return chunk[0] | (chunk[1] << 8) | (chunk[2] << 16) | (chunk[3] << 24)


class ByteWriter:
    """Growable byte buffer with varint/fixed-width emitters."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def __len__(self) -> int:
        return len(self._buf)

    def write_uvarint(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"uvarint requires a non-negative value, got {value}")
        append = self._buf.append
        while value > 0x7F:
            append(value & 0x7F | 0x80)
            value >>= 7
        append(value)

    def write_svarint(self, value: int) -> None:
        self._buf += encode_svarint(value)

    def write_svarint_run(self, values: Iterable[int]) -> None:
        """Write each value as :meth:`write_svarint` does, in one loop."""
        write = self.write_uvarint
        for value in values:
            write(zigzag_encode(value))

    def write_bytes(self, data: bytes) -> None:
        self._buf += data

    def write_u8(self, value: int) -> None:
        if not 0 <= value < 1 << 8:
            raise ValueError(f"u8 out of range: {value}")
        self._buf.append(value)

    def write_u16(self, value: int) -> None:
        if not 0 <= value < 1 << 16:
            raise ValueError(f"u16 out of range: {value}")
        self._buf.append(value & 0xFF)
        self._buf.append(value >> 8)

    def write_u32(self, value: int) -> None:
        if not 0 <= value < 1 << 32:
            raise ValueError(f"u32 out of range: {value}")
        for shift in (0, 8, 16, 24):
            self._buf.append((value >> shift) & 0xFF)

    def getvalue(self) -> bytes:
        return bytes(self._buf)
