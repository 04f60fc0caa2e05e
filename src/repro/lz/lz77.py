"""A simple byte-oriented LZ77 codec.

The paper uses "a simple form of LZ compression" over the concatenated,
sorted instruction groups when compressing base dictionary entries
(section 2.2.1), and cites byte-oriented LZ as the canonical
stream-oriented, *non*-interpretable compressor (section 2).  This module
plays both roles:

* :func:`compress` / :func:`decompress` are used by
  ``repro.core.base_entries`` to pack the split streams.
* ``repro.analysis.ratios`` uses the same codec as a whole-program
  byte-oriented baseline, illustrating why split-stream methods beat
  byte-aligned matching on instruction data.
* ``repro.delta.patch`` uses it as its byte-delta coder: given a
  ``base``, the match window starts out holding the base bytes, so a
  back-reference can copy from the previous version of a blob and only
  the target is emitted.  Patches pass ``window=None``: a code update
  copies from anywhere in the previous version, not just its last 64 KiB.

The format is deliberately simple (the paper stresses that SSD needs only a
few pages of code): a token stream where each token is either a literal run
or a back-reference, with varint-coded lengths and distances.  Matching keys
a table on each position's 4-byte prefix (the bytes themselves, so a chain
holds exactly the positions that share those bytes) with bounded chain
search — greedy, like the original LZ77 family.
"""

from __future__ import annotations

from typing import Optional

from .. import kernels as _kernels
from ..errors import CorruptContainer, LimitExceeded
from ..kernels.varints import TABLE_MAX_BYTES, TABLE_MIN_BYTES, uvarint_table
from ..obs import REGISTRY
from .varint import ByteReader, ByteWriter

_ENCODE_BYTES = REGISTRY.counter(
    "lz_encode_bytes_total", "Raw bytes fed into the LZ77 encoder.")
_DECODE_BYTES = REGISTRY.counter(
    "lz_decode_bytes_total", "Bytes reconstructed by the LZ77 decoder.")

#: default cap on the declared decompressed size — corrupt or hostile
#: streams cannot make :func:`decompress` allocate beyond this.
MAX_OUTPUT_BYTES = 1 << 26

_MIN_MATCH = 4
_MAX_CHAIN = 32
_WINDOW = 1 << 16
#: Hash-chain lists are trimmed back to ``_MAX_CHAIN`` entries once they
#: grow past this, bounding memory on degenerate (highly repetitive) input.
#: Only the most recent ``_MAX_CHAIN`` candidates are ever consulted, so
#: trimming older ones never changes the output.
_CHAIN_CAP = 4 * _MAX_CHAIN


def compress(data: bytes, *, base: bytes = b"",
             window: Optional[int] = _WINDOW) -> bytes:
    """Compress ``data``; always decompressible by :func:`decompress`.

    Token format (varints):

    * literal run:   ``0, length, <length raw bytes>``
    * back-reference: ``length (>= 1), distance`` meaning "copy ``length + 3``
      bytes from ``distance`` bytes back".  Overlapping copies are allowed.

    With a ``base``, distances count back through ``base + data``, so a
    copy may reach into the base; the stream declares and carries only
    ``data``.  ``window`` caps the distance (``None``: no cap).
    """
    writer = ByteWriter()
    put_uvarint = writer.write_uvarint
    put_uvarint(len(data))
    # Chains are keyed on the 4 bytes at each position, so every
    # candidate in a chain already matches the first _MIN_MATCH bytes.
    table: dict = {}
    table_get = table.get
    table_setdefault = table.setdefault
    origin = len(base)
    if origin:
        data = base + data
        # Seed the table with the base: every position up to 64 KiB,
        # every other one past that, so seeding a big base stays cheap
        # while match starts remain dense enough to find long copies.
        step = 1 if origin <= (1 << 16) else 2
        for pos in range(0, origin - _MIN_MATCH + 1, step):
            chain = table_setdefault(data[pos:pos + _MIN_MATCH], [])
            chain.append(pos)
            if len(chain) > _CHAIN_CAP:
                del chain[:-_MAX_CHAIN]
    pos = literal_start = origin
    n = len(data)
    last_start = n - _MIN_MATCH
    max_dist = window if window is not None else n

    def flush_literals(end: int) -> None:
        if end > literal_start:
            put_uvarint(0)
            put_uvarint(end - literal_start)
            writer.write_bytes(data[literal_start:end])

    while pos <= last_start:
        key = data[pos:pos + _MIN_MATCH]
        candidates = table_get(key)
        if candidates is None:
            table[key] = [pos]
            pos += 1
            continue
        # Walk the newest _MAX_CHAIN candidates in place, most recent
        # first.  Distance grows monotonically as we walk back, so the
        # first out-of-window candidate ends the scan.
        best_len = 0
        best_dist = 0
        limit = n - pos
        lo = len(candidates) - _MAX_CHAIN
        if lo < 0:
            lo = 0
        for cidx in range(len(candidates) - 1, lo - 1, -1):
            cand = candidates[cidx]
            dist = pos - cand
            if dist > max_dist:
                break
            if best_len:
                if best_len >= limit:
                    break
                # A candidate can only beat best_len if it also matches
                # at offset best_len; reject cheaply otherwise.
                if data[cand + best_len] != data[pos + best_len]:
                    continue
            # Extend the match past the shared key: 16-byte slice
            # compares, then a byte tail.
            length = _MIN_MATCH
            while (length + 16 <= limit
                   and data[cand + length:cand + length + 16]
                   == data[pos + length:pos + length + 16]):
                length += 16
            while length < limit and data[cand + length] == data[pos + length]:
                length += 1
            if length > best_len:
                best_len = length
                best_dist = dist
        if not best_len:
            candidates.append(pos)
            if len(candidates) > _CHAIN_CAP:
                del candidates[:-_MAX_CHAIN]
            pos += 1
            continue
        flush_literals(pos)
        put_uvarint(best_len - _MIN_MATCH + 1)
        put_uvarint(best_dist)
        # Register the positions inside the match so later data can refer
        # into it (sparsely, to bound compressor time).
        end = pos + best_len
        for inner in range(pos, min(end, last_start + 1),
                           1 if best_len <= 32 else 4):
            chain = table_setdefault(data[inner:inner + _MIN_MATCH], [])
            chain.append(inner)
            if len(chain) > _CHAIN_CAP:
                del chain[:-_MAX_CHAIN]
        pos = literal_start = end
    flush_literals(n)
    _ENCODE_BYTES.inc(n - origin)
    return writer.getvalue()


def decompress(data: bytes, max_output: int = MAX_OUTPUT_BYTES, *,
               base: bytes = b"") -> bytes:
    """Inverse of :func:`compress` given the same ``base``.

    Every token's declared length is validated against the stream's
    declared output size *before* any bytes are materialized, so a lying
    length field raises :class:`~repro.errors.CorruptContainer` (or
    :class:`~repro.errors.LimitExceeded` for the declared size itself)
    instead of over-allocating or silently producing short output.

    The output buffer starts out holding ``base``, so back-references
    resolve into it; only the bytes after it are returned.

    On the numpy backend, mid-size streams take a split-plane fast path:
    all varints are pre-decoded into a per-offset table (one vectorized
    pass) and the token walk does only list indexing.  The fast path is
    speculative — any anomaly re-runs this scalar decoder, which owns the
    error semantics.
    """
    if (_kernels.backend() == "numpy"
            and TABLE_MIN_BYTES <= len(data) <= TABLE_MAX_BYTES):
        result = _decompress_table(data, max_output, base)
        if result is not None:
            _DECODE_BYTES.inc(len(result))
            _kernels.record_batch("lz77")
            return result
        _kernels.record_fallback("lz77")
    return _decompress_scalar(data, max_output, base)


def _output(out: bytearray, origin: int) -> bytes:
    """The decoded bytes after the base, copied once."""
    return bytes(memoryview(out)[origin:]) if origin else bytes(out)


def _decompress_table(data: bytes, max_output: int,
                      base: bytes) -> Optional[bytes]:
    """Token walk over the pre-decoded varint plane; ``None`` on anomaly."""
    values, nexts = uvarint_table(data)
    n = len(data)
    if n == 0:
        return None
    expected = values[0]
    pos = nexts[0]
    if pos < 0 or expected > max_output:
        return None
    out = bytearray(base)
    total = len(base) + expected
    data_mv = memoryview(data)
    while len(out) < total:
        if not 0 <= pos < n:
            return None  # truncated token stream
        tag = values[pos]
        pos = nexts[pos]
        # Every token carries a second varint; a cursor at/past the end
        # here means the stream was cut mid-token.
        if not 0 <= pos < n:
            return None
        if tag == 0:
            length = values[pos]
            run_at = nexts[pos]
            if run_at < 0 or length > total - len(out) or run_at + length > n:
                return None
            out += data_mv[run_at:run_at + length]
            pos = run_at + length
        else:
            length = tag + _MIN_MATCH - 1
            dist = values[pos]
            pos = nexts[pos]
            if pos < 0 or length > total - len(out):
                return None
            if dist == 0 or dist > len(out):
                return None
            start = len(out) - dist
            if dist >= length:
                out += out[start:start + length]
            else:
                chunk = bytes(out[start:])
                while len(chunk) < length:
                    chunk += chunk
                out += chunk[:length]
    return _output(out, len(base))


def _decompress_scalar(data: bytes, max_output: int, base: bytes) -> bytes:
    reader = ByteReader(data)
    expected = reader.read_uvarint()
    if expected > max_output:
        raise LimitExceeded(
            f"LZ stream declares {expected} output bytes, limit {max_output}",
            offset=0)
    origin = len(base)
    out = bytearray(base)
    total = origin + expected
    while len(out) < total:
        token_at = reader.position
        tag = reader.read_uvarint()
        if tag == 0:
            length = reader.read_uvarint()
            if length > total - len(out):
                raise CorruptContainer(
                    f"corrupt LZ stream: literal run of {length} overruns the "
                    f"declared {expected}-byte output at {len(out) - origin}",
                    offset=token_at)
            out += reader.read_bytes(length)
        else:
            length = tag + _MIN_MATCH - 1
            dist = reader.read_uvarint()
            if length > total - len(out):
                raise CorruptContainer(
                    f"corrupt LZ stream: copy of {length} overruns the "
                    f"declared {expected}-byte output at {len(out) - origin}",
                    offset=token_at)
            if dist == 0 or dist > len(out):
                raise CorruptContainer(
                    f"corrupt LZ stream: distance {dist} at output size {len(out)}",
                    offset=token_at)
            start = len(out) - dist
            if dist >= length:
                out += out[start:start + length]
            else:
                # Overlapping copy: the source region repeats with period
                # ``dist``.  Double a seed slice until it covers ``length``
                # instead of appending byte by byte.
                chunk = bytes(out[start:])
                while len(chunk) < length:
                    chunk += chunk
                out += chunk[:length]
    _DECODE_BYTES.inc(len(out) - origin)
    return _output(out, origin)
