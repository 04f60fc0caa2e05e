"""The unified error taxonomy for hostile-input and resource faults.

Every failure a *byte-level decoder* can hit maps onto one of the types
below, so callers handle exactly one hierarchy instead of a grab bag of
``IndexError``/``struct.error`` internals.  The classes multiply-inherit
from the builtin exceptions historical callers caught (``ValueError``,
``EOFError``), so pre-taxonomy code keeps working:

* :class:`CorruptContainer` — structurally invalid bytes (root of the
  decode-error branch; also a ``ValueError``);
* :class:`ChecksumMismatch` — bytes contradict a stored CRC32;
* :class:`TruncatedStream` — input ended mid-field (also an ``EOFError``);
* :class:`LimitExceeded` — input is well-formed so far but would exceed a
  decode resource limit (expansion size, entry counts, varint width);
* :class:`BriscError` — a BRISC pattern stream or external dictionary is
  undecodable (a ``CorruptContainer`` so sweeps classify it with SSD's);
* :class:`BufferCapacityError` — a function cannot be placed in the JIT
  translation buffer (allocation failure, capacity exceeded).

Decode errors carry ``offset`` (byte position in the input being decoded)
and ``section`` (the container section name) when known, both reflected
in the rendered message.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Root of the library's typed error hierarchy."""


class FaultInjectionError(ReproError):
    """Raised by ``repro.faults`` for misuse of the harness itself."""


class CorruptContainer(ReproError, ValueError):
    """Container (or sub-stream) bytes are structurally invalid.

    ``offset`` is the byte position within the stream being decoded at
    which the inconsistency was detected; ``section`` names the container
    section when the decoder knows it; ``reason`` is the message without
    either.
    """

    def __init__(self, message: str, *,
                 offset: Optional[int] = None,
                 section: Optional[str] = None) -> None:
        self.reason = message
        self.offset = offset
        self.section = section
        detail = message
        if section is not None:
            detail += f" [section: {section}]"
        if offset is not None:
            detail += f" [byte offset {offset}]"
        super().__init__(detail)


class ChecksumMismatch(CorruptContainer):
    """Stored CRC32 disagrees with the bytes it covers."""


class TruncatedStream(CorruptContainer, EOFError):
    """Input ended in the middle of a field or declared region."""


class LimitExceeded(CorruptContainer):
    """Decoding would exceed a resource limit (size, count, expansion)."""


class BriscError(CorruptContainer):
    """A BRISC stream or pattern dictionary cannot be decoded.

    Promoted from ``repro.brisc.codec`` (where it was a bare
    ``ValueError``) so fault-sweep classification treats BRISC decode
    failures exactly like SSD container corruption; the original name
    remains importable from ``repro.brisc`` as an alias of this class.
    """


class BufferCapacityError(ReproError, ValueError):
    """A function cannot be placed in the JIT translation buffer."""


class ProtocolError(ReproError, ValueError):
    """A ``repro.serve`` wire frame is malformed (bad magic, CRC, version).

    Raised on both sides of the connection when received bytes cannot be
    framed or decoded; the connection is unrecoverable past this point
    because frame boundaries are lost.
    """

    def __init__(self, message: str, *,
                 offset: Optional[int] = None) -> None:
        self.offset = offset
        detail = message
        if offset is not None:
            detail += f" [byte offset {offset}]"
        super().__init__(detail)


class UnavailableError(ReproError):
    """The service cannot answer right now and says so cleanly.

    Raised by the cluster router when no live replica of a key remains
    (the cluster is below quorum for that key), by a draining server
    refusing new work, and by the retrying client when every attempt
    exhausted its backoff budget without reaching a live peer.  On the
    wire it travels as ``E_UNAVAILABLE``.  Unlike :class:`RemoteError`
    it signals *capacity/topology*, never a bad request: the same
    request can succeed verbatim once a replica returns.
    """

    def __init__(self, message: str, *, attempts: int = 0) -> None:
        self.attempts = attempts
        detail = message
        if attempts:
            detail += f" [after {attempts} attempts]"
        super().__init__(detail)


class RemoteError(ReproError):
    """The server answered a ``repro.serve`` request with an ERROR frame.

    ``code`` is the wire error code (see ``repro.serve.protocol`` and
    docs/PROTOCOL.md); ``code_name`` its symbolic name when known.
    """

    def __init__(self, message: str, *, code: int,
                 code_name: str = "") -> None:
        self.code = code
        self.code_name = code_name or f"E_{code}"
        super().__init__(f"[{self.code_name}] {message}")


class DeltaError(CorruptContainer):
    """A ``repro.delta`` patch is undecodable or unapplicable.

    Covers structural patch damage (bad header, truncated diff, a chain
    that cycles) and reconstruction failures (the applied result does
    not hash to the patch's declared target).  A ``CorruptContainer``
    so fault sweeps classify patch corruption with every other decode
    fault.
    """


class BaseMismatch(DeltaError):
    """The base supplied to patch application is not the patch's base.

    ``expected`` and ``got`` are hex SHA-256 digests.  Raised *before*
    any reconstruction happens, so a wrong base can never produce a
    wrong container.
    """

    def __init__(self, message: str, *, expected: str = "",
                 got: str = "") -> None:
        self.expected = expected
        self.got = got
        super().__init__(message)


class NoBaseError(ReproError):
    """A delta was requested against a base this store does not hold.

    Deliberately *not* a :class:`CorruptContainer` (nothing is corrupt)
    and not a ``KeyError`` (which the serve dispatch maps to
    ``E_NOT_FOUND``): on the wire it travels as ``E_NO_BASE``, the
    negotiation signal telling the client to fall back to a full
    container transfer.
    """

    def __init__(self, message: str, *, base_hash: str = "") -> None:
        self.base_hash = base_hash
        super().__init__(message)


def as_corrupt(exc: BaseException, *, section: Optional[str] = None,
               offset: Optional[int] = None) -> CorruptContainer:
    """Wrap a non-taxonomy exception as :class:`CorruptContainer`.

    Decoder boundaries use this to guarantee that whatever a lower layer
    raised (legacy ``ValueError``/``EOFError``), the caller sees a typed
    error; the original exception is preserved as ``__cause__`` by the
    ``raise ... from`` at the call site.
    """
    if isinstance(exc, CorruptContainer):
        return exc
    if isinstance(exc, EOFError):
        return TruncatedStream(str(exc) or exc.__class__.__name__,
                               section=section, offset=offset)
    return CorruptContainer(str(exc) or exc.__class__.__name__,
                            section=section, offset=offset)
