"""Codec interfaces: what a pluggable program codec must provide.

A *codec* turns a :class:`repro.isa.Program` into container bytes and
back.  SSD is one point in that design space; BRISC and raw LZ77 are
others.  Everything above this seam — the CLI, the code server, the JIT,
the experiment tables — speaks only these three shapes:

* :class:`CompressedProgram` — compressor output: ``data`` (container
  bytes), ``size``, and a per-section ``size_report()``;
* :class:`CodecReader` — an opened container supporting incremental
  per-function decode (``function(findex)``) and whole-program
  reconstruction (``program()``); readers that additionally decode at
  basic-block granularity advertise ``supports_block_decode`` so the JIT
  can translate without materializing functions;
* :class:`Codec` — the pluggable unit: ``compress`` + ``open``.

Codecs other than SSD ship their payload inside the version-3 container
envelope (:mod:`repro.codecs.container`), which carries the codec wire id
so :func:`repro.codecs.open_any` can dispatch; SSD keeps emitting the
native v2 layout, so every pre-v3 container on disk still opens as the
``ssd`` codec.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Protocol, runtime_checkable

from ..core.container import DEFAULT_LIMITS, ContainerError, DecodeLimits
from ..errors import ReproError, as_corrupt
from ..isa import Function, Program


@runtime_checkable
class CompressedProgram(Protocol):
    """Compressor output: container bytes plus size accounting."""

    @property
    def codec_id(self) -> str:
        """Registry id of the codec that produced this container."""
        ...

    @property
    def data(self) -> bytes:
        """The container bytes (what ``open_any`` accepts)."""
        ...

    @property
    def size(self) -> int:
        """Total container size in bytes (``len(data)``)."""
        ...

    def size_report(self) -> Dict[str, int]:
        """Per-section byte accounting (section name -> bytes)."""
        ...


@runtime_checkable
class CodecReader(Protocol):
    """An opened container: incremental per-function decode."""

    @property
    def codec_id(self) -> str:
        """Registry id of the codec this reader decodes."""
        ...

    @property
    def supports_block_decode(self) -> bool:
        """True when the reader decodes at basic-block granularity
        (``item_planes``/copy-phase surface), letting the JIT translate
        without materializing whole functions."""
        ...

    @property
    def container_hash(self) -> Optional[str]:
        """Fingerprint of the container bytes (JIT table memo key)."""
        ...

    @property
    def program_name(self) -> str: ...

    @property
    def entry(self) -> int: ...

    @property
    def function_count(self) -> int: ...

    @property
    def function_names(self) -> List[str]: ...

    def function(self, findex: int) -> Function:
        """Decode function ``findex`` (memoized, thread-safe)."""
        ...

    def program(self) -> Program:
        """Reconstruct the entire program."""
        ...


class FunctionBlobReader(ABC):
    """Reader base for codecs that store one opaque blob per function.

    Provides the memoized, thread-safe ``function()`` and ``program()``
    surface of :class:`CodecReader`; subclasses implement only
    :meth:`_decode_function`.  Decode failures are normalized through
    :func:`repro.errors.as_corrupt`, so callers see exactly one taxonomy
    regardless of what the payload decoder raised.
    """

    codec_id: str = ""
    supports_block_decode: bool = False

    def __init__(self, *, program_name: str, entry: int,
                 function_names: List[str],
                 container_hash: Optional[str] = None) -> None:
        self._program_name = program_name
        self._entry = entry
        self._function_names = function_names
        self._container_hash = container_hash
        self._fn_cache: Dict[int, Function] = {}
        self._fn_lock = threading.Lock()

    @property
    def container_hash(self) -> Optional[str]:
        return self._container_hash

    @property
    def program_name(self) -> str:
        return self._program_name

    @property
    def entry(self) -> int:
        return self._entry

    @property
    def function_names(self) -> List[str]:
        return self._function_names

    @property
    def function_count(self) -> int:
        return len(self._function_names)

    @abstractmethod
    def _decode_function(self, findex: int) -> Function:
        """Decode one function's blob (no caching, no bounds checks)."""

    def function(self, findex: int) -> Function:
        if not 0 <= findex < self.function_count:
            raise IndexError(f"function index {findex} out of range "
                             f"(container has {self.function_count})")
        cached = self._fn_cache.get(findex)
        if cached is not None:
            return cached
        with self._fn_lock:
            cached = self._fn_cache.get(findex)
            if cached is None:
                try:
                    cached = self._decode_function(findex)
                except ReproError:
                    raise
                except (ValueError, EOFError, KeyError, IndexError) as exc:
                    raise as_corrupt(exc) from exc
                self._fn_cache[findex] = cached
        return cached

    def program(self) -> Program:
        functions = [self.function(findex)
                     for findex in range(self.function_count)]
        return Program(name=self._program_name, functions=functions,
                       entry=self._entry)


class SimpleCompressed:
    """Generic :class:`CompressedProgram` for envelope-wrapped codecs."""

    def __init__(self, codec_id: str, data: bytes,
                 sections: Dict[str, int]) -> None:
        self.codec_id = codec_id
        self.data = data
        self._sections = sections

    @property
    def size(self) -> int:
        return len(self.data)

    def size_report(self) -> Dict[str, int]:
        return dict(self._sections)


class Codec(ABC):
    """One pluggable compression scheme.

    Class attributes identify the codec: ``codec_id`` is the registry
    string (what the CLI and the serve protocol carry), ``wire_id`` the
    byte stored in the v3 envelope (``0`` means the codec never appears
    on the wire itself — e.g. ``auto``, which emits some concrete codec's
    container), ``description`` a one-liner for ``ssd codecs``.
    """

    codec_id: str = ""
    wire_id: int = 0
    description: str = ""

    @abstractmethod
    def compress(self, program: Program, **options: Any) -> CompressedProgram:
        """Compress ``program`` into container bytes."""

    @abstractmethod
    def open_payload(self, payload: bytes,
                     limits: DecodeLimits = DEFAULT_LIMITS) -> CodecReader:
        """Open this codec's envelope payload (or, for ``ssd``, the
        native v1/v2 container bytes)."""

    def open(self, data: bytes,
             limits: DecodeLimits = DEFAULT_LIMITS) -> CodecReader:
        """Open full container bytes produced by this codec.

        Unwraps the v3 envelope when present (checking the stored wire id
        names *this* codec); otherwise the bytes are passed to
        :meth:`open_payload` directly, which is the v1/v2 path.
        """
        from .container import MAGIC_V3, unwrap
        if data[:4] == MAGIC_V3:
            wire_id, payload = unwrap(data, limits=limits)
            if wire_id != self.wire_id:
                raise ContainerError(
                    f"container carries codec wire id {wire_id}, "
                    f"not {self.wire_id} ({self.codec_id}); "
                    "use repro.codecs.open_any to dispatch",
                    section="header", offset=5)
            return self.open_payload(payload, limits=limits)
        return self.open_payload(data, limits=limits)

    def decompress(self, data: bytes,
                   limits: DecodeLimits = DEFAULT_LIMITS) -> Program:
        """One-call convenience: container bytes -> program."""
        return self.open(data, limits=limits).program()
