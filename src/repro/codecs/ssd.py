"""The ``ssd`` codec: split-stream dictionary compression behind the seam.

A thin adapter — the real pipeline lives in ``repro.core``.  SSD keeps
emitting its native v2 container (magic ``SSD2``) rather than a v3
envelope, so every container written before the codec seam existed stays
byte-identical and opens as this codec; :class:`~repro.core.decompressor.SSDReader`
already satisfies the :class:`repro.codecs.CodecReader` surface
(including ``supports_block_decode``, which lets the JIT translate from
decoded items without materializing functions).
"""

from __future__ import annotations

from typing import Any

from ..core.compressor import compress as core_compress
from ..core.container import DEFAULT_LIMITS, DecodeLimits
from ..core.decompressor import open_container
from ..isa import Program
from .base import Codec, CodecReader, CompressedProgram


class SsdCodec(Codec):
    """The paper's system (the default codec)."""

    codec_id = "ssd"
    wire_id = 1
    description = ("split-stream dictionary compression with embedded "
                   "per-program dictionaries (the paper's system)")

    def compress(self, program: Program, **options: Any) -> CompressedProgram:
        """Compress via the core pipeline.

        ``options`` pass straight through to
        :func:`repro.core.compressor.compress` (``codec`` — the
        base-entry codec ``lz``/``delta`` — ``max_len``, ``match_mode``, …).
        """
        return core_compress(program, **options)

    def open_payload(self, payload: bytes,
                     limits: DecodeLimits = DEFAULT_LIMITS) -> CodecReader:
        return open_container(payload, limits=limits)
