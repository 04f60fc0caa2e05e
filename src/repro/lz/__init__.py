"""Byte-level codec substrate.

These are the low-level codecs SSD builds on: varints for the container
format, delta coding and a simple LZ77 for base-entry compression (paper
section 2.2.1), and an adaptive arithmetic coder.
"""

from . import arith
from .arith import FenwickTable
from .delta import decode_deltas, encode_deltas
from .lz77 import compress, decompress
from .varint import (
    ByteReader,
    ByteWriter,
    decode_svarint,
    decode_uvarint,
    encode_svarint,
    encode_uvarint,
)

__all__ = [
    "FenwickTable",
    "arith",
    "ByteReader",
    "ByteWriter",
    "compress",
    "decompress",
    "decode_deltas",
    "encode_deltas",
    "decode_svarint",
    "decode_uvarint",
    "encode_svarint",
    "encode_uvarint",
]
