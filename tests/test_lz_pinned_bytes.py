"""Pinned output bytes of the LZ77 coder in both of its roles.

Container blobs and patch byte deltas share one LZ77 coder
(``repro.lz.lz77``): blobs with a 64 KiB window, deltas with a base and
no window cap.  Both are wire formats, so a refactor of the coder must
keep every output byte.  The digests below were recorded from the coder
as it stood before deltas and blobs shared it; a change here is a format
change, not a test to re-pin.
"""

import hashlib
import random

from repro.core import compress
from repro.delta import apply_patch, make_patch, patch_info
from repro.delta.patch import MODE_RAW, MODE_SECTIONS
from repro.lz import lz77
from repro.workloads.versions import version_pairs

_KIB = 1024


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _far_repeats(seed: int) -> bytes:
    """~216 KiB of random bytes where a 72 KiB block recurs (lightly
    edited) twice more: every repeat lies beyond the 64 KiB window."""
    rng = random.Random(seed)
    block = rng.randbytes(72 * _KIB)
    out = bytearray(block)
    for _ in range(2):
        copy = bytearray(block)
        for _ in range(16):
            copy[rng.randrange(len(copy))] = rng.randrange(256)
        out += copy
    return bytes(out)


def _edited(data: bytes, seed: int) -> bytes:
    """``data`` with a few bytes changed and 1 KiB inserted mid-way."""
    rng = random.Random(seed)
    out = bytearray(data)
    for _ in range(32):
        out[rng.randrange(len(out))] = rng.randrange(256)
    mid = len(out) // 2
    return bytes(out[:mid]) + rng.randbytes(_KIB) + bytes(out[mid:])


OLD = _far_repeats(1)
NEW = _edited(OLD, 2)


def test_window_capped_blob_bytes():
    blob = lz77.compress(OLD)
    assert len(OLD) >= 192 * _KIB
    # No repeat is in reach, so the cap leaves the input uncompressed.
    assert len(blob) > len(OLD)
    assert _sha(blob) == (
        "a6619736c7c6e6a7ad65bcd343da770cf66269cf275b5326e3334f9df3c00283")
    assert lz77.decompress(blob) == OLD


def test_standalone_patch_bytes():
    patch = make_patch(b"", OLD)
    # The uncapped window finds the far repeats.
    assert len(patch) < len(OLD) // 2
    assert _sha(patch) == (
        "3b1805c4660e75b8f6c36292f0ebd7aba99f96977f09b41c355a31a757cc6571")
    assert apply_patch(b"", patch) == OLD


def test_raw_patch_bytes():
    patch = make_patch(OLD, NEW)
    assert patch_info(patch).mode == MODE_RAW
    assert len(patch) < 4 * _KIB
    assert _sha(patch) == (
        "6298e28be12aa33bd2823ae17e1af0c82a07dc12f06fbfd39396277b7900605a")
    assert apply_patch(OLD, patch) == NEW


def test_corpus_container_and_sections_patch_bytes():
    [(_, old, new)] = version_pairs(scale=0.05, names=["compress"])
    base, target = compress(old).data, compress(new).data
    patch = make_patch(base, target)
    assert patch_info(patch).mode == MODE_SECTIONS
    assert _sha(base) == (
        "1f4c3d6ba2c89f8a4ffa16970acd53b98fbcc1cb9b9440b1fdfdde1268eb1e7c")
    assert _sha(patch) == (
        "ce5cdb0f920f66d7d6760754fc821602d0548b8bcfe0eafda54c61be4a39ac04")
    assert apply_patch(base, patch) == target
