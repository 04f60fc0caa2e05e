"""Vectorized batch-decode kernels for the decompress hot path.

Stream VByte (Lemire & Kurz) makes byte-oriented integer decoding fast by
*splitting the stream*: control bytes in one plane, data bytes in another,
so a bulk kernel can gather per-item widths without a branch per item.
Varint runs and LZ77 token streams have that structure latent in them;
this package expands them in bulk with ``numpy``.

SSD's item streams have it too — a 16-bit dictionary index is the control
word that determines how many data bytes (0/1/2/4 target bytes) follow —
and this package owns their decoded form (:class:`ItemPlanes` and the
``KIND_*`` codes).  They have no numpy kernel: ``repro.core.items``
decodes them with one loop over the layout's per-index columns on every
backend, because a numpy kernel's per-reader table set-up cost more than
it saved on streams of at most ~1.3 KB.

Layering rules:

* ``repro.kernels`` never imports ``repro.core`` / ``repro.lz`` — it
  exposes backend-neutral numeric kernels over plain buffers and tables.
  The format layers call *into* it.
* ``numpy`` is an **optional extra**, never a hard dependency.  Backend
  selection happens once at import: ``numpy`` when importable, else the
  byte-identical pure-Python fallback.  ``REPRO_KERNELS=python|numpy``
  overrides (``numpy`` raises at import if unavailable, so CI can prove
  which backend ran).
* The vectorized kernels are *speculative*: they return ``None`` whenever
  the input is anything but a well-formed stream, and the caller re-runs
  the scalar decoder — which raises exactly the ``repro.errors`` taxonomy
  the format layer documents.  Corrupt input therefore pays one wasted
  scan but keeps byte-for-byte identical error behavior across backends.

Observability (``repro.obs``): ``kernel_batch_decodes_total`` counts bulk
decodes by kind and backend (item streams always ``backend=python``),
``kernel_fallback_total`` counts speculative decodes that bailed to the
scalar path (for ``kind=items``, re-runs of the reference item decoder),
and ``kernel_items_per_batch`` histograms the items per item-stream
decode.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from ..obs import REGISTRY

__all__ = [
    "BACKEND",
    "ItemPlanes",
    "KIND_PLAIN",
    "KIND_BRANCH",
    "KIND_CALL",
    "backend",
    "has_numpy",
    "record_batch",
    "record_fallback",
    "set_backend",
]

#: Item kind codes shared by every backend (control-plane vocabulary).
KIND_PLAIN = 0
KIND_BRANCH = 1
KIND_CALL = 2

BATCH_DECODES = REGISTRY.counter(
    "kernel_batch_decodes_total",
    "Bulk decodes performed, by kernel kind and backend.")
FALLBACKS = REGISTRY.counter(
    "kernel_fallback_total",
    "Speculative decodes that bailed to the scalar path, by kind.")
ITEMS_PER_BATCH = REGISTRY.histogram(
    "kernel_items_per_batch",
    "Items decoded per item-stream decode.",
    buckets=(1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0))


def _detect_backend() -> str:
    choice = os.environ.get("REPRO_KERNELS", "auto").strip().lower()
    if choice not in ("auto", "numpy", "python"):
        raise ValueError(
            f"REPRO_KERNELS must be auto|numpy|python, got {choice!r}")
    if choice == "python":
        return "python"
    try:
        import numpy  # noqa: F401
    except ImportError:
        if choice == "numpy":
            raise ImportError(
                "REPRO_KERNELS=numpy but numpy is not installed") from None
        return "python"
    return "numpy"


#: Backend selected at import time ("numpy" or "python").
BACKEND: str = _detect_backend()

_active = BACKEND


def backend() -> str:
    """The active kernel backend: ``"numpy"`` or ``"python"``."""
    return _active


def has_numpy() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def set_backend(name: str) -> str:
    """Force a backend (tests/benchmarks); returns the previous one.

    ``"numpy"`` raises :class:`ImportError` when numpy is unavailable, so
    a differential test can never silently compare python against python.
    """
    global _active
    if name not in ("numpy", "python"):
        raise ValueError(f"unknown kernel backend {name!r}")
    if name == "numpy" and not has_numpy():
        raise ImportError("numpy backend requested but numpy is not installed")
    previous = _active
    _active = name
    return previous


def record_batch(kind: str, count: Optional[int] = None,
                 backend_name: Optional[str] = None) -> None:
    """Count one bulk decode (and, for item batches, its size).

    ``backend_name`` overrides the label when a decode ran in pure
    Python while the numpy backend is active.
    """
    BATCH_DECODES.inc(kind=kind, backend=backend_name or _active)
    if count is not None:
        ITEMS_PER_BATCH.observe(count)


def record_fallback(kind: str) -> None:
    FALLBACKS.inc(kind=kind)


@dataclass
class ItemPlanes:
    """One function's item stream, split Stream-VByte style.

    The wire format interleaves a 16-bit *control* word (the dictionary
    index) with 0/1/2/4 *data* bytes (the branch displacement or callee
    index).  Decode separates them into parallel planes so downstream
    phases can run over whole functions at once:

    * ``indices``  — control plane: dictionary index per item;
    * ``kinds``    — ``KIND_PLAIN``/``KIND_BRANCH``/``KIND_CALL`` per item;
    * ``values``   — data plane, decoded: signed branch displacement (in
      items) or unsigned callee function index; 0 for plain items;
    * ``lengths``  — instructions covered per item (from the dictionary);
    * ``starts``   — exclusive prefix sum of ``lengths``: each item's
      first instruction index (the decode-side forwarding table).

    All fields are plain Python lists of ints regardless of backend, so
    consumers and differential tests see byte-identical values.
    """

    indices: List[int]
    kinds: List[int]
    values: List[int]
    lengths: List[int]
    starts: List[int]

    @property
    def count(self) -> int:
        return len(self.indices)

    @property
    def instruction_count(self) -> int:
        if not self.indices:
            return 0
        return self.starts[-1] + self.lengths[-1]
