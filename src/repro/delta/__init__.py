"""Delta containers and shared fleet dictionaries — the update path.

``repro.delta`` turns the split-stream container layout into a code-
update subsystem: a fleet holding container ``v_N`` fetches ``v_N+1``
as a small, self-describing **patch** instead of a full transfer.

* :mod:`repro.delta.patch` — the patch artifact: SHA-256-named base
  and target, per-section ops over the container's blob table,
  verified application, composable chains.  Its byte deltas are
  :mod:`repro.lz.lz77` streams with a base: the coder that packs
  container blobs, its match window starting out holding the base;
* :mod:`repro.delta.shared` — corpus-trained shared base dictionaries
  (zero-function containers related programs diff small against).

The serve stack speaks patches over ``GET_DELTA`` (docs/PROTOCOL.md),
and ``ssd delta make|apply|push`` drives them from the CLI.
See docs/DELTA.md for the format and the negotiation protocol.
"""

from __future__ import annotations

from ..obs import REGISTRY
from .patch import (
    EMPTY_BASE_HASH,
    PATCH_VERSION,
    PatchInfo,
    apply_chain,
    apply_patch,
    is_patch,
    make_patch,
    patch_info,
)
from .shared import (
    DEFAULT_BUDGET,
    SHARED_BASE_NAME,
    count_base_entries,
    is_shared_base,
    train_shared_base,
)

BYTES_SAVED = REGISTRY.counter(
    "delta_bytes_saved_total",
    "Full-transfer bytes avoided by applying delta patches "
    "(full size minus patch size, summed over successful applies).")
FALLBACKS = REGISTRY.counter(
    "delta_fallback_total",
    "Delta fetches that fell back to a full container transfer, by reason.")
PATCH_BYTES = REGISTRY.histogram(
    "delta_patch_bytes",
    "Size in bytes of delta patches produced or applied.",
    buckets=(64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
             262144.0, 1048576.0))

__all__ = [
    "BYTES_SAVED",
    "DEFAULT_BUDGET",
    "EMPTY_BASE_HASH",
    "FALLBACKS",
    "PATCH_BYTES",
    "PATCH_VERSION",
    "SHARED_BASE_NAME",
    "PatchInfo",
    "apply_chain",
    "apply_patch",
    "count_base_entries",
    "is_patch",
    "is_shared_base",
    "make_patch",
    "patch_info",
    "train_shared_base",
]
