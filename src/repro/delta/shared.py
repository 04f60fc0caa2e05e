"""Corpus-trained shared base dictionaries — fleet-wide bases.

The paper's BRISC external-dictionary results (Table 5) and the Prolog
corpus-dictionary work both show the same thing: when many related
programs ship, the dictionary should be hoisted *out* of each container
and shared.  ``repro.delta`` realizes that as a **shared base**: a
valid, zero-function SSD v2 container whose common dictionary carries
the base entries most frequent across a training corpus.

The artifact is an ordinary container on purpose — it admits into the
serve store through the same verify gate as real programs, is content-
addressed by the same SHA-256, and any container compressed from a
corpus member diffs small against it (``make_patch(shared, target)``):
the dictionary blobs COPY or byte-delta against the shared entries and
only the program's residual rides the wire.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..core.base_entries import decode_base_entries, encode_base_entries
from ..core.compressor import compress
from ..core.container import ContainerSections, parse, serialize
from ..isa import Program

#: default dictionary-entry budget for a shared base (mirrors the index
#: budget a single container's common dictionary typically gets)
DEFAULT_BUDGET = 2048

#: program name stamped into shared-base containers, so ``ssd inspect``
#: and store listings identify the artifact at a glance
SHARED_BASE_NAME = "shared-base"


def count_base_entries(containers: Iterable[bytes]) -> Counter:
    """Frequency-count base entries across serialized containers.

    Counts every entry in each container's common and per-segment base
    dictionaries, keyed by its row.
    """
    counts: Counter = Counter()
    for data in containers:
        sections = parse(data)
        blobs = [sections.common_base_blob]
        blobs.extend(segment.base_blob for segment in sections.segments)
        for blob in blobs:
            if not blob:
                continue
            counts.update(decode_base_entries(blob))
    return counts


def train_shared_base(programs: Iterable[Program],
                      budget: int = DEFAULT_BUDGET,
                      name: str = SHARED_BASE_NAME) -> bytes:
    """Train a shared base container over a program corpus.

    Compresses each program, counts its dictionary entries, keeps the
    ``budget`` most frequent (ties broken by canonical dictionary
    order, so training is deterministic), and serializes them as the
    common dictionary of a zero-function SSD v2 container.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    containers = [compress(program).data for program in programs]
    counts = count_base_entries(containers)
    ranked = sorted(counts)
    ranked.sort(key=lambda row: -counts[row])
    kept = sorted(ranked[:budget])
    sections = ContainerSections(
        program_name=name,
        entry=0,
        function_names=[],
        common_base_blob=encode_base_entries(kept) if kept else b"",
        common_tree_blob=b"",
        segments=[],
        item_streams=[],
    )
    return serialize(sections, version=2)


def is_shared_base(data: bytes) -> bool:
    """True when ``data`` is a zero-function container (a pure base)."""
    try:
        sections = parse(data)
    except Exception:
        return False
    return not sections.function_names and not sections.item_streams


__all__ = [
    "DEFAULT_BUDGET",
    "SHARED_BASE_NAME",
    "count_base_entries",
    "is_shared_base",
    "train_shared_base",
]
