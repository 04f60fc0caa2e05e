"""SSD compression — the paper's primary contribution.

Pipeline: :func:`compress` runs Algorithm 1 (``dictionary``), partitioning
(``partition``), base-entry split-stream compression (``base_entries``),
sequence-forest serialization (``sequence_tree``) and Algorithm 2
(``items``) into a single container (``container``).  :func:`decompress`
reverses phase one (``decompressor``); Algorithm 3 lives in
``copy_phase`` and is driven by the JIT runtime in ``repro.jit``.
"""

from .base_entries import decode_base_entries, encode_base_entries
from .compressor import CompressedProgram, compress
from .container import (
    DEFAULT_LIMITS,
    ContainerError,
    ContainerSections,
    DecodeLimits,
    IntegrityReport,
    SectionSpan,
    container_version,
    integrity_report,
    parse,
    serialize,
)
from .copy_phase import (
    CallRelocation,
    CopyPhaseError,
    TableEntry,
    TranslatedFunction,
    read_patched_displacement,
)
from .decompressor import DecompressionError, SSDReader, decompress, open_container
from .hints import ProfileHints, decode_hints, encode_hints
from .dictionary import (
    MAX_SEQUENCE_LENGTH,
    SSDDictionary,
    build_dictionary,
    dictionary_statistics,
)
from .lazy import LazyProgram, lazy_program
from .items import ItemStreamError, encode_items
from .layout import SegmentLayout, build_layouts, layouts_from_sections
from .partition import (
    DEFAULT_COMMON_BUDGET,
    PartitionError,
    PartitionPlan,
    SEGMENT_CAPACITY,
    Segment,
    partition_statistics,
    plan_partition,
)
from .sequence_tree import (
    SEQUENCE_LENGTH_CAP,
    assign_sequence_indices,
    decode_sequence_tree,
    encode_sequence_tree,
    sequence_index_map,
)

__all__ = [
    "CallRelocation",
    "CompressedProgram",
    "ContainerError",
    "ContainerSections",
    "CopyPhaseError",
    "DEFAULT_COMMON_BUDGET",
    "DEFAULT_LIMITS",
    "DecodeLimits",
    "DecompressionError",
    "ProfileHints",
    "IntegrityReport",
    "SectionSpan",
    "ItemStreamError",
    "LazyProgram",
    "MAX_SEQUENCE_LENGTH",
    "PartitionError",
    "PartitionPlan",
    "SEGMENT_CAPACITY",
    "SEQUENCE_LENGTH_CAP",
    "SSDDictionary",
    "SSDReader",
    "Segment",
    "SegmentLayout",
    "TableEntry",
    "TranslatedFunction",
    "assign_sequence_indices",
    "build_dictionary",
    "build_layouts",
    "compress",
    "container_version",
    "decode_base_entries",
    "decode_sequence_tree",
    "decompress",
    "dictionary_statistics",
    "encode_base_entries",
    "encode_items",
    "encode_sequence_tree",
    "integrity_report",
    "layouts_from_sections",
    "lazy_program",
    "open_container",
    "decode_hints",
    "encode_hints",
    "parse",
    "partition_statistics",
    "plan_partition",
    "read_patched_displacement",
    "sequence_index_map",
    "serialize",
]
