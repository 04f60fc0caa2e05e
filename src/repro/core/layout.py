"""Index-space layout shared by the compressor and the decompressor.

Both sides must assign identical 16-bit indices to every dictionary entry
without transmitting them.  The agreement comes from two canonical orders:

* base entries are numbered by their position in the section-2.2.1
  serialization order, which is the order of their sorted rows;
* sequence-tree nodes are numbered in DFS visit order of the serialized
  forest.

This module builds, for each segment, a :class:`SegmentLayout` holding the
index-ordered columns and maps both directions need.  ``build_layouts``
works from the compressor's in-memory dictionary; ``layouts_from_sections``
rebuilds the same layouts from decoded container sections — property tests
assert they agree.

See ``repro.core.partition`` for the index-space diagram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import CorruptContainer, LimitExceeded
from ..isa import Instruction
from ..isa.opcodes import OP_BY_CODE
from ..kernels import KIND_BRANCH, KIND_CALL, KIND_PLAIN
from .base_entries import (
    decode_base_entries,
    encode_base_entries,
    row_instruction,
)
from .container import DEFAULT_LIMITS, DecodeLimits, SegmentSections
from .dictionary import Row, SSDDictionary
from .partition import PartitionPlan
from .sequence_tree import (
    assign_sequence_indices,
    decode_sequence_tree,
    encode_sequence_tree,
)


class DecompressionError(CorruptContainer):
    """Raised when a container cannot be decoded consistently."""


#: what one dictionary index expands to: the instructions it always
#: yields, then the trailing instruction awaiting its item's target (or
#: ``None``) and whether that target is a branch target (else a callee)
Expansion = Tuple[Tuple[Instruction, ...], Optional[Instruction], bool]


@dataclass
class SegmentLayout:
    """Everything needed to encode or decode one segment's item streams.

    * ``addr_rows[a]`` — the row (see :data:`~repro.core.dictionary.Row`)
      of the base entry with *addressing id* ``a``: common bases first,
      then this segment's local bases; the same on both sides;
    * ``lengths``, ``kinds``, ``widths``, ``paths`` — int columns in
      16-bit dictionary index order, the same on both sides: the
      instructions an index covers; its item's kind (``KIND_PLAIN``,
      ``KIND_BRANCH`` or ``KIND_CALL``, from its last base); the target
      bytes its item carries (0 for a plain entry); and its tuple of
      addressing ids (length 1 for a base).  The item codec reads the
      first three, the width being the control word's data width of
      Stream VByte;
    * ``index_of`` — compressor side only: a reference's packed key
      (see :class:`~repro.core.dictionary.SSDDictionary`) -> 16-bit
      dictionary index;
    * ``table`` — decompressor side only: the decode table,
      ``table[index]`` being the :data:`Expansion` of dictionary index
      ``index``; a base's expansion holds its canonical
      :class:`Instruction`, the only one built per base;
    * ``common`` — the common region every segment shares: its base count
      (addressing ids ``[0, cb)``) and its index count (bases plus
      sequence nodes, indices ``[0, cb+cs)``).
    """

    addr_rows: List[Row]
    common: Tuple[int, int] = (0, 0)
    lengths: List[int] = field(default_factory=list)
    kinds: List[int] = field(default_factory=list)
    widths: List[int] = field(default_factory=list)
    paths: List[Tuple[int, ...]] = field(default_factory=list)
    index_of: Dict[int, int] = field(default_factory=dict)
    table: Tuple[Expansion, ...] = field(default=(), compare=False, repr=False)


#: per base, by addressing id: (kind, width, expansion or None,
#: transfers control) columns
_Columns = Tuple[List[int], List[int], Optional[List[Expansion]], List[bool]]


def _base_columns(rows: List[Row], table: bool) -> _Columns:
    """Per base: the kind and target width of its one-entry path, the
    path's expansion when building a decode ``table`` (the compressor has
    no use for one), and whether the base transfers control (which bars
    it from inside a sequence)."""
    kinds: List[int] = []
    widths: List[int] = []
    expansions: Optional[List[Expansion]] = [] if table else None
    transfers: List[bool] = []
    for row in rows:
        meta = OP_BY_CODE[row[0]]
        transfer = meta.uses_target
        # A stored target (absolute-targets ablation) lives in the entry.
        carries = transfer and len(row) == 6
        if carries:
            kinds.append(KIND_BRANCH if meta.is_branch else KIND_CALL)
            widths.append(row[2])
        else:
            kinds.append(KIND_PLAIN)
            widths.append(0)
        transfers.append(transfer)
        if expansions is not None:
            insn = row_instruction(row)
            expansions.append(((), insn, meta.is_branch) if carries
                              else ((insn,), None, False))
    return kinds, widths, expansions, transfers


def _join(shared: Optional[list], own: Optional[list]) -> Optional[list]:
    return None if shared is None else shared + own


#: one index region's (lengths, kinds, widths, paths, expansions or
#: None), in index order
_Region = Tuple[List[int], List[int], List[int], List[Tuple[int, ...]],
                Optional[list]]


def _region(columns: _Columns, first_addr: int, base_count: int,
            ranks: Dict[Tuple[int, ...], int]) -> _Region:
    """The entries of one index region: ``base_count`` bases from
    addressing id ``first_addr``, then the sequence nodes by rank."""
    base_kinds, base_widths, base_expansions, transfers = columns
    stop = first_addr + base_count
    lengths = [1] * base_count
    kinds = base_kinds[first_addr:stop]
    widths = base_widths[first_addr:stop]
    paths = [(addr,) for addr in range(first_addr, stop)]
    expansions = (None if base_expansions is None
                  else base_expansions[first_addr:stop])
    nodes: List[Tuple[int, ...]] = [()] * len(ranks)
    for path, rank in ranks.items():
        nodes[rank] = path
    for path in nodes:
        inner = path[:-1]
        for addr in inner:
            if transfers[addr]:
                raise DecompressionError(
                    "control transfer inside a sequence entry")
        last = path[-1]
        lengths.append(len(path))
        kinds.append(base_kinds[last])
        widths.append(base_widths[last])
        if expansions is not None:
            prefix: Tuple[Instruction, ...] = ()
            for addr in inner:
                prefix += base_expansions[addr][0]
            head, tail, tail_is_branch = base_expansions[last]
            expansions.append((prefix + head, tail, tail_is_branch))
    paths += nodes
    return lengths, kinds, widths, paths, expansions


def _segment_layout(rows: List[Row], cb: int, common: _Region,
                    local: _Region) -> SegmentLayout:
    """One segment's layout.  Index order: common bases ``[0, cb)``,
    common nodes ``[cb, cb+cs)``, then this segment's bases and nodes."""
    lengths, kinds, widths, paths, expansions = map(_join, common, local)
    return SegmentLayout(addr_rows=rows, common=(cb, len(common[0])),
                         lengths=lengths, kinds=kinds, widths=widths,
                         paths=paths, table=tuple(expansions or ()))


def build_layouts(dictionary: SSDDictionary, plan: PartitionPlan,
                  codec: str = "lz") -> Tuple[List[SegmentLayout], bytes, bytes,
                                              List[SegmentSections]]:
    """Compressor side: layouts plus the serialized dictionary blobs.

    Bases are ordered by their rows (the canonical order) and mapped to
    addressing ids by provisional id; ``index_of`` is keyed by the
    dictionary's packed reference keys."""
    rows = dictionary.rows
    sequence_keys = dictionary.sequence_keys

    # -- common dictionary -------------------------------------------------
    common_ids = sorted(plan.common_base_ids, key=rows.__getitem__)
    cb = len(common_ids)
    common_addr = dict(zip(common_ids, range(cb)))
    common_rows = [rows[p] for p in common_ids]
    common_mapped = [tuple(map(common_addr.__getitem__, sequence))
                     for sequence in plan.common_sequences]
    common_ranks = assign_sequence_indices(common_mapped)
    common_base_blob = encode_base_entries(
        common_rows, codec=codec) if common_ids else b""
    common_tree_blob = encode_sequence_tree(common_mapped, base_space=max(cb, 1)) \
        if common_mapped else b""
    cs = len(common_ranks)
    common_columns = _base_columns(common_rows, table=False)
    common_region = _region(common_columns, 0, cb, common_ranks)
    # Compressor-side reference map (packed key -> final index).
    common_index = dict(common_addr)
    for sequence, mapped in zip(plan.common_sequences, common_mapped):
        common_index[sequence_keys[sequence]] = cb + common_ranks[mapped]

    layouts: List[SegmentLayout] = []
    segment_sections: List[SegmentSections] = []
    for segment in plan.segments:
        local_ids = sorted(segment.local_base_ids, key=rows.__getitem__)
        lb = len(local_ids)
        addr = dict(common_addr)
        addr.update(zip(local_ids, range(cb, cb + lb)))
        local_sequences = list(segment.local_sequences)
        local_mapped = [tuple(map(addr.__getitem__, sequence))
                        for sequence in local_sequences]
        local_ranks = assign_sequence_indices(local_mapped)
        local_rows = [rows[p] for p in local_ids]
        base_blob = encode_base_entries(
            local_rows, codec=codec) if local_ids else b""
        tree_blob = encode_sequence_tree(local_mapped, base_space=cb + lb) \
            if local_mapped else b""

        columns = tuple(map(_join, common_columns,
                            _base_columns(local_rows, table=False)))
        layout = _segment_layout(common_rows + local_rows, cb,
                                 common_region,
                                 _region(columns, cb, lb, local_ranks))
        index_of = layout.index_of
        index_of.update(common_index)
        index_of.update(zip(local_ids, range(cb + cs, cb + cs + lb)))
        first_node = cb + cs + lb
        for sequence, mapped in zip(local_sequences, local_mapped):
            index_of[sequence_keys[sequence]] = first_node + local_ranks[mapped]

        layouts.append(layout)
        segment_sections.append(SegmentSections(
            first_function=segment.function_indices[0] if segment.function_indices else 0,
            function_count=len(segment.function_indices),
            base_blob=base_blob,
            tree_blob=tree_blob,
        ))
    return layouts, common_base_blob, common_tree_blob, segment_sections


def _check_paths(paths, base_count: int, section: str, where: str) -> None:
    """Reject sequence paths that index outside their base space — a
    corrupt tree blob must surface as a typed error, never an
    ``IndexError`` or a wrong expansion later."""
    for path in paths:
        for addr in path:
            if addr >= base_count:
                raise CorruptContainer(
                    f"{where}: sequence path references base {addr}, but "
                    f"only {base_count} bases exist", section=section)


def layouts_from_sections(common_base_blob: bytes, common_tree_blob: bytes,
                          segments: List[SegmentSections],
                          limits: DecodeLimits = DEFAULT_LIMITS,
                          ) -> List[SegmentLayout]:
    """Decompressor side: rebuild layouts from container sections.

    The common region of the index space is the same in every segment
    (common paths may only reach common bases), so it is built once and
    shared by every segment's decode table.
    """
    common_rows = (decode_base_entries(common_base_blob, limits)
                   if common_base_blob else [])
    common_ranks = (decode_sequence_tree(common_tree_blob, limits)
                    if common_tree_blob else {})
    cb = len(common_rows)
    _check_paths(common_ranks, cb, "common.tree", "common dictionary")
    common_columns = _base_columns(common_rows, table=True)
    common_region = _region(common_columns, 0, cb, common_ranks)
    layouts: List[SegmentLayout] = []
    for sindex, segment in enumerate(segments):
        local_rows = (decode_base_entries(segment.base_blob, limits)
                      if segment.base_blob else [])
        local_ranks = (decode_sequence_tree(segment.tree_blob, limits)
                       if segment.tree_blob else {})
        lb = len(local_rows)
        total = cb + lb + len(common_ranks) + len(local_ranks)
        if total > limits.max_dict_entries:
            raise LimitExceeded(
                f"segment {sindex} declares {total} dictionary entries "
                f"(limit {limits.max_dict_entries})",
                section=f"segment[{sindex}]")
        _check_paths(local_ranks, cb + lb, f"segment[{sindex}].tree",
                     f"segment {sindex}")
        columns = tuple(map(_join, common_columns,
                            _base_columns(local_rows, table=True)))
        layouts.append(_segment_layout(common_rows + local_rows, cb,
                                       common_region,
                                       _region(columns, cb, lb, local_ranks)))
    return layouts
