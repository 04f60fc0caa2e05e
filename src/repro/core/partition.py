"""Dictionary partitioning (section 2.1).

A 16-bit item index addresses at most 65,536 dictionary entries, but large
programs need more (the paper's Word97 required 281,107).  SSD then splits
the dictionary into a *common* part that applies to the whole program and
a series of *sub-dictionaries*, each covering a contiguous run of
functions.

Index spaces
------------

Each segment (run of functions) sees one 16-bit index space laid out as::

    [0, CB)                common base entries
    [CB, CB+CS)            common sequence-tree nodes
    [CB+CS, CB+CS+LB)      this segment's local base entries
    [CB+CS+LB, ...)        this segment's local sequence-tree nodes

Tree tokens address a separate *base addressing space*: common bases take
``[0, CB)`` and local bases ``[CB, CB+LB)``.  The common tree may only
reference common bases (it is shared by every segment), which constrains
which sequences may be promoted to the common dictionary.

Capacity accounting counts tree *nodes* (shared prefixes included), since
nodes — not just entries — consume indices.  One slot (0xFFFF) is reserved
for the tree codec's pop token.

Selection heuristic: when partitioning is needed, the most-used base
entries are promoted to the common dictionary (up to a budget), then the
most-used sequences whose bases are all common.  Functions are packed
greedily, in program order, into the largest segments that fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .dictionary import SSDDictionary

#: total index-space capacity per segment (0xFFFF reserved for pop tokens)
SEGMENT_CAPACITY = 65535
#: default budget of the common dictionary, in index slots
DEFAULT_COMMON_BUDGET = 16384


class PartitionError(ValueError):
    """Raised when a program cannot be partitioned (e.g. one giant function)."""


def _tree_node_count(sequences: Set[Tuple[int, ...]]) -> int:
    """Number of depth >= 1 nodes in the forest these sequences induce."""
    prefixes: Set[Tuple[int, ...]] = set()
    for sequence in sequences:
        for end in range(2, len(sequence) + 1):
            prefixes.add(sequence[:end])
    return len(prefixes)


@dataclass
class Segment:
    """One sub-dictionary: a run of functions plus its local entries."""

    function_indices: List[int] = field(default_factory=list)
    local_base_ids: Set[int] = field(default_factory=set)
    local_sequences: Set[Tuple[int, ...]] = field(default_factory=set)


@dataclass
class PartitionPlan:
    """Which entries are common and how functions map to segments."""

    common_base_ids: List[int]
    common_sequences: List[Tuple[int, ...]]
    segments: List[Segment]
    segment_of_function: List[int]

    @property
    def is_partitioned(self) -> bool:
        return len(self.segments) > 1 or bool(self.common_base_ids)


def _function_requirements(dictionary: SSDDictionary,
                           windows: Dict[int, Tuple[int, ...]],
                           findex: int) -> Tuple[Set[int], Set[Tuple[int, ...]]]:
    """Base ids and sequences function ``findex`` needs addressable;
    ``windows`` maps each sequence's packed key to its ids."""
    keys = set(dictionary.function_keys[findex])
    sequences = {windows[key] for key in keys if key in windows}
    bases = keys.difference(windows)
    for sequence in sequences:
        bases.update(sequence)
    return bases, sequences


def plan_partition(dictionary: SSDDictionary,
                   common_budget: int = DEFAULT_COMMON_BUDGET) -> PartitionPlan:
    """Decide the common dictionary and the segment packing."""
    total_nodes = _tree_node_count(set(dictionary.sequence_entries))
    total_space = len(dictionary.rows) + total_nodes
    function_count = len(dictionary.function_keys)

    if total_space <= SEGMENT_CAPACITY:
        # The common case: one segment, no common dictionary.  Every base
        # and every sequence is used by some function.
        segment = Segment(
            function_indices=list(range(function_count)),
            local_base_ids=set(range(len(dictionary.rows))),
            local_sequences=set(dictionary.sequence_entries))
        return PartitionPlan(common_base_ids=[], common_sequences=[],
                             segments=[segment],
                             segment_of_function=[0] * function_count)

    # -- choose the common dictionary ------------------------------------
    base_use = dict(dictionary.base_use_counts)
    for sequence, count in dictionary.sequence_entries.items():
        for base_id in sequence:
            base_use[base_id] = base_use.get(base_id, 0) + count
    ranked_bases = sorted(base_use, key=lambda b: (-base_use[b], b))
    common_bases = ranked_bases[: int(common_budget * 0.75)]
    common_base_set = set(common_bases)

    candidate_sequences = sorted(
        (s for s in dictionary.sequence_entries
         if all(b in common_base_set for b in s)),
        key=lambda s: (-dictionary.sequence_entries[s], s))
    common_sequences: List[Tuple[int, ...]] = []
    node_budget = common_budget - len(common_bases)
    prefixes: Set[Tuple[int, ...]] = set()
    for sequence in candidate_sequences:
        added = [sequence[:end] for end in range(2, len(sequence) + 1)
                 if sequence[:end] not in prefixes]
        if len(prefixes) + len(added) > node_budget:
            continue
        prefixes.update(added)
        common_sequences.append(sequence)
    common_seq_set = set(common_sequences)
    common_nodes = len(prefixes)
    common_space = len(common_bases) + common_nodes

    # -- greedy packing of functions into segments ------------------------
    # The prefix set of the current segment is maintained incrementally so
    # packing stays O(total refs) even at word97 scale.
    segments: List[Segment] = []
    segment_of_function: List[int] = []
    current = Segment()
    current_prefixes: Set[Tuple[int, ...]] = set()

    def prefixes_of(sequences: Set[Tuple[int, ...]],
                    existing: Set[Tuple[int, ...]]) -> Set[Tuple[int, ...]]:
        added: Set[Tuple[int, ...]] = set()
        for sequence in sequences:
            for end in range(2, len(sequence) + 1):
                prefix = sequence[:end]
                if prefix not in existing:
                    added.add(prefix)
        return added

    windows = {key: window
               for window, key in dictionary.sequence_keys.items()}
    for findex in range(function_count):
        bases, sequences = _function_requirements(dictionary, windows, findex)
        local_bases = bases - common_base_set
        local_sequences = sequences - common_seq_set
        added_bases = local_bases - current.local_base_ids
        added_sequences = local_sequences - current.local_sequences
        added_prefixes = prefixes_of(added_sequences, current_prefixes)
        projected = (common_space
                     + len(current.local_base_ids) + len(added_bases)
                     + len(current_prefixes) + len(added_prefixes))
        if projected > SEGMENT_CAPACITY and current.function_indices:
            segments.append(current)
            current = Segment()
            current_prefixes = set()
            added_bases = local_bases
            added_sequences = local_sequences
            added_prefixes = prefixes_of(added_sequences, current_prefixes)
            projected = common_space + len(added_bases) + len(added_prefixes)
        if projected > SEGMENT_CAPACITY:
            raise PartitionError(
                f"function {findex} alone needs {len(added_bases)} bases and "
                f"{len(added_prefixes)} tree nodes on top of the "
                f"{common_space}-slot common dictionary")
        current.function_indices.append(findex)
        current.local_base_ids |= added_bases
        current.local_sequences |= added_sequences
        current_prefixes |= added_prefixes
        segment_of_function.append(len(segments))
    if current.function_indices:
        segments.append(current)

    return PartitionPlan(common_base_ids=common_bases,
                         common_sequences=common_sequences,
                         segments=segments,
                         segment_of_function=segment_of_function)


def partition_statistics(plan: PartitionPlan) -> Dict[str, float]:
    """Numbers for reports: segment count, common share, duplication."""
    duplicated = 0
    if len(plan.segments) > 1:
        seen: Dict[int, int] = {}
        for segment in plan.segments:
            for base_id in segment.local_base_ids:
                seen[base_id] = seen.get(base_id, 0) + 1
        duplicated = sum(count - 1 for count in seen.values() if count > 1)
    return {
        "segments": len(plan.segments),
        "common_bases": len(plan.common_base_ids),
        "common_sequences": len(plan.common_sequences),
        "duplicated_bases": duplicated,
    }
