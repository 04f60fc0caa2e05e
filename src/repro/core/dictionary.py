"""Algorithm 1: SSD dictionary construction.

Given a program, build a dictionary with two kinds of entries and rewrite
the program as a stream of references to them:

* **base entries** — one per unique instruction in the program (step 1 of
  Algorithm 1), where "unique" is judged by the paper's matching rule:
  branch/call targets compare by encoded *size*, everything else exactly;
* **sequence entries** — one per 2–4 instruction sequence the greedy
  matcher selects; a candidate must occur at least twice in the program
  and lie within a single basic block (step 3.a), and may contain at most
  one control transfer, necessarily last (implied by the basic-block rule
  because branches and calls terminate blocks).

The paper implements step 3.a with a digram hash table holding occurrence
*positions* and rescans up to four instructions at each position.  We get
the same answer in guaranteed O(n) by counting 2-, 3- and 4-gram
occurrences up front: "sequence s occurs at least twice in P" is exactly
``ngram_count[s] >= 2`` (the current occurrence contributes one).

The matcher is greedy exactly as in the paper: after matching a prefix of
length L it skips to the next unmatched instruction, forgoing potentially
longer matches inside the prefix.

Implementation note: match keys are interned to dense integer *base ids*
in the first pass; every later stage (n-gram counting, sequence entries,
item generation, tree serialization) works on small integers.  The n-gram
tables go further and pack each window of ids into a *single* integer
(``id0 | id1 << k | ...`` plus a length-marker bit) so the counting loop
allocates no per-window tuples at all.  At word97 scale (1.4M
instructions) this keeps the n-gram tables hundreds of megabytes smaller
than tuples-of-keys would, and roughly halves counting time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa import Instruction, Program, basic_blocks
from ..isa.opcodes import OP_TABLE
from ..perf.profile import PhaseProfile, ensure

#: Maximum sequence-entry length (the paper's L <= 4).
MAX_SEQUENCE_LENGTH = 4


@dataclass(frozen=True, slots=True)
class BaseEntry:
    """A dictionary entry for a single unique instruction.

    ``instruction`` is a canonical representative: for branches/calls the
    target value is meaningless (targets travel in the item stream) and is
    normalized to 0; ``target_size`` records the encoded target width that
    is part of the match key.

    In the paper's *absolute-targets* ablation (section 2.1: "a compressor
    configured to represent branch targets as absolute values within
    dictionary entries") the target instead lives here: ``stored_target``
    holds the absolute target (instruction index for branches, callee
    index for calls), entries with different targets stay distinct, and
    items carry no target bytes.
    """

    key: Tuple
    instruction: Instruction
    target_size: Optional[int] = None
    stored_target: Optional[int] = None

    @property
    def target_in_entry(self) -> bool:
        return self.stored_target is not None

    @property
    def is_branch(self) -> bool:
        return self.instruction.is_branch

    @property
    def is_call(self) -> bool:
        return self.instruction.is_call

    @property
    def has_target(self) -> bool:
        return self.is_branch or self.is_call


@dataclass(frozen=True)
class EntryRef:
    """One element of the rewritten program: a dictionary reference.

    ``base_ids`` holds one id for a base-entry reference, two to four for
    a sequence-entry reference.  If the referenced entry ends in an
    intra-function branch, ``branch_target`` is the target *instruction
    index* within the function; if it ends in a call, ``call_target`` is
    the callee function index.
    """

    base_ids: Tuple[int, ...]
    branch_target: Optional[int] = None
    call_target: Optional[int] = None

    @property
    def is_sequence(self) -> bool:
        return len(self.base_ids) > 1

    @property
    def length(self) -> int:
        return len(self.base_ids)


@dataclass
class SSDDictionary:
    """The constructed dictionary plus the rewritten program.

    ``base_entries[i]`` is the base entry with (provisional) id ``i``;
    ``sequence_entries`` maps id-tuples to their use counts.  Provisional
    ids are insertion-order; the container layer re-maps them to the
    canonical order defined by base-entry compression.
    """

    base_entries: List[BaseEntry] = field(default_factory=list)
    base_id_of_key: Dict[Tuple, int] = field(default_factory=dict)
    sequence_entries: Dict[Tuple[int, ...], int] = field(default_factory=dict)
    base_use_counts: Dict[int, int] = field(default_factory=dict)
    #: per function: the stream E of dictionary references
    function_refs: List[List[EntryRef]] = field(default_factory=list)

    @property
    def entry_count(self) -> int:
        return len(self.base_entries) + len(self.sequence_entries)

    def coverage(self) -> Tuple[int, int]:
        """(instructions covered by sequence refs, total instructions)."""
        covered = 0
        total = 0
        for refs in self.function_refs:
            for ref in refs:
                total += ref.length
                if ref.is_sequence:
                    covered += ref.length
        return covered, total


def _normalized_instruction(insn: Instruction) -> Instruction:
    """Canonical representative: branch/call targets zeroed."""
    if insn.is_branch or insn.is_call:
        return insn.replace_target(0)
    return insn


def build_dictionary(program: Program,
                     max_len: int = MAX_SEQUENCE_LENGTH,
                     absolute_targets: bool = False,
                     match_mode: str = "greedy",
                     profile: Optional[PhaseProfile] = None) -> SSDDictionary:
    """Run Algorithm 1 over ``program``.

    ``max_len`` parameterizes the paper's fixed 4 for the sequence-length
    ablation experiment.  ``absolute_targets`` switches to the ablation
    variant where targets live inside dictionary entries (branches with
    different targets no longer share an entry).

    ``match_mode`` selects the rewrite strategy:

    * ``"greedy"`` — the paper's Algorithm 1: take the longest match at
      the current position and skip past it ("by skipping over
      instructions once it has found a match, Algorithm 1 ignores the
      possibility of finding a longer match beginning at one of the
      other instructions in the matched prefix").
    * ``"optimal"`` — a dynamic program that picks, per function, the
      segmentation minimizing total item-stream bytes (2 per item plus
      target bytes).  Dictionary-side cost is not modelled, so this is a
      lower bound on what non-greedy matching could buy; the ablation
      experiment measures the actual end-to-end difference.

    ``profile`` (a :class:`repro.perf.PhaseProfile`) receives per-phase
    timings when supplied.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if match_mode not in ("greedy", "optimal"):
        raise ValueError(f"match_mode must be greedy/optimal, got {match_mode!r}")
    prof = ensure(profile)
    result = SSDDictionary()

    # Pass 0 (step 1): base entries + per-function id lists + block limits.
    # Interning assigns ids in first-seen program order.
    id_lists: List[List[int]] = []
    block_ends: List[List[int]] = []
    with prof.phase("dictionary.base_entries"):
        base_id_of_key = result.base_id_of_key
        base_entries = result.base_entries
        for fn in program.functions:
            keys, sizes = fn.keys_and_sizes()
            ids: List[int] = []
            append = ids.append
            for insn, key, size in zip(fn.insns, keys, sizes):
                stored_target = None
                # ``size is not None`` exactly for branch/call instructions.
                if absolute_targets and size is not None:
                    stored_target = insn.target
                    key = key + (stored_target,)
                base_id = base_id_of_key.get(key)
                if base_id is None:
                    base_id = len(base_entries)
                    base_id_of_key[key] = base_id
                    base_entries.append(BaseEntry(
                        key=key,
                        instruction=_normalized_instruction(insn),
                        target_size=size,
                        stored_target=stored_target,
                    ))
                append(base_id)
            id_lists.append(ids)
            ends = [0] * len(fn.insns)
            for block in basic_blocks(fn):
                for index in range(block.start, block.end):
                    ends[index] = block.end
            block_ends.append(ends)

    # Windows of base ids pack into single integers — ``id0 | id1 << k | ...``
    # with a marker bit above the top id disambiguating window lengths — so
    # the hot loops below allocate no per-window tuples.
    key_bits = max(1, (len(result.base_entries) - 1).bit_length())
    marks = [1 << (length * key_bits) for length in range(max_len + 1)]

    # Pass 1: n-gram occurrence counts (the "occurs at least twice" oracle).
    with prof.phase("dictionary.ngrams"):
        ngram_counts = _count_ngrams(id_lists, max_len, key_bits)

    # Pass 2a (step 3.a): segment every function against the counts.
    with prof.phase("dictionary.segmentation"):
        if match_mode == "optimal":
            item_costs = [
                2.0 + (entry.target_size or 0)
                if entry.has_target and not entry.target_in_entry else 2.0
                for entry in result.base_entries
            ]
        else:
            item_costs = None
        all_lengths = _segment_functions(id_lists, block_ends, ngram_counts,
                                         max_len, key_bits, marks, match_mode,
                                         item_costs)

    # Pass 2b (steps 2-3): rewrite each function as dictionary references.
    with prof.phase("dictionary.rewrite"):
        sequence_entries = result.sequence_entries
        base_use_counts = result.base_use_counts
        for fn, ids, lengths in zip(program.functions, id_lists, all_lengths):
            refs: List[EntryRef] = []
            append = refs.append
            insns = fn.insns
            index = 0
            for match_len in lengths:
                last = insns[index + match_len - 1]
                meta = OP_TABLE[last.op]
                branch_target = last.target if meta.is_branch else None
                call_target = last.target if meta.is_call else None
                window = tuple(ids[index:index + match_len])
                if match_len >= 2:
                    sequence_entries[window] = (
                        sequence_entries.get(window, 0) + 1)
                else:
                    base_use_counts[window[0]] = (
                        base_use_counts.get(window[0], 0) + 1)
                append(EntryRef(base_ids=window,
                                branch_target=branch_target,
                                call_target=call_target))
                index += match_len
            result.function_refs.append(refs)
    return result


# ---------------------------------------------------------------------------
# Pass 1: packed n-gram counting.

def _count_ngrams(id_lists: Sequence[List[int]], max_len: int,
                  key_bits: int) -> Dict[int, int]:
    """Count 2..``max_len``-gram occurrences; packed-int keys, no tuples."""
    counts: Dict[int, int] = {}
    if max_len < 2:
        return counts
    get = counts.get
    marks = [1 << (length * key_bits) for length in range(max_len + 1)]
    for ids in id_lists:
        n = len(ids)
        for start in range(n - 1):
            packed = ids[start]
            shift = key_bits
            top = n - start
            if top > max_len:
                top = max_len
            for offset in range(1, top):
                packed |= ids[start + offset] << shift
                shift += key_bits
                key = packed | marks[offset + 1]
                counts[key] = get(key, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Pass 2a: per-function segmentation.

def _greedy_segmentation(ids: List[int], ends: List[int],
                         ngram_counts: Dict[int, int], max_len: int,
                         key_bits: int, marks: List[int]) -> List[int]:
    """The paper's greedy longest-match walk; returns segment lengths."""
    lengths: List[int] = []
    append = lengths.append
    get = ngram_counts.get
    n = len(ids)
    index = 0
    while index < n:
        limit = ends[index] - index
        if limit > max_len:
            limit = max_len
        match_len = 1
        if limit >= 2:
            packed = ids[index] | (ids[index + 1] << key_bits)
            if limit == 2:
                if get(packed | marks[2], 0) >= 2:
                    match_len = 2
            else:
                packs = [0, 0, packed]
                shift = 2 * key_bits
                for offset in range(2, limit):
                    packed |= ids[index + offset] << shift
                    shift += key_bits
                    packs.append(packed)
                for length in range(limit, 1, -1):
                    if get(packs[length] | marks[length], 0) >= 2:
                        match_len = length
                        break
        append(match_len)
        index += match_len
    return lengths


def _optimal_segmentation(ids: List[int], ends: List[int],
                          ngram_counts: Dict[int, int], max_len: int,
                          key_bits: int, marks: List[int],
                          item_costs: List[float]) -> List[int]:
    """Item-byte-minimizing segmentation (dynamic program).

    ``cost[i]`` = minimal item bytes to encode instructions ``i..n``;
    each candidate segment costs 2 (the 16-bit index) plus the target
    bytes its final instruction forces into the item stream
    (``item_costs``, indexed by base id).
    """
    n = len(ids)
    cost = [0.0] * (n + 1)
    choice = [1] * (n + 1)
    get = ngram_counts.get

    for index in range(n - 1, -1, -1):
        limit = ends[index] - index
        if limit > max_len:
            limit = max_len
        best = item_costs[ids[index]] + cost[index + 1]
        best_len = 1
        packed = ids[index]
        shift = key_bits
        for length in range(2, limit + 1):
            packed |= ids[index + length - 1] << shift
            shift += key_bits
            if get(packed | marks[length], 0) < 2:
                continue
            candidate = item_costs[ids[index + length - 1]] + cost[index + length]
            # Strict improvement or tie -> prefer the longer match (fewer
            # items stress the dictionary less).
            if candidate <= best:
                best = candidate
                best_len = length
        cost[index] = best
        choice[index] = best_len

    lengths: List[int] = []
    index = 0
    while index < n:
        lengths.append(choice[index])
        index += choice[index]
    return lengths


def _segment_functions(id_lists: List[List[int]], block_ends: List[List[int]],
                       ngram_counts: Dict[int, int], max_len: int,
                       key_bits: int, marks: List[int], match_mode: str,
                       item_costs: Optional[List[float]]) -> List[List[int]]:
    """Segment every function against the n-gram counts."""
    if match_mode == "greedy":
        return [_greedy_segmentation(ids, ends, ngram_counts, max_len,
                                     key_bits, marks)
                for ids, ends in zip(id_lists, block_ends)]
    return [_optimal_segmentation(ids, ends, ngram_counts, max_len,
                                  key_bits, marks, item_costs)
            for ids, ends in zip(id_lists, block_ends)]


def dictionary_statistics(dictionary: SSDDictionary) -> Dict[str, float]:
    """Summary numbers used by reports and tests."""
    covered, total = dictionary.coverage()
    items = sum(len(refs) for refs in dictionary.function_refs)
    lengths = [len(ids) for ids in dictionary.sequence_entries]
    return {
        "base_entries": len(dictionary.base_entries),
        "sequence_entries": len(dictionary.sequence_entries),
        "total_entries": dictionary.entry_count,
        "items": items,
        "instructions": total,
        "sequence_coverage": covered / total if total else 0.0,
        "mean_sequence_length": (sum(lengths) / len(lengths)) if lengths else 0.0,
        "compression_leverage": total / items if items else 0.0,
    }
