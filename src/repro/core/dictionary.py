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

Implementation note: the compressor works on integer columns, never on
one Python object per instruction or per reference.  Pass 0 reads each
instruction's fields once and interns its *row* — ``(opcode code, imm,
target size, rd, rs1, rs2)``, plus the stored target in the
absolute-targets ablation — to a dense integer *base id*.  The row is
the only form of a base entry, here and in the decoder, layout and JIT:
sorted rows are the canonical base-entry order, and decoding a base
blob gives back the same rows.  Every later stage (n-gram counting,
segmentation, the rewrite, partitioning, layout and item encoding)
works on small integers: a
window of ids packs into a *single* integer (``id0 | id1 << k | ...``
plus a length-marker bit; a lone id is its own key), so neither the
n-gram tables nor the rewritten program hold per-window tuples.  The
rewrite is two parallel per-function columns, the packed key and the
branch or call target of each reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa import Program
from ..isa.instruction import target_size_class
from ..perf.profile import PhaseProfile, ensure
from .sequence_tree import SEQUENCE_LENGTH_CAP

#: Maximum sequence-entry length (the paper's L <= 4).
MAX_SEQUENCE_LENGTH = 4

#: A base entry: its fields as one sortable tuple, ``(code, imm, target
#: size, rd, rs1, rs2)``, with the stored target appended in the
#: absolute-targets ablation; unused fields are ``None``.  Sorted rows
#: are in the canonical base-entry order (paper section 2.2.1).
Row = Tuple[Optional[int], ...]


@dataclass
class SSDDictionary:
    """The constructed dictionary plus the rewritten program.

    ``rows[i]`` is the row of the base entry with (provisional) id
    ``i``; ``sequence_entries`` maps id-tuples to their
    use counts and ``sequence_keys`` to their packed keys.  Provisional
    ids are first-seen order; the layout re-maps them to the canonical
    order defined by base-entry compression.

    The rewritten program is two parallel columns per function:
    ``function_keys[f][r]`` is reference ``r``'s packed key (a base id,
    or a packed window of ``key_bits``-bit ids, see :meth:`window`) and
    ``function_targets[f][r]`` the target of its last instruction: an
    instruction index for a branch, a callee index for a call, else
    ``None``.
    """

    key_bits: int = 1
    rows: List[Row] = field(default_factory=list)
    sequence_entries: Dict[Tuple[int, ...], int] = field(default_factory=dict)
    sequence_keys: Dict[Tuple[int, ...], int] = field(default_factory=dict)
    base_use_counts: Dict[int, int] = field(default_factory=dict)
    function_keys: List[List[int]] = field(default_factory=list)
    function_targets: List[List[Optional[int]]] = field(default_factory=list)

    @property
    def entry_count(self) -> int:
        return len(self.rows) + len(self.sequence_entries)

    def window(self, key: int) -> Tuple[int, ...]:
        """The base ids a packed reference key stands for."""
        if key < 1 << self.key_bits:
            return (key,)
        return _unpack(key, self.key_bits)

    def coverage(self) -> Tuple[int, int]:
        """(instructions covered by sequence refs, total instructions)."""
        covered = sum(len(window) * count
                      for window, count in self.sequence_entries.items())
        return covered, covered + sum(self.base_use_counts.values())


def _unpack(key: int, key_bits: int) -> Tuple[int, ...]:
    mask = (1 << key_bits) - 1
    length = (key.bit_length() - 1) // key_bits
    return tuple([key >> shift & mask
                  for shift in range(0, length * key_bits, key_bits)])


def build_dictionary(program: Program,
                     max_len: int = MAX_SEQUENCE_LENGTH,
                     absolute_targets: bool = False,
                     match_mode: str = "greedy",
                     profile: Optional[PhaseProfile] = None) -> SSDDictionary:
    """Run Algorithm 1 over ``program``.

    ``max_len`` parameterizes the paper's fixed 4 for the sequence-length
    ablation experiment, up to
    :data:`~repro.core.sequence_tree.SEQUENCE_LENGTH_CAP`.
    ``absolute_targets`` switches to the ablation variant where targets
    live inside dictionary entries (branches with different targets no
    longer share an entry).

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
    if max_len > SEQUENCE_LENGTH_CAP:
        raise ValueError(f"max_len must be <= {SEQUENCE_LENGTH_CAP}, "
                         f"got {max_len}")
    if match_mode not in ("greedy", "optimal"):
        raise ValueError(f"match_mode must be greedy/optimal, got {match_mode!r}")
    prof = ensure(profile)
    result = SSDDictionary()

    # Pass 0 (step 1): base ids per instruction (in first-seen program
    # order) and the end of each instruction's basic block.
    with prof.phase("dictionary.base_entries"):
        rows, id_lists, block_ends = intern_rows(program, absolute_targets)
        result.rows = rows
    key_bits = result.key_bits = max(1, (len(rows) - 1).bit_length())

    # Pass 1: n-gram occurrence counts (the "occurs at least twice" oracle).
    with prof.phase("dictionary.ngrams"):
        ngram_counts = _count_ngrams(id_lists, max_len, key_bits)

    # Pass 2a (step 3.a): segment every function against the counts.
    with prof.phase("dictionary.segmentation"):
        if match_mode == "optimal":
            # 2 bytes of index, plus the target bytes the item carries.
            item_costs = [2.0 if row[2] is None or absolute_targets
                          else 2.0 + row[2] for row in rows]
            segments = [_optimal_segmentation(ids, ends, ngram_counts,
                                              max_len, key_bits, item_costs)
                        for ids, ends in zip(id_lists, block_ends)]
        else:
            segments = [_greedy_segmentation(ids, ends, ngram_counts,
                                             max_len, key_bits)
                        for ids, ends in zip(id_lists, block_ends)]
    del ngram_counts

    # Pass 2b (steps 2-3): the reference columns and the use counts.
    with prof.phase("dictionary.rewrite"):
        uses: Counter = Counter()
        for fn, (keys, stops) in zip(program.functions, segments):
            insns = fn.insns
            result.function_keys.append(keys)
            result.function_targets.append(
                [insns[stop - 1].target for stop in stops])
            uses.update(keys)
        single = 1 << key_bits
        for key, count in uses.items():
            if key < single:
                result.base_use_counts[key] = count
            else:
                window = _unpack(key, key_bits)
                result.sequence_entries[window] = count
                result.sequence_keys[window] = key
    return result


# ---------------------------------------------------------------------------
# Pass 0: interning and basic blocks.

def intern_rows(program: Program, absolute_targets: bool = False
                ) -> Tuple[List[Row], List[List[int]], List[List[int]]]:
    """Pass 0: rows by base id, each function's base ids, and per
    instruction the end of its basic block.

    This is the paper's matching rule (section 2.1), the only copy of
    it: two instructions share a row, and so a base id, exactly when
    every field is equal, branch and call targets compared by encoded
    size (by value too under ``absolute_targets``).  Base ids are
    first-seen program order.  Block leaders are instruction 0, every
    branch target and every instruction after a terminator, as in
    :func:`repro.isa.basic_blocks`.
    """
    id_of: Dict[Row, int] = {}
    id_lists: List[List[int]] = []
    block_ends: List[List[int]] = []
    for fn in program.functions:
        ids: List[int] = []
        append = ids.append
        count = len(fn.insns)
        leaders = set()
        for index, insn in enumerate(fn.insns):
            meta = insn.op._op_info  # what ``repro.isa.info`` returns
            if meta.uses_target:
                target = insn.target
                leaders.add(index + 1)
                if meta.is_branch:
                    leaders.add(target)
                    size = target_size_class(target - (index + 1))
                else:
                    size = (1 if target < (1 << 8) else
                            2 if target < (1 << 16) else 4)
                row: Row = (meta.code, insn.imm, size, insn.rd, insn.rs1,
                            insn.rs2)
                if absolute_targets:
                    row += (target,)
            else:
                if meta.is_terminator:
                    leaders.add(index + 1)
                row = (meta.code, insn.imm, None, insn.rd, insn.rs1,
                       insn.rs2)
            base_id = id_of.get(row)
            if base_id is None:
                base_id = id_of[row] = len(id_of)
            append(base_id)
        id_lists.append(ids)
        ends: List[int] = []
        start = 0
        for leader in sorted(leader for leader in leaders
                             if 0 < leader < count):
            ends += [leader] * (leader - start)
            start = leader
        ends += [count] * (count - start)
        block_ends.append(ends)
    return list(id_of), id_lists, block_ends


# ---------------------------------------------------------------------------
# Pass 1: packed n-gram counting.

def _windows(ids: List[int], max_len: int, key_bits: int) -> List[List[int]]:
    """``windows[L][i]``: the packed key of ``ids[i:i + L]``, for every
    ``L`` in ``2..max_len`` (entries 0 and 1 are placeholders)."""
    windows: List[List[int]] = [[], ids]
    packed = ids
    for length in range(2, max_len + 1):
        shift = (length - 1) * key_bits
        # Swap the shorter window's marker bit for the longer one's.
        marker = (1 << (length * key_bits)) - (1 << shift if length > 2 else 0)
        packed = [head + (last << shift) + marker
                  for head, last in zip(packed, ids[length - 1:])]
        windows.append(packed)
    return windows


def _count_ngrams(id_lists: Sequence[List[int]], max_len: int,
                  key_bits: int) -> Counter:
    """Count 2..``max_len``-gram occurrences; packed-int keys, no tuples."""
    counts: Counter = Counter()
    for ids in id_lists:
        for packed in _windows(ids, max_len, key_bits)[2:]:
            counts.update(packed)
    return counts


# ---------------------------------------------------------------------------
# Pass 2a: per-function segmentation.  Each returns the packed key of
# every reference and the instruction index just past it.

def _greedy_segmentation(ids: List[int], ends: List[int],
                         counts: Dict[int, int],
                         max_len: int, key_bits: int
                         ) -> Tuple[List[int], List[int]]:
    """The paper's greedy longest-match walk."""
    windows = _windows(ids, max_len, key_bits)
    count = counts.get
    keys: List[int] = []
    stops: List[int] = []
    n = len(ids)
    index = 0
    while index < n:
        key = ids[index]
        length = ends[index] - index
        if length > max_len:
            length = max_len
        while length > 1:
            candidate = windows[length][index]
            if count(candidate, 0) >= 2:
                key = candidate
                break
            length -= 1
        keys.append(key)
        index += length
        stops.append(index)
    return keys, stops


def _optimal_segmentation(ids: List[int], ends: List[int],
                          counts: Dict[int, int],
                          max_len: int, key_bits: int,
                          item_costs: List[float]
                          ) -> Tuple[List[int], List[int]]:
    """Item-byte-minimizing segmentation (dynamic program).

    ``cost[i]`` = minimal item bytes to encode instructions ``i..n``;
    each candidate segment costs 2 (the 16-bit index) plus the target
    bytes its final instruction forces into the item stream
    (``item_costs``, indexed by base id).
    """
    windows = _windows(ids, max_len, key_bits)
    count = counts.get
    n = len(ids)
    cost = [0.0] * (n + 1)
    choice = [1] * (n + 1)
    chosen = list(ids)
    for index in range(n - 1, -1, -1):
        limit = ends[index] - index
        if limit > max_len:
            limit = max_len
        best = item_costs[ids[index]] + cost[index + 1]
        for length in range(2, limit + 1):
            candidate = windows[length][index]
            if count(candidate, 0) < 2:
                continue
            total = item_costs[ids[index + length - 1]] + cost[index + length]
            # Strict improvement or tie -> prefer the longer match (fewer
            # items stress the dictionary less).
            if total <= best:
                best = total
                choice[index] = length
                chosen[index] = candidate
        cost[index] = best

    keys: List[int] = []
    stops: List[int] = []
    index = 0
    while index < n:
        keys.append(chosen[index])
        index += choice[index]
        stops.append(index)
    return keys, stops


def dictionary_statistics(dictionary: SSDDictionary) -> Dict[str, float]:
    """Summary numbers used by reports and tests."""
    covered, total = dictionary.coverage()
    items = sum(map(len, dictionary.function_keys))
    lengths = [len(ids) for ids in dictionary.sequence_entries]
    return {
        "base_entries": len(dictionary.rows),
        "sequence_entries": len(dictionary.sequence_entries),
        "total_entries": dictionary.entry_count,
        "items": items,
        "instructions": total,
        "sequence_coverage": covered / total if total else 0.0,
        "mean_sequence_length": (sum(lengths) / len(lengths)) if lengths else 0.0,
        "compression_leverage": total / items if items else 0.0,
    }
