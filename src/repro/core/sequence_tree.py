"""Sequence-entry compression: the forest of prefix trees (section 2.2.2).

All sequence entries starting with the same instruction share one tree;
shared prefixes share nodes.  The forest serializes as a stream of 16-bit
tokens in prefix (DFS) order:

* when the dictionary's base-index space fits in 15 bits, a token with the
  high bit clear *descends* to a child whose base index is the low 15
  bits, and ``0x8000`` pops one level (the paper's "high-order bit of each
  index" variant);
* otherwise tokens are full 16-bit base indices and the reserved value
  ``0xFFFF`` marks upward traversal (the paper's "special index value"
  variant).  Index ``0xFFFF`` is kept out of the base space by the
  partitioning layer.

Sequence-entry 16-bit indices are *not transmitted*: both sides number the
depth >= 1 nodes in DFS visit order.  Nodes that exist only as shared
prefixes of longer entries receive (unused) indices too — that is the
price of the paper's "few pages of code" simplicity, and it is small
because shared prefixes are common.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Tuple

from ..errors import CorruptContainer, LimitExceeded, TruncatedStream
from ..lz import lz77
from ..lz.varint import ByteReader, ByteWriter
from .container import DEFAULT_LIMITS, DecodeLimits

#: the longest sequence entry, in base entries: the compressor refuses a
#: longer ``max_len`` and the decoder a longer tree path, which bounds
#: what one path costs the layout (the paper fixes 4)
SEQUENCE_LENGTH_CAP = 16

_POP_HIGH_BIT = 0x8000
_POP_RESERVED = 0xFFFF
_HIGH_BIT_LIMIT = 1 << 15


def _forest(sequences: Iterable[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Every node of the forest, roots included, in DFS order.

    Children are visited in increasing base-id order, so DFS order is the
    lexicographic order of the node paths (a path sorts before its
    extensions, and a subtree before its next sibling)."""
    nodes = set()
    for sequence in sequences:
        if len(sequence) < 2:
            raise ValueError(f"sequence entries have length >= 2, got {sequence}")
        for end in range(1, len(sequence) + 1):
            nodes.add(tuple(sequence[:end]))
    return sorted(nodes)


def assign_sequence_indices(
        sequences: Iterable[Tuple[int, ...]]) -> Dict[Tuple[int, ...], int]:
    """DFS-order rank of every depth >= 1 node, keyed by its path.

    The returned map contains *all* nodes (shared prefixes included); a
    sequence entry's 16-bit index is ``base_count + rank``.
    """
    paths = [path for path in _forest(sequences) if len(path) >= 2]
    return dict(zip(paths, range(len(paths))))


def encode_sequence_tree(sequences: Iterable[Tuple[int, ...]],
                         base_space: int) -> bytes:
    """Serialize the forest; ``base_space`` picks the token encoding.

    The token stream is LZ-compressed on the way out: the forest is part
    of the *split-stream compressed dictionary* (section 2.2), and its
    token stream is highly repetitive (popular base indices recur, and
    every node carries a constant pop token).
    """
    if base_space > _POP_RESERVED:
        raise ValueError(
            f"base space {base_space} cannot be addressed with 16-bit tokens")
    use_high_bit = base_space <= _HIGH_BIT_LIMIT
    pop_token = _POP_HIGH_BIT if use_high_bit else _POP_RESERVED
    # DFS: before entering a node, pop back up to its parent.
    tokens: List[int] = []
    depth = roots = 0
    for path in _forest(sequences):
        base_id = path[-1]
        if base_id >= base_space:
            raise ValueError(f"base id {base_id} outside base space {base_space}")
        if use_high_bit and base_id >= _HIGH_BIT_LIMIT:
            raise ValueError(f"base id {base_id} needs the reserved-pop encoding")
        if not use_high_bit and base_id == _POP_RESERVED:
            raise ValueError("base id collides with the reserved pop token")
        tokens += [pop_token] * (depth + 1 - len(path))
        tokens.append(base_id)
        depth = len(path)
        if depth == 1:
            roots += 1
    tokens += [pop_token] * depth
    writer = ByteWriter()
    writer.write_u8(1 if use_high_bit else 0)
    writer.write_uvarint(roots)
    writer.write_bytes(struct.pack(f"<{len(tokens)}H", *tokens))
    return lz77.compress(writer.getvalue())


def decode_sequence_tree(blob: bytes, limits: DecodeLimits = DEFAULT_LIMITS
                         ) -> Dict[Tuple[int, ...], int]:
    """Parse the forest; returns path -> DFS rank (as in assignment).

    A tree of more than ``limits.max_dict_entries`` nodes, or with a
    path longer than :data:`SEQUENCE_LENGTH_CAP`, raises
    :class:`~repro.errors.LimitExceeded` as it passes the bound.
    """
    data = lz77.decompress(blob, limits.max_blob_output)
    reader = ByteReader(data)
    use_high_bit = bool(reader.read_u8())
    root_count = reader.read_uvarint()
    limit = limits.max_dict_entries
    if root_count > limit:
        # every root of a well-formed forest has a node below it
        raise LimitExceeded(f"sequence tree declares {root_count} roots "
                            f"(limit {limit})")
    pop_token = _POP_HIGH_BIT if use_high_bit else _POP_RESERVED
    ranks: Dict[Tuple[int, ...], int] = {}
    counter = 0
    path: List[int] = []
    roots_seen = 0
    if not root_count:
        return ranks
    # The rest is little-endian u16 tokens: unpack them in one call, but
    # no more than the walk can use.  A pop follows a push, and a push
    # starts a root (at most ``root_count``) or adds a node (at most
    # ``limit`` before the walk raises).
    start = reader.position
    count = min((len(data) - start) // 2, 2 * (root_count + limit + 1))
    tokens = struct.unpack_from(f"<{count}H", data, start)
    for token in tokens:
        if token == pop_token:
            if not path:
                raise CorruptContainer("corrupt sequence tree: pop past a root")
            path.pop()
            if not path:
                roots_seen += 1
                if roots_seen == root_count:
                    break
            continue
        if use_high_bit and token & _POP_HIGH_BIT:
            raise CorruptContainer(f"corrupt sequence tree: unexpected token {token:#x}")
        path.append(token)
        depth = len(path)
        if depth >= 2:
            if depth > SEQUENCE_LENGTH_CAP:
                raise LimitExceeded(f"sequence tree path is longer than "
                                    f"{SEQUENCE_LENGTH_CAP} entries")
            if counter == limit:
                raise LimitExceeded(f"sequence tree declares more than "
                                    f"{limit} nodes")
            ranks[tuple(path)] = counter
            counter += 1
    if roots_seen < root_count:
        end = start + 2 * len(tokens)
        raise TruncatedStream(
            f"truncated byte block: need 2 bytes, {len(data) - end} remain",
            offset=end)
    if len(ranks) != counter:
        # a path seen twice would leave a hole in the index space
        raise CorruptContainer("corrupt sequence tree: duplicate path")
    return ranks


def sequence_index_map(sequences: Iterable[Tuple[int, ...]],
                       base_count: int) -> Dict[Tuple[int, ...], int]:
    """16-bit dictionary index of every sequence entry (and prefix node)."""
    return {path: base_count + rank
            for path, rank in assign_sequence_indices(sequences).items()}
