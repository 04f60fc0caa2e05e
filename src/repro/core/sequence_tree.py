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
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..errors import CorruptContainer, TruncatedStream
from ..lz import lz77
from ..lz.varint import ByteReader, ByteWriter

_POP_HIGH_BIT = 0x8000
_POP_RESERVED = 0xFFFF
_HIGH_BIT_LIMIT = 1 << 15


@dataclass
class _Node:
    children: Dict[int, "_Node"] = field(default_factory=dict)


def _build_forest(sequences: Iterable[Tuple[int, ...]]) -> Dict[int, _Node]:
    roots: Dict[int, _Node] = {}
    for sequence in sequences:
        if len(sequence) < 2:
            raise ValueError(f"sequence entries have length >= 2, got {sequence}")
        node = roots.setdefault(sequence[0], _Node())
        for base_id in sequence[1:]:
            node = node.children.setdefault(base_id, _Node())
    return roots


def assign_sequence_indices(
        sequences: Iterable[Tuple[int, ...]]) -> Dict[Tuple[int, ...], int]:
    """DFS-order rank of every depth >= 1 node, keyed by its path.

    The returned map contains *all* nodes (shared prefixes included); a
    sequence entry's 16-bit index is ``base_count + rank``.
    """
    roots = _build_forest(sequences)
    ranks: Dict[Tuple[int, ...], int] = {}
    counter = 0

    def visit(node: _Node, path: Tuple[int, ...]) -> None:
        nonlocal counter
        for base_id in sorted(node.children):
            child_path = path + (base_id,)
            ranks[child_path] = counter
            counter += 1
            visit(node.children[base_id], child_path)

    for root_id in sorted(roots):
        visit(roots[root_id], (root_id,))
    return ranks


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
    roots = _build_forest(sequences)
    writer = ByteWriter()
    writer.write_u8(1 if use_high_bit else 0)
    writer.write_uvarint(len(roots))

    def emit(value: int) -> None:
        writer.write_u16(value)

    def check(base_id: int) -> int:
        if base_id >= base_space:
            raise ValueError(f"base id {base_id} outside base space {base_space}")
        if use_high_bit and base_id >= _HIGH_BIT_LIMIT:
            raise ValueError(f"base id {base_id} needs the reserved-pop encoding")
        if not use_high_bit and base_id == _POP_RESERVED:
            raise ValueError("base id collides with the reserved pop token")
        return base_id

    def visit(node: _Node) -> None:
        for base_id in sorted(node.children):
            emit(check(base_id))
            visit(node.children[base_id])
            emit(pop_token)

    for root_id in sorted(roots):
        emit(check(root_id))
        visit(roots[root_id])
        emit(pop_token)
    payload = writer.getvalue()
    out = ByteWriter()
    out.write_bytes(lz77.compress(payload))
    return out.getvalue()


def decode_sequence_tree(blob: bytes) -> Dict[Tuple[int, ...], int]:
    """Parse the forest; returns path -> DFS rank (as in assignment)."""
    data = lz77.decompress(blob)
    reader = ByteReader(data)
    use_high_bit = bool(reader.read_u8())
    root_count = reader.read_uvarint()
    pop_token = _POP_HIGH_BIT if use_high_bit else _POP_RESERVED
    ranks: Dict[Tuple[int, ...], int] = {}
    counter = 0
    path: List[int] = []
    roots_seen = 0
    if not root_count:
        return ranks
    # The rest is little-endian u16 tokens: unpack them in one call.
    start = reader.position
    tokens = struct.unpack_from(f"<{(len(data) - start) // 2}H", data, start)
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
        if len(path) >= 2:
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
