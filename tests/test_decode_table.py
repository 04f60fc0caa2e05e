"""Differential tests for the decode table (``SegmentLayout.table``).

The oracle below is the copy phase as it stood before the table existed:
each dictionary index expands lazily, on first use, by walking its path
through the layout's base rows (``_oracle_expansion``, which builds each
instruction through the validating constructor), and every
target-carrying tail is materialized with ``Instruction.replace_target``.
``SSDReader.function_instructions`` must return exactly what the oracle
returns, for every function, on both kernel backends.

The remaining tests give each decode-time ``DecompressionError`` a
crafted input, pin the rule that paths of the common sequence tree stay
inside the common dictionary, and check the bulk sequence-tree reader
against the token-at-a-time one it replaced.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro import kernels
from repro.core import (
    DecompressionError,
    compress,
    open_container,
    parse,
    serialize,
)
from repro.core import partition as partition_module
from repro.core.base_entries import decode_base_entries
from repro.core.items import resolve_plane_targets
from repro.core.sequence_tree import decode_sequence_tree, encode_sequence_tree
from repro.errors import CorruptContainer, ReproError
from repro.isa import OP_BY_CODE, Instruction, assemble
from repro.kernels import KIND_CALL, KIND_PLAIN, ItemPlanes
from repro.lz import lz77
from repro.lz.varint import ByteReader, ByteWriter
from repro.workloads import PROFILES, benchmark_program

_BACKENDS = ("python", "numpy") if kernels.has_numpy() else ("python",)


@pytest.fixture(params=_BACKENDS)
def backend(request):
    previous = kernels.set_backend(request.param)
    yield request.param
    kernels.set_backend(previous)


# -- the oracle ----------------------------------------------------------------

def _has_target(row) -> bool:
    meta = OP_BY_CODE[row[0]]
    return meta.is_branch or meta.is_call


def _stored_target(row):
    """The target a row stores (absolute-targets ablation), else None."""
    return row[6] if len(row) > 6 else None


def _instruction(row) -> Instruction:
    """A row's fields through the validating constructor, target 0."""
    return Instruction(op=OP_BY_CODE[row[0]].op, rd=row[3], rs1=row[4],
                       rs2=row[5], imm=row[1],
                       target=0 if _has_target(row) else None)


def _oracle_expansion(layout, index):
    """``(prefix, last_insn, last_is_branch)`` of one index, by path walk."""
    path = layout.paths[index]
    last_offset = len(path) - 1
    prefix = []
    for offset, addr in enumerate(path):
        row = layout.addr_rows[addr]
        insn = _instruction(row)
        if _has_target(row):
            if offset != last_offset:
                raise DecompressionError(
                    "control transfer inside a sequence entry")
            if _stored_target(row) is not None:
                prefix.append(insn.replace_target(_stored_target(row)))
            else:
                return prefix, insn, insn.is_branch
        else:
            prefix.append(insn)
    return prefix, None, False


def _oracle_function(reader, findex, cache: Dict[int, tuple]):
    layout = reader.layout_for_function(findex)
    planes = reader.item_planes(findex)
    targets = resolve_plane_targets(planes)
    instructions = []
    for index, kind, value, target in zip(planes.indices, planes.kinds,
                                          planes.values, targets):
        expansion = cache.get(index)
        if expansion is None:
            expansion = cache[index] = _oracle_expansion(layout, index)
        prefix, last_insn, last_is_branch = expansion
        instructions.extend(prefix)
        if last_insn is None:
            continue
        if last_is_branch:
            if target is None:
                raise DecompressionError(
                    "branch item without a resolved target")
            instructions.append(last_insn.replace_target(target))
        else:
            if kind != KIND_CALL:
                raise DecompressionError("call item without a callee index")
            instructions.append(last_insn.replace_target(value))
    return instructions


def _assert_matches_oracle(data: bytes) -> None:
    reader = open_container(data)
    caches: List[Dict[int, tuple]] = [{} for _ in reader.layouts]
    for findex in range(reader.function_count):
        cache = caches[reader.segment_of_function[findex]]
        assert (reader.function_instructions(findex)
                == _oracle_function(reader, findex, cache)), findex


# -- containers ------------------------------------------------------------------

_CONTAINERS: Dict[str, bytes] = {}


def _container(name: str) -> bytes:
    """Compressed once per test session: name -> container bytes."""
    if name not in _CONTAINERS:
        _CONTAINERS[name] = _build(name)
    return _CONTAINERS[name]


def _build(name: str) -> bytes:
    if name == "word97@0.1":
        return compress(benchmark_program("word97", 0.1)).data
    if name == "absolute":
        return compress(benchmark_program("go", 0.05),
                        branch_targets="absolute").data
    if name == "segmented":
        return _segmented_container()
    return compress(benchmark_program(name, 0.05)).data


def _segmented_container() -> bytes:
    """A multi-segment container whose common dictionary holds both base
    entries and sequences (small segments forced by a low capacity)."""
    original = partition_module.SEGMENT_CAPACITY
    partition_module.SEGMENT_CAPACITY = 1500
    try:
        return compress(benchmark_program("gcc", 0.05),
                        common_budget=600).data
    finally:
        partition_module.SEGMENT_CAPACITY = original


_NAMES = [p.name for p in PROFILES] + ["word97@0.1", "absolute", "segmented"]


@pytest.mark.parametrize("name", _NAMES)
def test_function_instructions_match_oracle(name, backend):
    _assert_matches_oracle(_container(name))


def test_fixture_shapes():
    """The special containers exercise the paths they are named for."""
    absolute = open_container(_container("absolute"))
    assert any(_stored_target(row) is not None
               for layout in absolute.layouts for row in layout.addr_rows)
    segmented = open_container(_container("segmented"))
    assert len(segmented.layouts) > 1
    assert segmented.sections.common_base_blob
    assert decode_sequence_tree(segmented.sections.common_tree_blob)


def _common_sizes(sections):
    """(common base count, common sequence count) of a container."""
    return (len(decode_base_entries(sections.common_base_blob)),
            len(decode_sequence_tree(sections.common_tree_blob)))


def test_common_region_is_shared_by_every_segment():
    reader = open_container(_container("segmented"))
    common = sum(_common_sizes(reader.sections))
    first = reader.layouts[0].table
    for layout in reader.layouts[1:]:
        assert len(layout.table) == len(layout.paths)
        assert all(mine is shared
                   for mine, shared in zip(layout.table[:common], first))


# -- decode-time errors ------------------------------------------------------------

_BRANCHY = """
func main
    li r1, 1
    li r2, 2
    bnez r1, out
    li r3, 3
out:
    call helper
    ret
end
func helper
    li r1, 1
    li r2, 2
    ret
end
"""


def _index_with_tail(layout, is_branch: bool) -> int:
    for index, (_, tail, tail_is_branch) in enumerate(layout.table):
        if tail is not None and tail_is_branch is is_branch:
            return index
    raise AssertionError("no such index in the fixture")


def _reader_with_planes(indices, kinds):
    reader = open_container(compress(assemble(_BRANCHY)).data)
    planes = ItemPlanes(indices=list(indices), kinds=list(kinds),
                        values=[0] * len(indices),
                        lengths=[1] * len(indices),
                        starts=list(range(len(indices))))
    reader.item_planes = lambda findex: planes
    return reader


def test_branch_item_without_target_is_rejected():
    layout = open_container(compress(assemble(_BRANCHY)).data).layouts[0]
    index = _index_with_tail(layout, is_branch=True)
    reader = _reader_with_planes([index], [KIND_PLAIN])
    with pytest.raises(DecompressionError,
                       match="branch item without a resolved target"):
        reader.function_instructions(0)


def test_call_item_without_callee_is_rejected():
    layout = open_container(compress(assemble(_BRANCHY)).data).layouts[0]
    index = _index_with_tail(layout, is_branch=False)
    reader = _reader_with_planes([index], [KIND_PLAIN])
    with pytest.raises(DecompressionError,
                       match="call item without a callee index"):
        reader.function_instructions(0)


def _with_trees(data: bytes, common_paths=None, local_paths=None,
                base_space=None) -> bytes:
    """``data`` with its common and/or first local sequence tree replaced
    by hand-encoded ``paths`` (re-serialized, so checksums are valid)."""
    sections = parse(data)
    if common_paths is not None:
        sections.common_tree_blob = encode_sequence_tree(
            common_paths, base_space=base_space)
    if local_paths is not None:
        sections.segments[0].tree_blob = encode_sequence_tree(
            local_paths, base_space=base_space)
    return serialize(sections)


def test_control_transfer_inside_sequence_is_rejected_at_open():
    data = compress(assemble(_BRANCHY)).data
    layout = open_container(data).layouts[0]
    branch = next(addr for addr, row in enumerate(layout.addr_rows)
                  if OP_BY_CODE[row[0]].is_branch)
    plain = next(addr for addr, row in enumerate(layout.addr_rows)
                 if not _has_target(row))
    crafted = _with_trees(data, local_paths=[(branch, plain)],
                          base_space=len(layout.addr_rows))
    with pytest.raises(DecompressionError,
                       match="control transfer inside a sequence entry"):
        open_container(crafted)


def test_common_tree_path_into_local_bases_is_rejected():
    """A common path may only name common bases: one naming a segment's
    local base would expand differently in every segment."""
    data = _container("segmented")
    reader = open_container(data)
    layout = reader.layouts[0]
    cb, _ = _common_sizes(reader.sections)
    lb = len(layout.addr_rows) - cb
    common_paths = list(decode_sequence_tree(reader.sections.common_tree_blob))
    plain_common, plain_local = (
        next(addr for addr in addrs
             if not _has_target(layout.addr_rows[addr]))
        for addrs in (range(cb), range(cb, cb + lb)))
    crafted = _with_trees(
        data, common_paths=common_paths + [(plain_common, plain_local)],
        base_space=cb + lb)
    with pytest.raises(CorruptContainer) as caught:
        open_container(crafted)
    assert caught.value.section == "common.tree"


def test_duplicate_tree_path_is_rejected():
    """A path twice in the forest would leave a hole in the index space."""
    writer = ByteWriter()
    writer.write_u8(1)           # high-bit pop tokens
    writer.write_uvarint(2)      # two roots, each 0 -> 1
    for _ in range(2):
        for token in (0, 1, 0x8000, 0x8000):
            writer.write_u16(token)
    with pytest.raises(CorruptContainer, match="duplicate path"):
        decode_sequence_tree(lz77.compress(writer.getvalue()))


def _tree_oracle(blob: bytes):
    """The token-at-a-time forest reader ``decode_sequence_tree`` replaced."""
    reader = ByteReader(lz77.decompress(blob))
    use_high_bit = bool(reader.read_u8())
    root_count = reader.read_uvarint()
    pop_token = 0x8000 if use_high_bit else 0xFFFF
    ranks, counter, path, roots_seen = {}, 0, [], 0
    while roots_seen < root_count:
        token = reader.read_u16()
        if token == pop_token:
            if not path:
                raise CorruptContainer("corrupt sequence tree: pop past a root")
            path.pop()
            if not path:
                roots_seen += 1
            continue
        if use_high_bit and token & 0x8000:
            raise CorruptContainer(
                f"corrupt sequence tree: unexpected token {token:#x}")
        path.append(token)
        if len(path) >= 2:
            ranks[tuple(path)] = counter
            counter += 1
    if len(ranks) != counter:
        raise CorruptContainer("corrupt sequence tree: duplicate path")
    return ranks


def _tree_outcome(decode, blob):
    try:
        return ("ok", decode(blob))
    except ReproError as exc:
        return ("err", type(exc), str(exc), exc.offset)


def test_tree_decode_matches_token_reader_on_damaged_forests():
    """Bulk token unpacking keeps every result, error type, message and
    offset of the one-token-at-a-time reader (seeded damage)."""
    rng = random.Random(0)
    for _ in range(1500):
        forest = {tuple(rng.randrange(8) for _ in range(rng.randrange(2, 5)))
                  for _ in range(rng.randrange(12))}
        raw = bytearray(lz77.decompress(encode_sequence_tree(
            sorted(forest), base_space=rng.choice([10, 40000]))))
        damage = rng.randrange(4)
        if damage == 0:
            del raw[rng.randrange(len(raw)):]
        elif damage == 1:
            raw[rng.randrange(len(raw))] = rng.randrange(256)
        elif damage == 2:
            raw += bytes(rng.randrange(256) for _ in range(rng.randrange(1, 4)))
        blob = lz77.compress(bytes(raw))
        assert (_tree_outcome(decode_sequence_tree, blob)
                == _tree_outcome(_tree_oracle, blob))
