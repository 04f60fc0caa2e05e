"""Differential tests for the phase-one instruction table.

The oracle below is the table builder and the copy phase as they stood
before the one-pass, list-indexed table: ``_oracle_table`` walks
``layout.paths`` and keeps one row per index in a dict, and
``_oracle_copy`` is the item-at-a-time Algorithm 3 over that dict.
``build_tables`` must give equal rows index by index, and
``Translator.translate_function`` must give equal code, relocations and
item offsets for every function, on both kernel backends.

The remaining tests pin that the table is lowered from the layout's
base rows alone, the hole rule, the lowering error, the sharing of the
common region, the immutability of memoized tables, and the typed error
raised when tables built for another container are used.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Tuple

import pytest

from repro.core import compress, open_container
from repro.core.copy_phase import (
    CallRelocation,
    CopyPhaseError,
    TableEntry,
    TranslatedFunction,
    copy_translate_planes,
)
from repro.core.layout import SegmentLayout
from repro.errors import CorruptContainer, ReproError
from repro.isa import OP_BY_CODE, assemble
from repro.kernels import KIND_BRANCH, KIND_CALL, KIND_PLAIN, ItemPlanes
from repro.jit import (
    BlockTranslator,
    Translator,
    build_table_for_layout,
    build_tables,
    copy_translate_range,
)
from repro.vm.native import CALL_HOLE_SIZE, lower_instruction
from repro.workloads import benchmark_program

from .test_decode_table import (  # noqa: F401
    _NAMES,
    _container,
    _has_target,
    _instruction,
    _stored_target,
    backend,
)


# -- the oracle ----------------------------------------------------------------

def _oracle_table(layout: SegmentLayout) -> Dict[int, TableEntry]:
    """Build one segment's instruction table from its layout.

    Dictionary entries come from untrusted container bytes, so lowering
    failures (a decoded entry whose fields no native encoding can hold)
    surface as :class:`~repro.errors.CorruptContainer`, not as internal
    exceptions.
    """
    base_chunks = []
    for addr, row in enumerate(layout.addr_rows):
        target_size = row[2] if _has_target(row) else None
        try:
            base_chunks.append(lower_instruction(_instruction(row), target_size))
        except ReproError:
            raise
        except (ValueError, OverflowError, KeyError) as exc:
            raise CorruptContainer(
                f"dictionary entry {addr} fails native lowering: {exc}") from exc

    table: Dict[int, TableEntry] = {}
    for index, path in enumerate(layout.paths):
        chunks = [base_chunks[addr] for addr in path]
        data = b"".join(chunk.data for chunk in chunks)
        last_row = layout.addr_rows[path[-1]]
        last = chunks[-1]
        if _has_target(last_row) and _stored_target(last_row) is None:
            hole_offset = len(data) - last.size + last.hole_offset
            table[index] = TableEntry(data=data,
                                      hole_offset=hole_offset,
                                      hole_size=last.hole_size,
                                      is_call=last.is_call)
        else:
            table[index] = TableEntry(data=data)
    return table


def _oracle_patch(code: bytearray, offset: int, size: int, value: int) -> None:
    lo = -(1 << (8 * size - 1))
    hi = (1 << (8 * size - 1)) - 1
    if not lo <= value <= hi:
        raise CopyPhaseError(
            f"native displacement {value} does not fit the {size}-byte hole")
    code[offset:offset + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
        size, "little")


def _oracle_copy(planes: ItemPlanes,
                 table: Dict[int, TableEntry]) -> TranslatedFunction:
    """Algorithm 3, one item at a time, over a dict table."""
    code = bytearray()
    item_offsets: List[int] = []
    relocations: List[CallRelocation] = []
    pending: List[Tuple[int, int, int]] = []
    items = zip(planes.indices, planes.kinds, planes.values)
    for item_index, (dict_index, kind, value) in enumerate(items):
        entry = table.get(dict_index)
        if entry is None:
            raise CopyPhaseError(
                f"no instruction-table entry for index {dict_index}")
        start = len(code)
        item_offsets.append(start)
        code += entry.data
        if kind == KIND_BRANCH:
            if entry.hole_size == 0 or entry.is_call:
                raise CopyPhaseError("branch target on an entry without a branch hole")
            target_item = item_index + 1 + value
            if not 0 <= target_item < planes.count:
                raise CopyPhaseError("branch target item out of range")
            hole_at = start + entry.hole_offset
            if target_item <= item_index:
                _oracle_patch(code, hole_at, entry.hole_size,
                              item_offsets[target_item] - (hole_at + entry.hole_size))
            else:
                pending.append((hole_at, entry.hole_size, target_item))
        elif kind == KIND_CALL:
            if entry.hole_size == 0 or not entry.is_call:
                raise CopyPhaseError("call target on an entry without a call hole")
            relocations.append(CallRelocation(
                hole_offset=start + entry.hole_offset,
                hole_size=entry.hole_size, callee=value))
    for hole_at, hole_size, target_item in pending:
        _oracle_patch(code, hole_at, hole_size,
                      item_offsets[target_item] - (hole_at + hole_size))
    return TranslatedFunction(code=code, call_relocations=relocations,
                              item_offsets=item_offsets)


@pytest.mark.parametrize("name", _NAMES)
def test_tables_and_translations_match_oracle(name, backend):
    reader = open_container(_container(name))
    tables = build_tables(reader, use_cache=False)
    oracles = [_oracle_table(layout) for layout in reader.layouts]
    for table, oracle in zip(tables.tables, oracles, strict=True):
        assert isinstance(table, tuple)
        assert len(table) == len(oracle)
        for index, row in oracle.items():
            assert table[index] == row, index
    translator = Translator(reader, tables)
    for findex in range(reader.function_count):
        got = translator.translate_function(findex).translated
        want = _oracle_copy(reader.item_planes(findex),
                            oracles[reader.segment_of_function[findex]])
        assert got.code == want.code, findex
        assert got.call_relocations == want.call_relocations, findex
        assert got.item_offsets == want.item_offsets, findex


# -- lowering errors, sharing, immutability ------------------------------------------

_SMALL = """
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
    ret
end
"""


@pytest.mark.parametrize("knobs, digest", [
    ({},
     "b4c03cc3c4128512466a4c6b3d53427c785e51653a2bd68cfb35136961e9d030"),
    ({"branch_targets": "absolute"},
     "9743fd9c468f2261b37c810900644799d64f7f7e02ec3b730c98fd4e8c58f065"),
], ids=["default", "absolute"])
def test_table_is_lowered_from_rows_without_the_decode_table(knobs, digest):
    """The word97@0.05 digests of ``test_core_pinned_tables.py``, with
    every layout's decode table emptied first."""
    reader = open_container(compress(benchmark_program("word97", 0.05),
                                     **knobs).data)
    tables: List[tuple] = []
    for layout in reader.layouts:
        layout.table = ()
        tables.append(build_table_for_layout(layout, tables[0] if tables else ()))
    sha = hashlib.sha256()
    for table in tables:
        sha.update(b"segment")
        for entry in table:
            sha.update(repr((entry.data, entry.hole_offset,
                             entry.hole_size, entry.is_call)).encode())
    assert sha.hexdigest() == digest


@pytest.mark.parametrize("knobs, row_length", [
    ({}, 6), ({"branch_targets": "absolute"}, 7)], ids=["default", "absolute"])
def test_only_a_row_without_its_target_has_a_hole(knobs, row_length):
    layout = open_container(compress(assemble(_SMALL), **knobs).data).layouts[0]
    table = build_table_for_layout(layout)
    targeted = 0
    for index, path in enumerate(layout.paths):
        row = layout.addr_rows[path[-1]]
        meta = OP_BY_CODE[row[0]]
        entry = table[index]
        if not meta.uses_target:
            assert entry.hole_size == 0
            continue
        targeted += 1
        assert len(row) == row_length
        if row_length == 7:
            # The stored target travels in the entry: nothing to patch.
            assert entry == TableEntry(entry.data)
            continue
        hole_size = row[2] if meta.is_branch else CALL_HOLE_SIZE
        assert entry.hole_size == hole_size
        assert entry.hole_offset == len(entry.data) - hole_size
        assert entry.is_call == meta.is_call
        assert entry.data.endswith(bytes(hole_size))
    assert targeted >= 2  # the bnez and the call


def test_base_that_fails_lowering_raises_corrupt_container():
    layout = open_container(compress(assemble(_SMALL)).data).layouts[0]
    rows = layout.addr_rows
    addr = next(addr for addr, row in enumerate(rows)
                if OP_BY_CODE[row[0]].is_branch)
    # No native branch has a 3-byte displacement.
    rows[addr] = rows[addr][:2] + (3,) + rows[addr][3:]
    with pytest.raises(CorruptContainer,
                       match=f"dictionary entry {addr} fails native lowering"):
        build_table_for_layout(layout)


@pytest.mark.parametrize("column, value", [(2, 0), (2, None), (1, 1 << 40)],
                         ids=["target-size-0", "no-target-size", "imm-2**40"])
def test_row_no_native_encoding_holds_raises_corrupt_container(column, value):
    layout = open_container(compress(assemble(_SMALL)).data).layouts[0]
    rows = layout.addr_rows
    wanted = (lambda meta: meta.is_branch) if column == 2 else (
        lambda meta: meta.uses_imm)
    addr = next(addr for addr, row in enumerate(rows)
                if wanted(OP_BY_CODE[row[0]]))
    rows[addr] = rows[addr][:column] + (value,) + rows[addr][column + 1:]
    with pytest.raises(CorruptContainer,
                       match=f"dictionary entry {addr} fails native lowering"):
        build_table_for_layout(layout)


def test_common_region_rows_are_shared_by_every_segment():
    reader = open_container(_container("segmented"))
    cb, common = reader.layouts[0].common
    assert 0 < cb < common
    first, *others = build_tables(reader, use_cache=False).tables
    assert others
    for layout, table in zip(reader.layouts[1:], others):
        assert layout.common == (cb, common)
        assert all(mine is shared
                   for mine, shared in zip(table[:common], first[:common], strict=True))


def test_memo_hit_returns_immutable_tables():
    reader = open_container(compress(assemble(_SMALL)).data)
    built = build_tables(reader)
    hit = build_tables(reader)
    assert hit is built
    assert isinstance(hit.tables, tuple)
    assert all(isinstance(table, tuple) for table in hit.tables)
    with pytest.raises(TypeError):
        hit.tables[0][0] = TableEntry(b"")
    with pytest.raises(dataclasses.FrozenInstanceError):
        hit.tables = ()


# -- tables from another container ----------------------------------------------------

def test_tables_of_a_smaller_container_raise_copy_phase_error():
    reader = open_container(_container("go"))
    small = build_tables(open_container(compress(assemble(_SMALL)).data))
    findex = max(range(reader.function_count),
                 key=lambda f: max(reader.item_planes(f).indices, default=0))
    with pytest.raises(CopyPhaseError, match="no instruction-table entry"):
        Translator(reader, small).translate_function(findex)
    with pytest.raises(CopyPhaseError, match="no instruction-table entry"):
        BlockTranslator(reader, small).block_leaders(findex)
    planes = reader.item_planes(findex)
    with pytest.raises(CopyPhaseError, match="no instruction-table entry"):
        copy_translate_range(planes, small.tables[0], 0, planes.count)


@pytest.mark.parametrize("index", [-1, 3])
def test_index_outside_the_table_is_a_copy_phase_error(index):
    # A negative index must not wrap around to a row from the end.
    table = (TableEntry(b"\x90"), TableEntry(b"\xC3"), TableEntry(b"\xF4"))
    planes = ItemPlanes(indices=[0, index], kinds=[KIND_PLAIN] * 2,
                        values=[0, 0], lengths=[1, 1], starts=[0, 1])
    message = f"no instruction-table entry for index {index}"
    with pytest.raises(CopyPhaseError, match=message):
        copy_translate_planes(planes, table)
    with pytest.raises(CopyPhaseError, match=message):
        copy_translate_range(planes, table, 0, 2)
