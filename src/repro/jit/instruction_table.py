"""Phase one's product: the instruction table (section 2.2.4).

Dictionary decompression converts each dictionary entry from VM form to
*native* instructions, producing a table that maps every 16-bit index to a
tagged native byte sequence.  The tag carries the sequence length and, for
entries ending in a control transfer, where the target hole sits — exactly
what Algorithm 3 needs so that phase two is a block copy plus a patch.

The table is built in one pass over a :class:`SegmentLayout`'s paths, in
index order: each base's row (``layout.addr_rows``) is lowered once,
straight from its integer columns through ``repro.vm.native.LOWERINGS``,
into a one-entry table row (its native bytes and hole tag), and a
sequence's row is the join of its bases' bytes tagged by its last base.
No :class:`~repro.isa.Instruction` is built and the layout's decode table
is not read.  A segment's table is a tuple indexed by dictionary index.
The common region (indices ``[0, cb+cs)``) is the same in every segment,
so it is built once per container and its rows are shared by every
segment's table.

Conversion is per-instruction (the paper: "translation of individual
instructions, rather than optimizing compilation"), i.e. the *unoptimized*
native lowering — which is why JIT-translated code is slower than the
peephole-optimized baseline (Table 5's code-quality overhead).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Sequence, Tuple

from ..core.copy_phase import TableEntry
from ..core.decompressor import SSDReader
from ..core.layout import SegmentLayout
from ..errors import CorruptContainer
from ..obs import REGISTRY, TRACER
from ..vm.native import LOWERINGS

_BUILD_TABLES = REGISTRY.counter(
    "jit_build_tables_total",
    "Phase-one instruction-table builds, by memo outcome (cache=hit|miss).")

#: one segment's instruction table, indexed by dictionary index
Table = Tuple[TableEntry, ...]


def build_table_for_layout(layout: SegmentLayout,
                           shared: Sequence[TableEntry] = ()) -> Table:
    """Build one segment's instruction table from its layout.

    ``shared`` is the table of another segment of the same container;
    when given, this table reuses its common-region rows instead of
    building them again.

    Dictionary entries come from untrusted container bytes, so lowering
    failures (a decoded entry whose fields no native encoding can hold)
    surface as :class:`~repro.errors.CorruptContainer`, not as internal
    exceptions.
    """
    first_addr, first_index = layout.common if shared else (0, 0)
    addr_rows = layout.addr_rows
    rows = list(shared[:first_addr])  # by addressing id: the base's own row
    table = list(shared[:first_index])
    append = table.append
    for path in islice(layout.paths, first_index, None):
        if len(path) == 1:
            # A base, in addressing order: lower its row's columns.
            addr = path[0]
            row = addr_rows[addr]
            emit, _, is_branch, is_call = lowering = LOWERINGS[row[0]]
            try:
                data = emit(row[3], row[4], row[5], row[1], row[2])
            except (ValueError, OverflowError, LookupError) as exc:
                raise CorruptContainer(
                    f"dictionary entry {addr} fails native lowering: {exc}"
                ) from exc
            # A hole when the op takes a target and the row stores none:
            # its item then carries the target.
            if (is_branch or is_call) and len(row) == 6:
                hole_size = lowering.hole_size(row[2])
                entry = TableEntry(data, len(data) - hole_size, hole_size, is_call)
            else:
                entry = TableEntry(data)
            rows.append(entry)
            append(entry)
            continue
        last = rows[path[-1]]
        # A hole sits at the end of its base's bytes, so it keeps its
        # distance from the end of the joined sequence.
        data = b"".join([rows[addr].data for addr in path])
        hole_size = last.hole_size
        append(TableEntry(data, len(data) - hole_size, hole_size, last.is_call)
               if hole_size else TableEntry(data))
    return tuple(table)


@dataclass(frozen=True)
class InstructionTables:
    """Instruction tables for every segment of a compressed program."""

    tables: Tuple[Table, ...]

    def for_function(self, reader: SSDReader, findex: int) -> Table:
        return self.tables[reader.segment_of_function[findex]]

    @property
    def total_bytes(self) -> int:
        """Native bytes held by all tables (the dictionary's RAM cost)."""
        return sum(entry.size for table in self.tables for entry in table)


#: LRU memo of instruction tables keyed by container hash.  The paper notes
#: re-translation after buffer eviction must be cheap; memoizing phase one
#: makes a re-translation skip dictionary decompression entirely.  The
#: lock makes the memo safe for multi-threaded callers (repro.serve runs
#: decodes on worker threads); table *construction* happens outside it.
_TABLE_CACHE: "OrderedDict[str, InstructionTables]" = OrderedDict()
_TABLE_CACHE_LIMIT = 8
_TABLE_CACHE_LOCK = threading.Lock()


def build_tables(reader: SSDReader, use_cache: bool = True) -> InstructionTables:
    """Run dictionary decompression (phase one) for all segments.

    When ``use_cache`` is true and ``reader.container_hash`` is set, the
    result is memoized per container hash: translating the same container
    again (e.g. after the JIT runtime evicted its buffers) returns the
    cached tables without redoing phase one.  Pass ``use_cache=False`` to
    force a rebuild (benchmarks measuring phase one do this).
    """
    key = reader.container_hash if use_cache else None
    if key is not None:
        with _TABLE_CACHE_LOCK:
            cached = _TABLE_CACHE.get(key)
            if cached is not None:
                _TABLE_CACHE.move_to_end(key)
                _BUILD_TABLES.inc(cache="hit")
                return cached
    _BUILD_TABLES.inc(cache="miss")
    with TRACER.span("jit.build_tables", segments=len(reader.layouts)):
        built = []
        for layout in reader.layouts:
            built.append(build_table_for_layout(layout, built[0] if built else ()))
        tables = InstructionTables(tables=tuple(built))
    if key is not None:
        with _TABLE_CACHE_LOCK:
            _TABLE_CACHE[key] = tables
            while len(_TABLE_CACHE) > _TABLE_CACHE_LIMIT:
                _TABLE_CACHE.popitem(last=False)
    return tables
