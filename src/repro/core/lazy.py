"""Lazy, incrementally-decompressed program execution.

The paper defines a compressed program as *interpretable* when it "can be
decompressed at basic-block granularity with reasonable efficiency",
enabling interpreters to decompress incrementally during execution
(section 1).  This module makes that property executable: a
:class:`LazyProgram` looks like a normal :class:`~repro.isa.Program` but
materializes each function from its source only when control first
reaches it.  Run it directly in the interpreter:

    reader = open_container(compressed)
    lazy = LazyProgram(reader)
    result = run_program(lazy)
    lazy.decompressed_count   # how much of the program was ever touched

Code never executed is never decompressed — the measurable form of the
paper's incremental-decompression claim (and the start of its
application-startup story).

This is the one paging core.  The source is anything reader-shaped
(:class:`FunctionSource`): a local ``SSDReader``, or the served container
behind :class:`repro.serve.client.RemoteProgram`, which is a
``LazyProgram`` whose functions travel over the wire.  Predictive
prefetch lives where the access stream is seen, in the code server.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, Iterator, Protocol, Set

from ..isa import Function
from .decompressor import open_container


class FunctionSource(Protocol):
    """What a :class:`LazyProgram` pages from: a program's name, entry
    and function count, and a decode of one function by index."""

    @property
    def program_name(self) -> str: ...

    @property
    def entry(self) -> int: ...

    @property
    def function_count(self) -> int: ...

    def function(self, findex: int) -> Function: ...


class _FunctionList:
    """Sequence facade that fetches each function on first access.

    ``len`` and iteration behave like a list of Functions.  The memo is
    per list, so each program view tracks which indices *it* touched;
    writes go through a lock, and a hit is one dict lookup.  Two threads
    missing on one index may both fetch, but both get the first result.
    """

    def __init__(self, count: int,
                 fetch: Callable[[int], Function]) -> None:
        self._count = count
        self._fetch = fetch
        self._memo: Dict[int, Function] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, findex: int) -> Function:
        # The interpreter indexes on every call: a hit is one lookup,
        # and the checks below run only on a miss.
        function = self._memo.get(findex)
        if function is not None:
            return function
        if isinstance(findex, slice):
            raise TypeError("lazy function lists do not support slicing")
        if findex < 0:
            findex += self._count
        if not 0 <= findex < self._count:
            raise IndexError(f"function index {findex} out of range")
        function = self._memo.get(findex)
        if function is None:
            fetched = self._fetch(findex)
            with self._lock:
                function = self._memo.setdefault(findex, fetched)
        return function

    def __iter__(self) -> Iterator[Function]:
        for findex in range(self._count):
            yield self[findex]

    @property
    def materialized(self) -> Set[int]:
        with self._lock:
            return set(self._memo)


class LazyProgram:
    """A Program-shaped view of a compressed program.

    Duck-types the pieces the interpreter (and most analyses) use:
    ``name``, ``entry``, ``functions`` (indexable, measurable).  Functions
    are fetched from ``reader.function`` on first access.  ``reader`` is
    any :class:`FunctionSource`: an ``SSDReader`` or a remote source.
    """

    def __init__(self, reader: FunctionSource) -> None:
        self._reader = reader
        self.name = reader.program_name
        self.entry = reader.entry
        self.functions = _FunctionList(reader.function_count,
                                       reader.function)

    @property
    def reader(self) -> FunctionSource:
        return self._reader

    @property
    def decompressed_count(self) -> int:
        """Functions materialized so far."""
        return len(self.functions.materialized)

    @property
    def decompressed_functions(self) -> Set[int]:
        return self.functions.materialized

    @property
    def decompressed_fraction(self) -> float:
        total = len(self.functions)
        return self.decompressed_count / total if total else 0.0

    def prefetch(self, indices: Iterable[int]) -> None:
        """Eagerly materialize selected functions (startup sets, tests)."""
        for findex in indices:
            self.functions[findex]  # noqa: B018 - materializing side effect


def lazy_program(container_bytes: bytes) -> LazyProgram:
    """One call: container bytes -> lazily-decompressed program."""
    return LazyProgram(open_container(container_bytes))
