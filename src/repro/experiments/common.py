"""Shared experiment plumbing: artifact construction with caching.

Experiments share expensive artifacts — synthesized benchmark programs,
SSD containers, BRISC dictionaries, interpreter profiles — so this module
memoizes them per (name, scale) inside one :class:`ExperimentContext`.

``scale`` scales every benchmark's instruction-count target (1.0 = the
paper's sizes; the default 0.25 keeps a full experiment run to a few
minutes).  EXPERIMENTS.md records which scale produced the published
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..brisc import BriscCompressed, PatternDictionary
from ..brisc import compress as brisc_compress
from ..brisc import train as brisc_train
from ..core import CompressedProgram, SSDReader, compress, open_container
from ..isa import Program
from ..vm import ExecutionResult, function_native_sizes, native_size, run_program
from ..workloads import PROFILES, benchmark_program

ALL_BENCHMARKS = [p.name for p in PROFILES]


@dataclass
class ExperimentContext:
    """Caches every expensive artifact for one experiment session."""

    scale: float = 0.25
    train_scale: float = 0.1
    fuel: int = 10_000_000
    _programs: Dict[str, Program] = field(default_factory=dict)
    _x86: Dict[str, int] = field(default_factory=dict)
    _compressed: Dict[str, CompressedProgram] = field(default_factory=dict)
    _readers: Dict[str, SSDReader] = field(default_factory=dict)
    _brisc_dicts: Dict[Optional[str], PatternDictionary] = field(default_factory=dict)
    _brisc: Dict[str, BriscCompressed] = field(default_factory=dict)
    _runs: Dict[str, ExecutionResult] = field(default_factory=dict)
    _jit_sizes: Dict[str, List[int]] = field(default_factory=dict)

    def program(self, name: str) -> Program:
        if name not in self._programs:
            self._programs[name] = benchmark_program(name, scale=self.scale)
        return self._programs[name]

    def x86_size(self, name: str) -> int:
        if name not in self._x86:
            self._x86[name] = native_size(self.program(name))
        return self._x86[name]

    def ssd(self, name: str) -> CompressedProgram:
        if name not in self._compressed:
            self._compressed[name] = compress(self.program(name))
        return self._compressed[name]

    def reader(self, name: str) -> SSDReader:
        if name not in self._readers:
            self._readers[name] = open_container(self.ssd(name).data)
        return self._readers[name]

    def brisc_dictionary(self, exclude: Optional[str] = None) -> PatternDictionary:
        """Leave-one-out trained external dictionary."""
        if exclude not in self._brisc_dicts:
            corpus = [benchmark_program(name, scale=self.train_scale)
                      for name in ALL_BENCHMARKS if name != exclude]
            self._brisc_dicts[exclude] = brisc_train(corpus)
        return self._brisc_dicts[exclude]

    def brisc(self, name: str) -> BriscCompressed:
        if name not in self._brisc:
            self._brisc[name] = brisc_compress(self.program(name),
                                               self.brisc_dictionary(exclude=name))
        return self._brisc[name]

    def run(self, name: str) -> ExecutionResult:
        if name not in self._runs:
            self._runs[name] = run_program(self.program(name), fuel=self.fuel)
        return self._runs[name]

    def jit_function_sizes(self, name: str) -> List[int]:
        """Per-function JIT-produced native sizes (unoptimized lowering)."""
        if name not in self._jit_sizes:
            self._jit_sizes[name] = function_native_sizes(self.program(name),
                                                          optimize=False)
        return self._jit_sizes[name]

    def ssd_dictionary_bytes(self, name: str) -> int:
        """Compressed SSD dictionary size (the buffer experiments' charge)."""
        sections = self.ssd(name).section_sizes
        return (sections["common_bases"] + sections["common_tree"]
                + sections["segment_bases"] + sections["segment_trees"])

    def item_counts(self, name: str) -> List[int]:
        """SSD items per function (for copy-phase cost accounting)."""
        reader = self.reader(name)
        return [reader.item_planes(findex).count
                for findex in range(reader.function_count)]
