"""Execution-time overhead decomposition (the time half of Table 5).

The paper ran each benchmark twice — optimized x86 vs incrementally
JIT-translated SSD — and used execution-time profiling to split the
overhead into a decompression/JIT component and a code-quality component.
We reproduce the decomposition with modelled cycles:

* the interpreter supplies per-instruction dynamic execution counts;
* the optimized native backend (peephole fusions) prices the baseline;
* the per-instruction JIT lowering prices SSD-translated code — slower
  only because it cannot fuse across VM instructions (section 2.2.4:
  individual-instruction conversion);
* dictionary decompression and per-function copy-phase translation are
  priced by ``repro.jit.costs``, charged once per function actually
  executed (the VM translates lazily, one function at a time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core import compress, open_container
from ..isa import Program
from ..jit import SSD_COSTS, Translator, build_tables
from ..jit.costs import TranslationCosts
from ..vm import ExecutionResult, lower_function, run_program


#: modelled session length the one-time decompression costs are amortized
#: over.  The paper's runs (spec95 reference inputs, the Word97 interactive
#: suite) execute for minutes; our synthetic drivers run for fractions of a
#: second of modelled time, so without normalization the one-time dictionary
#: decompression would swamp the percentages.  Execution cycles are scaled
#: to this session; translation and dictionary costs are charged once
#: (JIT-translate-once, as in Table 5).
DEFAULT_SESSION_SECONDS = 60.0


@dataclass(frozen=True)
class OverheadReport:
    """One benchmark's Table 5 time columns (modelled cycles)."""

    name: str
    native_cycles: float
    jit_exec_cycles: float
    translation_cycles: float
    dictionary_cycles: float
    functions_executed: int

    @property
    def decompression_cycles(self) -> float:
        return self.translation_cycles + self.dictionary_cycles

    @property
    def total_overhead_pct(self) -> float:
        """Table 5's "SSD Execution Time Overhead" column."""
        return 100.0 * ((self.jit_exec_cycles + self.decompression_cycles)
                        - self.native_cycles) / self.native_cycles

    @property
    def jit_overhead_pct(self) -> float:
        """Table 5's "JIT Translation and Decompression" column."""
        return 100.0 * self.decompression_cycles / self.native_cycles

    @property
    def quality_overhead_pct(self) -> float:
        """Table 5's "Overhead Due to Reduced Code Quality" column."""
        return 100.0 * (self.jit_exec_cycles - self.native_cycles) / self.native_cycles


def measure_overhead(program: Program,
                     fuel: int = 8_000_000,
                     costs: TranslationCosts = SSD_COSTS,
                     result: Optional[ExecutionResult] = None,
                     compressed_data: Optional[bytes] = None,
                     session_seconds: float = DEFAULT_SESSION_SECONDS,
                     hybrid: bool = False,
                     ) -> OverheadReport:
    """Run the workload and decompose SSD's execution-time overhead.

    ``result`` and ``compressed_data`` can be supplied to reuse work the
    caller already did (profiling and compression are the slow parts).
    The profiled run's execution cycles are scaled to ``session_seconds``
    of modelled time (450 MHz), while the one-time decompression and
    translation costs are charged once — the paper's JIT-once setting.

    ``hybrid=True`` models section 2.2.4's hybrid approach: each executed
    function is re-optimized after copy-phase translation, recovering
    baseline code quality at an extra per-byte translation cost.
    """
    if result is None:
        result = run_program(program, fuel=fuel)
    if not result.profile:
        raise ValueError(f"{program.name}: empty execution profile")
    if session_seconds <= 0:
        raise ValueError(f"session_seconds must be positive, got {session_seconds}")

    by_function: Dict[int, List[Tuple[int, int]]] = {}
    for (findex, iindex), count in result.profile.items():
        by_function.setdefault(findex, []).append((iindex, count))
    executed_functions = sorted(by_function)
    native_cycles = 0.0
    jit_cycles = 0.0
    for findex in executed_functions:
        fn = program.functions[findex]
        optimized = lower_function(fn, optimize=True).cycles_per_insn
        plain = lower_function(fn, optimize=False).cycles_per_insn
        for iindex, count in by_function[findex]:
            native_cycles += count * optimized[iindex]
            jit_cycles += count * plain[iindex]

    data = compressed_data if compressed_data is not None else compress(program).data
    reader = open_container(data)
    tables = build_tables(reader)
    translator = Translator(reader, tables)
    translation_cycles = 0.0
    for findex in executed_functions:
        items = reader.item_planes(findex).count
        produced = translator.translate_function(findex).size
        translation_cycles += costs.translate_cycles(produced, items)
        if hybrid:
            from ..jit.costs import HYBRID_OPT_CYCLES_PER_BYTE

            translation_cycles += produced * HYBRID_OPT_CYCLES_PER_BYTE
    dictionary_cycles = costs.dictionary_cycles(tables.total_bytes)
    if hybrid:
        # Re-optimized code runs at baseline quality.
        jit_cycles = native_cycles

    # Session normalization: the profiled run is a representative sample
    # of a session_seconds-long execution.
    from ..jit.costs import CLOCK_HZ

    session_cycles = session_seconds * CLOCK_HZ
    scale = session_cycles / native_cycles
    return OverheadReport(
        name=program.name,
        native_cycles=native_cycles * scale,
        jit_exec_cycles=jit_cycles * scale,
        translation_cycles=translation_cycles,
        dictionary_cycles=dictionary_cycles,
        functions_executed=len(executed_functions),
    )
