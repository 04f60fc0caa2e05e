"""JIT substrate: instruction tables, translation, buffers, cost model.

Phase-one dictionary decompression produces :class:`InstructionTables`;
:class:`Translator` runs Algorithm 3 per function; ``buffer`` implements
the paper's permanent + round-robin replacement policy; ``runtime``
replays call traces under RAM constraints (Tables 6, Figure 3); ``costs``
holds the single auditable cycle model.
"""

from ..errors import BufferCapacityError
from .buffer import (
    BufferStats,
    PERMANENT_SIZE_THRESHOLD,
    PureLRUBuffer,
    PureRoundRobinBuffer,
    TranslationBuffer,
)
from .costs import (
    BRISC_COSTS,
    BRISC_EXTERNAL_DICT_BYTES,
    CLOCK_HZ,
    EXEC_CYCLES_PER_BYTE,
    SSD_COSTS,
    TranslationCosts,
    mb_per_second,
    seconds,
)
from ..core.copy_phase import ExternalBranch, TranslatedFragment, copy_translate_range
from .block_translator import BlockTranslator
from .instruction_table import InstructionTables, build_table_for_layout, build_tables
from .resilience import QuarantineRecord, ResilientRuntime, run_lazy
from .runtime import (
    RuntimeConfig,
    RuntimeResult,
    SweepPoint,
    baseline_execution_cycles,
    simulate,
    sweep_buffer_sizes,
)
from .translator import TranslationResult, Translator

__all__ = [
    "BRISC_COSTS",
    "BRISC_EXTERNAL_DICT_BYTES",
    "BlockTranslator",
    "ExternalBranch",
    "TranslatedFragment",
    "copy_translate_range",
    "BufferCapacityError",
    "BufferStats",
    "CLOCK_HZ",
    "EXEC_CYCLES_PER_BYTE",
    "InstructionTables",
    "PERMANENT_SIZE_THRESHOLD",
    "PureLRUBuffer",
    "PureRoundRobinBuffer",
    "QuarantineRecord",
    "ResilientRuntime",
    "RuntimeConfig",
    "RuntimeResult",
    "SSD_COSTS",
    "SweepPoint",
    "TranslationBuffer",
    "TranslationCosts",
    "TranslationResult",
    "Translator",
    "baseline_execution_cycles",
    "build_table_for_layout",
    "build_tables",
    "mb_per_second",
    "run_lazy",
    "seconds",
    "simulate",
    "sweep_buffer_sizes",
]

