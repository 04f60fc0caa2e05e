"""Experiment throughput — decompression and translation rates.

The paper's headline speeds (7.8 MB/s dictionary-phase decompression,
12.5 MB/s copy-phase translation on a 450 MHz Pentium II, SSD >= 1.5x
BRISC's rate) are hardware-bound claims; this reproduction reports two
things instead:

* **measured** wall-clock throughput of this Python implementation (the
  absolute numbers are Python-speed, not Pentium-speed);
* **modelled** throughput from the cycle model, which reproduces the
  paper's *relationships*: copy phase faster than dictionary phase, and
  SSD's translation rate well above BRISC's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..analysis import render_table
from ..brisc import decompress as brisc_decompress
from ..core import decompress as ssd_decompress
from ..core import open_container
from ..jit import BRISC_COSTS, SSD_COSTS, Translator, build_tables, mb_per_second
from ..workloads import (
    PAPER_BRISC_TRANSLATE_MBPS,
    PAPER_SSD_COPY_PHASE_MBPS,
    PAPER_SSD_DICT_PHASE_MBPS,
)
from .common import ExperimentContext


@dataclass
class ThroughputReport:
    measured_dict_mbps: float
    measured_copy_mbps: float
    measured_full_decompress_mbps: float
    measured_brisc_mbps: float
    modelled_copy_mbps: float
    modelled_brisc_mbps: float


def measure(context: ExperimentContext, name: str = "gcc") -> ThroughputReport:
    data = context.ssd(name).data
    reader = open_container(data)

    start = time.perf_counter()
    # Skip the per-container memo: an earlier exhibit may have built these
    # tables already, and a memo hit would time a dict lookup.
    tables = build_tables(reader, use_cache=False)
    dict_seconds = time.perf_counter() - start
    table_bytes = tables.total_bytes

    translator = Translator(reader, tables)
    start = time.perf_counter()
    produced = sum(translator.translate_function(findex).size
                   for findex in range(reader.function_count))
    copy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    program = ssd_decompress(data)
    full_seconds = time.perf_counter() - start
    vm_bytes = context.x86_size(name)

    brisc_compressed = context.brisc(name)
    dictionary = context.brisc_dictionary(exclude=name)
    start = time.perf_counter()
    brisc_decompress(brisc_compressed, dictionary)
    brisc_seconds = time.perf_counter() - start

    items = sum(context.item_counts(name))
    modelled_copy_cycles = SSD_COSTS.translate_cycles(produced, items)
    modelled_brisc_cycles = BRISC_COSTS.translate_cycles(produced)
    return ThroughputReport(
        measured_dict_mbps=table_bytes / 1e6 / dict_seconds,
        measured_copy_mbps=produced / 1e6 / copy_seconds,
        measured_full_decompress_mbps=vm_bytes / 1e6 / full_seconds,
        measured_brisc_mbps=produced / 1e6 / brisc_seconds,
        modelled_copy_mbps=mb_per_second(produced, modelled_copy_cycles),
        modelled_brisc_mbps=mb_per_second(produced, modelled_brisc_cycles),
    )


def run(context: ExperimentContext, name: str = "gcc") -> str:
    report = measure(context, name)
    rows = [
        ["dictionary phase (MB/s)", PAPER_SSD_DICT_PHASE_MBPS, report.measured_dict_mbps, None],
        ["copy phase (MB/s)", PAPER_SSD_COPY_PHASE_MBPS, report.measured_copy_mbps,
         report.modelled_copy_mbps],
        ["BRISC translate (MB/s)", PAPER_BRISC_TRANSLATE_MBPS, report.measured_brisc_mbps,
         report.modelled_brisc_mbps],
        ["copy / BRISC speedup", PAPER_SSD_COPY_PHASE_MBPS / PAPER_BRISC_TRANSLATE_MBPS,
         report.measured_copy_mbps / report.measured_brisc_mbps,
         report.modelled_copy_mbps / report.modelled_brisc_mbps],
    ]
    title = (f"Throughput ({name}, scale={context.scale}) — measured column is "
             f"this Python implementation on this machine; modelled column is "
             f"the cycle model at 450 MHz; paper column is the Pentium II")
    return render_table(["quantity", "paper", "measured", "modelled"], rows,
                        title=title, precision=2) + "\n"


def main(scale: float = 0.25) -> None:  # pragma: no cover - CLI glue
    print(run(ExperimentContext(scale=scale)))


if __name__ == "__main__":  # pragma: no cover
    main()
