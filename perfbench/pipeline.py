"""pipeline_word97: offline compress, decompress and JIT load of word97@0.1.

The paper's compress -> dictionary phase -> copy phase path, run in this
process on ``benchmark_program("word97", 0.1)``.  Each timed iteration
compresses the program, decompresses the container, builds the JIT's
instruction tables and translates every function, then pages every
function in one at a time, in orders drawn from the seed, through a
fresh :class:`repro.core.SSDReader` (the lazy path a VM takes, and the
decode a code server runs on a cache miss).  Every output is compared
with a second, independent output of the program generator.  Times are
paced (see :class:`common.Pace`).
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from common import (Metrics, Paced, Run, Spans, load_spec, peak_rss_self_mb,
                    quiesce, registry_value)

PROGRAM = "word97"
SCALE = 0.1
#: warm-up input: the same code paths at a hundredth of the work
WARM_SCALE = 0.01
SETUPS = 3
MIN_ITERATIONS = 2
#: decompress and JIT-load passes per iteration
REPEATS = 2
#: page-in passes over every function per iteration
GET_PASSES = 4

#: compress() PhaseProfile phase -> per-layer metric
COMPRESS_PHASES = {
    "dictionary.base_entries": "core.dictionary.base_entries_s",
    "dictionary.ngrams": "core.dictionary.ngrams_s",
    "dictionary.segmentation": "core.dictionary.segmentation_s",
    "dictionary.rewrite": "core.dictionary.rewrite_s",
    "partition": "core.partition.plan_s",
    "layout": "core.layout.encode_s",
    "items": "core.items.encode_s",
    "serialize": "core.container.serialize_s",
}


def generate(name: str, scale: float):
    """A fresh ``benchmark_program(name, scale)``: a new generator run,
    never the memoized object, so input and oracle are independent."""
    from repro.workloads import generate_benchmark, profile

    return generate_benchmark(profile(name), scale=scale)


def compress_phases(program, layout_plan=None):
    """Compress under a PhaseProfile; returns ``(data, {metric: s})``."""
    from repro.core import compress
    from repro.perf import PhaseProfile

    profile = PhaseProfile()
    data = compress(program, profile=profile, layout_plan=layout_plan).data
    timings = profile.timings
    return data, {metric: timings.get(phase, 0.0)
                  for phase, metric in COMPRESS_PHASES.items()}


def record_phases(spans: Spans, phases: Dict[str, float], start: float,
                  parent: int) -> None:
    """PhaseProfile gives durations only: lay them end to end."""
    for metric, seconds in phases.items():
        spans.record(metric[:-2], start, start + seconds, parent)
        start += seconds


def decode_layers(data: bytes, spans: Spans, parent: int) -> Dict[str, float]:
    """Phase one and per-function decode of ``data``, split by layer.

    ``expand`` is the whole per-function decode minus item-plane decode;
    each is measured cold on its own reader so neither warms the other.
    """
    from repro.core import layouts_from_sections, open_container, parse

    parse_start = time.perf_counter()
    sections = parse(data)
    parsed = time.perf_counter()
    layouts_from_sections(sections.common_base_blob,
                          sections.common_tree_blob, sections.segments)
    done = time.perf_counter()
    spans.record("core.container.parse", parse_start, parsed, parent)
    spans.record("core.layout.decode", parsed, done, parent)

    reader = open_container(data)
    start = time.perf_counter()
    for findex in range(reader.function_count):
        reader.item_planes(findex)
    items_s = time.perf_counter() - start
    spans.record("core.items.decode", start, start + items_s, parent)

    reader = open_container(data)
    start = time.perf_counter()
    for findex in range(reader.function_count):
        reader.function_instructions(findex)
    full_s = time.perf_counter() - start
    spans.record("core.decompressor.function_instructions", start,
                 start + full_s, parent)
    return {"core.container.parse_s": parsed - parse_start,
            "core.layout.decode_s": done - parsed,
            "core.items.decode_s": items_s,
            "core.decompressor.expand_s": full_s - items_s}


def jit_load(reader):
    """``build_tables`` + translate every function of ``reader``; returns
    ``(start, built, end, table_bytes, native_sizes)``."""
    from repro import jit

    start = time.perf_counter()
    tables = jit.build_tables(reader, use_cache=False)
    built = time.perf_counter()
    translator = jit.Translator(reader, tables)
    sizes = [translator.translate_function(findex).size
             for findex in range(reader.function_count)]
    return start, built, time.perf_counter(), tables.total_bytes, sizes


def add_jit_layers(layers: Dict[str, List[float]], build_s: float,
                   translate_s: float, table_bytes: int,
                   native_bytes: int) -> None:
    for metric, value in (
            ("jit.build_tables_s", build_s),
            ("jit.translate_s", translate_s),
            ("jit.dictionary_phase_mb_s", table_bytes / 1e6 / build_s),
            ("jit.copy_phase_mb_s", native_bytes / 1e6 / translate_s)):
        layers.setdefault(metric, []).append(value)


def native_sizes(program) -> List[int]:
    """The JIT oracle: the VM's own lowering of the source program."""
    from repro.vm import lower_function

    return [lower_function(fn, optimize=False).size
            for fn in program.functions]


def timed_pass(ctx: Run, count: int, job: Callable[[int], object],
               window: Optional[Callable[[object], Tuple[float, float]]]
               = None) -> Tuple[list, List[Tuple[float, float]],
                                List[Paced]]:
    """``job(i)`` for each of ``count`` inputs, each from a quiet
    collector, under :meth:`Pace.sampling`.  Returns the results, each
    job's ``(start, end)`` and each job's paced and wall seconds, ticks
    left out.  ``window(result)``, if given, is the ``(start, end)`` of
    the part of a job that counts."""
    pace = ctx.pace
    results, windows, paced = [], [], []
    for index in range(count):
        quiesce()
        with pace.sampling():
            start = time.perf_counter()
            result = job(index)
            end = time.perf_counter()
        if window:
            start, end = window(result)
        results.append(result)
        windows.append((start, end))
        paced.append(pace.paced(start, end))
    return results, windows, paced


def offline(ctx: Run, programs, references, reference_sizes,
            tracing: bool, layers: Dict[str, List[float]],
            samples: Dict[str, List[List[Paced]]], layout_plan=None,
            parent: int = 0, repeats: int = 1) -> List[bytes]:
    """The offline path: compress, decompress and JIT-load ``programs``,
    checking the output against ``references`` and ``reference_sizes``;
    returns the containers.

    Adds one ``compress_s`` pass and ``repeats`` ``decompress_s`` and
    ``jit_load_s`` passes to ``samples``, each the paced and wall seconds
    of every program; when ``tracing``, one sample (the sum over
    programs) to each core/kernels/jit layer, with spans under
    ``parent``."""
    from repro.core import compress, decompress, open_container

    spans = ctx.spans
    traced: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        traced[name] = traced.get(name, 0.0) + value

    def compress_one(index: int):
        if tracing:
            return compress_phases(programs[index], layout_plan)
        return compress(programs[index], layout_plan=layout_plan).data, {}

    built, times, sample = timed_pass(ctx, len(programs), compress_one)
    samples.setdefault("compress_s", []).append(sample)
    containers = [data for data, _ in built]
    if tracing:
        for (_, phases), (start, end) in zip(built, times):
            # Phase timings include the ticks: take them out pro rata.
            share = ctx.pace.work(start, end) / (end - start)
            phases = {metric: value * share
                      for metric, value in phases.items()}
            spans.record("core.compress", start, end, parent)
            record_phases(spans, phases, start, parent)
            for metric, value in phases.items():
                add(metric, value)

    batches = registry_value("kernel_batch_decodes_total")
    fallbacks = registry_value("kernel_fallback_total")
    for _ in range(repeats):
        decoded, times, sample = timed_pass(
            ctx, len(containers), lambda index: decompress(containers[index]))
        samples.setdefault("decompress_s", []).append(sample)
        for program, reference, (start, end) in zip(decoded, references,
                                                    times):
            ctx.oracle.check(program == reference,
                             f"{reference.name}: decompress differs")
            if tracing:
                spans.record("core.decompress", start, end, parent)
        del decoded
    batches = registry_value("kernel_batch_decodes_total") - batches
    fallbacks = registry_value("kernel_fallback_total") - fallbacks

    for repeat in range(repeats):
        # Opening the reader is decompress work, not JIT load.
        readers = [open_container(data) for data in containers]
        loads, _, sample = timed_pass(
            ctx, len(readers), lambda index: jit_load(readers[index]),
            window=lambda load: (load[0], load[2]))
        del readers
        samples.setdefault("jit_load_s", []).append(sample)
        for (start, built, end, table_bytes, got), sizes, reference in zip(
                loads, reference_sizes, references):
            ctx.oracle.check(got == sizes,
                             f"{reference.name}: jit sizes differ")
            if tracing and not repeat:
                add("build_s", ctx.pace.work(start, built))
                add("translate_s", ctx.pace.work(built, end))
                add("table_bytes", table_bytes)
                add("native_bytes", sum(got))

    if tracing:
        for data in containers:
            quiesce()
            for metric, value in decode_layers(data, spans, parent).items():
                add(metric, value)
        layers.setdefault("kernels.batch_share", []).append(
            batches / (batches + fallbacks) if batches else 0.0)
        add_jit_layers(layers, traced.pop("build_s"),
                       traced.pop("translate_s"), traced.pop("table_bytes"),
                       traced.pop("native_bytes"))
        for metric, value in traced.items():
            layers.setdefault(metric, []).append(value)
    return containers


def _setup():
    """One set-up: generate the program, then run every code path once
    on a small one."""
    from repro.core import compress, decompress, open_container

    program = generate(PROGRAM, SCALE)
    data = compress(generate(PROGRAM, WARM_SCALE)).data
    decompress(data)
    jit_load(open_container(data))
    reader = open_container(data)
    for findex in range(reader.function_count):
        reader.function(findex)
    return program


def page_in(ctx: Run, data: bytes, reference, order: List[int]
            ) -> List[Paced]:
    """Every function of ``data`` in ``order`` through a fresh reader,
    sampled; returns each page-in's paced and wall seconds, paced by the
    ticks of the whole pass."""
    from repro.core import open_container

    pace = ctx.pace
    reader = open_container(data)
    windows = []
    quiesce()
    with pace.sampling():
        for findex in order:
            start = time.perf_counter()
            got = reader.function(findex)
            windows.append((start, time.perf_counter()))
            ctx.oracle.check(got == reference.functions[findex],
                             f"function {findex} differs")
    factor = pace.factor(windows[0][0], windows[-1][1])
    return [(work * factor, work)
            for work in (pace.work(start, end) for start, end in windows)]


def run(ctx: Run) -> dict:
    from repro.vm import native_size

    setups = []
    for _ in range(SETUPS):
        quiesce()
        setups.append(ctx.pace.timed(_setup))
    # The first program is the oracle, the last the input: two separate
    # generator runs, so a decoder bug cannot agree with itself.
    reference, program = setups[0][0], setups[-1][0]
    setup_times = [paced for _, paced in setups]
    del setups
    reference_sizes = native_sizes(reference)
    # Each page-in pass takes its own order, so the tail of a run does
    # not hang on how one order happens to warm the reader.
    orders = random.Random(ctx.seed)
    functions = range(len(reference.functions))

    # In the traced run every other iteration carries the tracing, so
    # its cost is measured against interleaved untraced iterations.
    plain: Dict[str, List[Paced]] = {"latency": [], "rate": []}
    traced: Dict[str, list] = {}
    layers: Dict[str, List[float]] = {}
    iteration = 0
    deadline = time.perf_counter() + ctx.seconds
    while iteration < MIN_ITERATIONS or time.perf_counter() < deadline:
        tracing = ctx.trace and iteration % 2 == 1
        iteration += 1
        root = ctx.spans.begin("pipeline.iteration") if tracing else 0
        [data] = offline(ctx, [program], [reference], [reference_sizes],
                         tracing, layers, traced if tracing else plain,
                         parent=root, repeats=REPEATS)
        for _ in range(GET_PASSES):
            latencies = page_in(ctx, data, reference,
                                orders.sample(functions, len(functions)))
            if tracing:
                continue
            plain["latency"] += [(p * 1e3, w * 1e3) for p, w in latencies]
            plain["rate"].append(
                (len(latencies) / sum(p for p, _ in latencies),
                 len(latencies) / sum(w for _, w in latencies)))
        if tracing:
            ctx.spans.end(root)

    metrics = ctx.metrics
    metrics.add_paced("setup_s", "s", setup_times)
    for name in ("compress_s", "decompress_s", "jit_load_s"):
        metrics.add_program_sum(name, "s", plain[name])
    metrics.add("ratio_vs_native", "ratio",
                len(data) / native_size(reference))
    metrics.add_percentile("get_function_p50_ms", "ms", plain["latency"],
                           0.50)
    metrics.add_percentile("get_function_p99_ms", "ms", plain["latency"],
                           0.99)
    metrics.add_paced("requests_per_s", "1/s", plain["rate"])
    metrics.add("peak_rss_mb", "MB", peak_rss_self_mb())
    if ctx.trace:
        add_layers(metrics, layers)
        untraced = metrics["compress_s"]["value"]
        metrics.add_median("trace.overhead_share", "ratio",
                           [sum(p for p, _ in one) / untraced - 1.0
                            for one in traced["compress_s"]])
    return {"iterations": iteration, "container_bytes": len(data),
            "instructions": program.instruction_count,
            "functions": len(program.functions)}


def add_layers(metrics: Metrics, layers: Dict[str, List[float]]) -> None:
    """Each layer's median, in the unit BENCHMARK.json gives it."""
    units = {entry["name"]: entry["unit"]
             for entry in load_spec()["per_layer"]}
    for metric, values in layers.items():
        metrics.add_median(metric, units[metric], values)
