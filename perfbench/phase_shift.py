"""serve_phase_shift: one ``ssd serve`` replaying a phased Zipf call trace.

The docs/LAYOUT.md configuration: a plan-ordered word97@0.1 container,
``--prefetch-depth 8`` and ``--cache-admission``, under a cache budget of
the container plus a third of its decoded working set, so evictions
never stop.  The layout plan is trained on a phased trace drawn from a
different seed than the replayed one, as a deployed plan would be.

One client replays a whole trace, in order, against a fresh server,
at least :data:`MIN_CYCLES` times; replay ``c`` of a run replays the
trace of seed ``seed * CYCLE_SEEDS + c`` (whole replays, never a time
slice, so a trace's decode, eviction and prefetch counts barely move
from run to run), so a run's figures average over several hot sets.
This is the only workload where miss-path decode, eviction, admission
and prefetch work.
"""

from __future__ import annotations

import time
from typing import Dict, List

import serving
from common import Run, quiesce
from pipeline import add_layers, generate, native_sizes, offline

PROGRAM = "word97"
SCALE = 0.1
CALLS_PER_PHASE = 300
PHASES = 3
PREFETCH_DEPTH = 8
#: successor edges shipped in the container's hint section
HINT_EDGES = 8192
MIN_CYCLES = 3
#: decompress / JIT-load passes per set-up
OFFLINE_REPEATS = 1
#: trace seeds per run seed: replay ``c`` uses ``seed * CYCLE_SEEDS + c``
CYCLE_SEEDS = 1000
#: the plan's training trace is drawn from the replay seed plus this
TRAINING_SEED_OFFSET = 1_000_003


def phased_trace(function_count: int, seed: int):
    from repro.workloads import TraceSpec, generate_trace

    return generate_trace(TraceSpec(function_count=function_count,
                                    calls_per_phase=CALLS_PER_PHASE,
                                    phases=PHASES, seed=seed))


def body_bytes(program) -> int:
    """Every decoded function body, as the server's cache charges them
    (OK_FUNCTION body bytes)."""
    from repro.serve import protocol

    return sum(len(protocol.build_ok_function(findex, fn.name, fn.insns))
               for findex, fn in enumerate(program.functions))


def _setup(ctx: Run, cycle: int, trace_seed: int, program, reference,
           sizes, bodies: int, layers, samples):
    """Plan, build, start the server, PUT, warm the server process."""
    from repro.profile import AccessProfile, build_plan

    quiesce()
    with ctx.pace.sampling():
        start = time.perf_counter()
        training = phased_trace(len(program.functions),
                                trace_seed + TRAINING_SEED_OFFSET)
        plan = build_plan(AccessProfile.from_trace(
            training, phase_boundaries=training.phase_boundaries),
            len(program.functions), max_edges=HINT_EDGES)
        [data] = offline(ctx, [program], [reference], [sizes], ctx.trace,
                         layers, samples, layout_plan=plan,
                         repeats=OFFLINE_REPEATS)
        # The container plus a third of its decoded working set.
        budget = len(data) + bodies // 3
        samples["budget"].append(budget)
        group, port = serving.start_server(
            ctx.processes, f"serve-{cycle}", "--cache-bytes", str(budget),
            "--prefetch-depth", str(PREFETCH_DEPTH), "--cache-admission")
        container_id, put_s = serving.put(ctx.pace, port, data)
        samples["put_ms"].append(put_s * 1e3)
        # Warm the server process and the client path without touching
        # the cache: the replay itself must start cold.
        with serving.client(port) as conn:
            conn.meta(container_id)
            conn.stats()
        end = time.perf_counter()
    samples["setup_s"].append(ctx.pace.paced(start, end))
    return group, port, container_id, data


def run(ctx: Run) -> dict:
    from repro.vm import native_size

    metrics = ctx.metrics
    program, reference = generate(PROGRAM, SCALE), generate(PROGRAM, SCALE)
    sizes = native_sizes(reference)
    bodies = body_bytes(reference)
    samples: Dict[str, list] = {
        "setup_s": [], "compress_s": [], "decompress_s": [],
        "jit_load_s": [], "put_ms": [], "rate": [], "rss": [], "budget": []}
    layers: Dict[str, List[float]] = {}
    latencies = serving.LoopResult()
    replayed = 0.0
    counts = []
    cycle = 0
    calls = []
    while cycle < MIN_CYCLES or replayed < ctx.seconds:
        trace_seed = ctx.seed * CYCLE_SEEDS + cycle
        replay = [(0, findex) for findex in phased_trace(
            len(reference.functions), trace_seed)]
        calls.append(len(replay))
        group, port, container_id, data = _setup(
            ctx, cycle, trace_seed, program, reference, sizes, bodies,
            layers, samples)
        cycle += 1
        before = serving.stats(port)
        loop = serving.closed_loop(port, [container_id], [reference],
                                   replay, None,
                                   ctx.spans if ctx.trace else None,
                                   ctx.pace)
        after = serving.stats(port)
        samples["rss"].append(group.peak_rss_mb())
        ctx.processes.stop(group)
        replayed += loop.elapsed
        samples["rate"].append(loop.rate())
        serving.verify(loop, ctx.oracle)
        latencies.merge(loop)
        counts.append({"decodes": after["decodes_total"]
                       - before["decodes_total"],
                       "evictions": after["cache"]["evictions"]
                       - before["cache"]["evictions"],
                       "prefetch_issued": after["prefetch"]["issued"]
                       - before["prefetch"]["issued"],
                       "prefetch_hits": after["prefetch"]["hits"]
                       - before["prefetch"]["hits"]})
        if ctx.trace:
            serving.server_layers(layers, after, [before], [after])

    metrics.add_paced("setup_s", "s", samples["setup_s"])
    for name in ("compress_s", "decompress_s", "jit_load_s"):
        metrics.add_program_sum(name, "s", samples[name])
    metrics.add("ratio_vs_native", "ratio", len(data) / native_size(reference))
    serving.add_client_metrics(metrics, latencies, [latencies.rate()],
                               ctx.trace)
    metrics.add_median("peak_rss_mb", "MB", samples["rss"])
    if ctx.trace:
        layers["serve.store.put_ms"] = samples["put_ms"]
        add_layers(metrics, layers)
    return {"cycles": cycle, "trace_calls": calls,
            "cache_budget": samples["budget"],
            "per_replay": counts,
            "replay_s": [n / wall for n, (_, wall) in zip(calls,
                                                          samples["rate"])]}
