"""cluster_hot: all-hit GET_FUNCTION through one router and three shards.

``ssd cluster start`` with its defaults (3 shard processes, replication
2, default router config) holds the nine corpus programs at scale 0.05
as nine containers.  Every function is fetched once through the router
before timing, so the timed requests hit the shards' caches: framing,
socket, router hop and cache lookup do the work and decode does none.
A decode-only change should not move this workload.

Requests pick a container by Zipf-1.1 (hottest first in corpus order)
and a function uniformly, drawn from the seed; one closed-loop
connection.  Before timing, the request stream runs untimed for
:data:`SETTLE_S` seconds: the router's skew control rebalances the ring
under Zipf load within seconds, and reads of containers whose primary
moved are then chased to the shard holding them.  Which containers move
depends on the hot set, so a fixed rank order and a settled ring give
every run the same routing, chases included.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List

import serving
from common import Run, quiesce
from pipeline import add_layers, generate, native_sizes, offline

SCALE = 0.05
SETUPS = 3
ZIPF_SKEW = 1.1
#: requests in the stream; it cycles if a run outlasts it
STREAM_LENGTH = 20_000
#: untimed seconds of the request stream before timing
SETTLE_S = 3.0
#: requests sent both via the router and straight to a shard (traced)
HOP_REQUESTS = 400
#: decompress / JIT-load passes per set-up
OFFLINE_REPEATS = 1


def corpus_names() -> List[str]:
    from repro.workloads import PROFILES

    return [profile.name for profile in PROFILES]


def request_stream(seed: int, function_counts: List[int]):
    from repro.workloads import zipf_weights

    rng = random.Random(seed)
    ranked = list(range(len(function_counts)))
    weights = zipf_weights(len(ranked), ZIPF_SKEW)
    containers = rng.choices(ranked, weights=weights, k=STREAM_LENGTH)
    return [(cid, rng.randrange(function_counts[cid])) for cid in containers]


def _setup(ctx: Run, index: int, programs, references, layers, samples):
    """One set-up, timed whole: offline build, cluster start, PUT of
    every container, and one warming GET_FUNCTION of every function."""
    quiesce()
    with ctx.pace.sampling():
        start = time.perf_counter()
        containers = offline(ctx, programs, references,
                             samples["native_sizes"], ctx.trace, layers,
                             samples, repeats=OFFLINE_REPEATS)
        group, port, shards = serving.start_cluster(
            ctx.processes, f"cluster-{index}")
        ids = []
        for data in containers:
            container_id, put_s = serving.put(ctx.pace, port, data)
            ids.append(container_id)
            samples["put_ms"].append(put_s * 1e3)
        every = [(cid, findex) for cid, ref in enumerate(references)
                 for findex in range(len(ref.functions))]
        warm = serving.closed_loop(port, ids, references, every, None)
        serving.verify(warm, ctx.oracle)
        end = time.perf_counter()
    samples["setup_s"].append(ctx.pace.paced(start, end))
    return group, port, shards, ids, containers


def run(ctx: Run) -> dict:
    from repro.vm import native_size

    metrics = ctx.metrics
    programs = [generate(name, SCALE) for name in corpus_names()]
    references = [generate(name, SCALE) for name in corpus_names()]
    samples: Dict[str, list] = {
        "setup_s": [], "compress_s": [], "decompress_s": [],
        "jit_load_s": [], "put_ms": [],
        "native_sizes": [native_sizes(ref) for ref in references]}
    layers: Dict[str, List[float]] = {}
    for index in range(SETUPS):
        group, port, shards, ids, containers = _setup(
            ctx, index, programs, references, layers, samples)
        if index < SETUPS - 1:
            ctx.processes.stop(group)

    stream = request_stream(ctx.seed, [len(ref.functions)
                                       for ref in references])
    settle = serving.closed_loop(port, ids, references, stream, SETTLE_S)
    serving.verify(settle, ctx.oracle)
    router_before = serving.metric_sums(port)
    front_before = serving.stats(port)
    shards_before = {sid: serving.stats(sport)
                     for sid, sport in shards.items()}
    loop = serving.closed_loop(port, ids, references, stream, ctx.seconds,
                               ctx.spans if ctx.trace else None, ctx.pace)
    router_after = serving.metric_sums(port)
    front_after = serving.stats(port)
    shards_after = {sid: serving.stats(sport)
                    for sid, sport in shards.items()}
    peak_rss = group.peak_rss_mb()
    hop = _router_hop(ctx, port, shards, ids, stream) if ctx.trace \
        else None
    ctx.processes.stop(group)
    serving.verify(loop, ctx.oracle)

    metrics.add_paced("setup_s", "s", samples["setup_s"])
    for name in ("compress_s", "decompress_s", "jit_load_s"):
        metrics.add_program_sum(name, "s", samples[name])
    metrics.add("ratio_vs_native", "ratio",
                sum(len(data) for data in containers)
                / sum(native_size(ref) for ref in references))
    serving.add_client_metrics(metrics, loop, [loop.rate()], ctx.trace)
    metrics.add("peak_rss_mb", "MB", peak_rss)

    def routed_delta(name: str) -> float:
        return router_after.get(name, 0.0) - router_before.get(name, 0.0)

    routed = (front_after["requests"].get("GET_FUNCTION", 0)
              - front_before["requests"].get("GET_FUNCTION", 0))
    failovers = routed_delta("cluster_failovers_total")
    rebalances = routed_delta("cluster_rebalances_total")
    details = {"containers": len(ids), "requests": loop.answered,
               "failures": len(loop.failures), "routed": routed,
               "failovers": failovers, "rebalances": rebalances}
    if ctx.trace:
        serving.server_layers(layers, front_after,
                              list(shards_before.values()),
                              list(shards_after.values()))
        loads = [shards_after[sid]["requests"].get("GET_FUNCTION", 0)
                 - shards_before[sid]["requests"].get("GET_FUNCTION", 0)
                 for sid in shards]
        hops = routed_delta("cluster_hops_count")
        hop_sum = routed_delta("cluster_hops_sum")
        for name, value in (
                ("serve.router.hops_per_request",
                 hop_sum / hops if hops else 0.0),
                ("serve.router.failover_share",
                 failovers / routed if routed else 0.0),
                ("serve.router.rebalances", rebalances),
                ("serve.router.max_over_mean_shard_load",
                 max(loads) / statistics.mean(loads) if any(loads) else 0.0),
                ("serve.router.hop_us", hop)):
            layers.setdefault(name, []).append(value)
        layers["serve.store.put_ms"] = samples["put_ms"]
        add_layers(metrics, layers)
        details["shard_loads"] = loads
    return details


def _router_hop(ctx: Run, port: int, shards: Dict[str, int], ids,
                requests) -> float:
    """Median client wait via the router minus straight to a shard that
    holds the container, on one connection each, request by request."""
    from repro.errors import ProtocolError, RemoteError

    owners: Dict[int, int] = {}
    for sid, sport in sorted(shards.items()):
        with serving.client(sport) as conn:
            for cid, container_id in enumerate(ids):
                if cid in owners:
                    continue
                try:
                    conn.meta(container_id)
                except RemoteError:
                    continue
                owners[cid] = sport
    via: List[float] = []
    direct: List[float] = []
    sample = requests[:HOP_REQUESTS]
    for sport in sorted(set(owners.values())):
        mine = [r for r in sample if owners.get(r[0]) == sport]
        router = serving.RawConnection(port)
        shard = serving.RawConnection(sport)
        try:
            for cid, findex in mine:   # the shard may not be the primary
                shard.get_function(ids[cid], findex)
            for cid, findex in mine:
                for conn, out, name in ((router, via, "via_router"),
                                        (shard, direct, "direct")):
                    try:
                        _, _, _, t1, t2, _ = conn.get_function(ids[cid],
                                                               findex)
                    except (RemoteError, ProtocolError, OSError) as exc:
                        ctx.oracle.check(False, f"hop {name}: {exc}")
                        continue
                    ctx.spans.record(f"serve.router.hop.{name}", t1, t2)
                    out.append(t2 - t1)
        finally:
            router.close()
            shard.close()
    return (statistics.median(via) - statistics.median(direct)) * 1e6
