"""Benchmark: the SSD code server's request throughput and latency.

Guards this repo's serving work rather than a paper exhibit: a local
``ssd serve`` instance is driven by concurrent clients and must sustain
a sane request rate with the shared LRU absorbing repeat decodes.
Requests/second and p50/p99 latency are appended to
``BENCH_serve.json`` for inspection.
"""

import json
import threading
import time
from pathlib import Path

from repro.core import compress
from repro.serve import (
    ClusterConfig,
    LocalCluster,
    RemoteProgram,
    RouterConfig,
    ServeClient,
    serve_in_thread,
)
from repro.serve.metrics import percentile
from repro.vm import run_program
from repro.workloads import benchmark_program, clear_cache

HERE = Path(__file__).resolve().parent
RESULTS_PATH = HERE / "BENCH_serve.json"

CLIENTS = 8
REQUESTS_PER_CLIENT = 150


def _record(entry: dict) -> None:
    existing = (json.loads(RESULTS_PATH.read_text())
                if RESULTS_PATH.exists() else [])
    existing.append(entry)
    RESULTS_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def test_get_function_throughput(benchmark):
    """Hot-path GET_FUNCTION: 8 clients hammering one cached container."""
    program = benchmark_program("compress", scale=0.3)
    container = compress(program).data
    function_count = len(program.functions)

    def measure():
        latencies = []
        lock = threading.Lock()
        with serve_in_thread() as handle:
            with ServeClient(*handle.address) as warm:
                container_id, _, _ = warm.put(container)

            barrier = threading.Barrier(CLIENTS)
            errors = []

            def worker(tid: int) -> None:
                try:
                    with ServeClient(*handle.address) as client:
                        barrier.wait(timeout=10)
                        local = []
                        for i in range(REQUESTS_PER_CLIENT):
                            findex = (tid + i) % function_count
                            start = time.perf_counter()
                            client.function(container_id, findex)
                            local.append(time.perf_counter() - start)
                        with lock:
                            latencies.extend(local)
                except Exception as exc:  # noqa: BLE001
                    errors.append(f"{type(exc).__name__}: {exc}")

            threads = [threading.Thread(target=worker, args=(tid,))
                       for tid in range(CLIENTS)]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            elapsed = time.perf_counter() - started
            assert not errors, errors

            with ServeClient(*handle.address) as probe:
                stats = probe.stats()
        return latencies, elapsed, stats

    latencies, elapsed, stats = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    total = CLIENTS * REQUESTS_PER_CLIENT
    assert len(latencies) == total
    requests_per_s = total / elapsed
    p50_ms = percentile(latencies, 0.50) * 1e3
    p99_ms = percentile(latencies, 0.99) * 1e3
    _record({
        "benchmark": "serve_get_function",
        "clients": CLIENTS,
        "requests": total,
        "requests_per_s": round(requests_per_s, 1),
        "p50_ms": round(p50_ms, 3),
        "p99_ms": round(p99_ms, 3),
        "cache_hit_rate": stats["cache"]["hit_rate"],
        "decodes_total": stats["decodes_total"],
    })
    # The LRU must absorb repeats: each function decoded at most once.
    assert stats["decodes_total"] <= function_count
    assert stats["cache"]["hit_rate"] > 0.5
    assert requests_per_s > 50
    assert p50_ms <= p99_ms
    clear_cache()


def test_cache_miss_decode_latency(benchmark):
    """Cold-path decode cost: every function requested exactly once, so
    each request is a cache miss and the server-side ``serve.decode``
    span (the ``serve_decode_seconds`` family + STATS ``decode_latency``
    reservoir) measures pure decompression latency, excluding wire and
    cache-hit time."""
    program = benchmark_program("compress", scale=0.3)
    container = compress(program).data
    function_count = len(program.functions)

    def measure():
        with serve_in_thread() as handle:
            with ServeClient(*handle.address) as client:
                container_id, _, _ = client.put(container)
                for findex in range(function_count):
                    client.function(container_id, findex)
                stats = client.stats()
        return stats

    stats = benchmark.pedantic(measure, rounds=1, iterations=1)
    decode = stats["decode_latency"]
    _record({
        "benchmark": "serve_cache_miss_decode",
        "functions": function_count,
        "decodes": decode["count"],
        "decode_p50_ms": round(decode["p50_ms"], 3),
        "decode_p99_ms": round(decode["p99_ms"], 3),
        "decode_max_ms": round(decode["max_ms"], 3),
    })
    # Every request was a miss: one timed decode per function.
    assert decode["count"] == function_count
    assert stats["decodes_total"] == function_count
    assert 0 < decode["p50_ms"] <= decode["p99_ms"] <= decode["max_ms"]
    clear_cache()


def _drive_cluster(cluster, container_id, function_count, clients,
                   requests_per_client):
    """Hammer the router from ``clients`` threads; return latencies."""
    latencies = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients)
    errors = []

    def worker(tid: int) -> None:
        try:
            with cluster.client(retries=4) as client:
                barrier.wait(timeout=10)
                local = []
                for i in range(requests_per_client):
                    findex = (tid + i) % function_count
                    start = time.perf_counter()
                    client.function(container_id, findex)
                    local.append(time.perf_counter() - start)
                with lock:
                    latencies.extend(local)
        except Exception as exc:  # noqa: BLE001
            errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(tid,))
               for tid in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - started
    assert not errors, errors
    return latencies, elapsed


def test_cluster_throughput_with_and_without_dead_shard(benchmark):
    """Cluster GET_FUNCTION through the router: measure req/s and p99 on
    a healthy 3-shard/replication-2 cluster, then SIGKILL one shard and
    measure again under identical load.  Records both so the degraded
    ratio is gated by ``check_regression.py --serve`` — graceful
    degradation, not collapse, is the contract."""
    program = benchmark_program("compress", scale=0.3)
    container = compress(program).data
    function_count = len(program.functions)

    def measure():
        config = ClusterConfig(
            shards=3, replication=2,
            router=RouterConfig(probe_interval=0.1, probe_timeout=0.5,
                                breaker_cooldown=0.25, seed=0))
        with LocalCluster(config) as cluster:
            with cluster.client() as warm:
                container_id, _, _ = warm.put(container)
            healthy = _drive_cluster(cluster, container_id, function_count,
                                     CLIENTS, REQUESTS_PER_CLIENT // 2)
            cluster.kill_shard(cluster.shard_ids[0])
            degraded = _drive_cluster(cluster, container_id, function_count,
                                      CLIENTS, REQUESTS_PER_CLIENT // 2)
            failovers = \
                cluster.routers[0].metrics.snapshot()["failovers_total"]
        return healthy, degraded, failovers

    (healthy, degraded, failovers) = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    total = CLIENTS * (REQUESTS_PER_CLIENT // 2)
    entry = {"benchmark": "serve_cluster_failover",
             "clients": CLIENTS, "requests_per_phase": total,
             "failovers": failovers}
    for phase, (latencies, elapsed) in (("healthy", healthy),
                                        ("one_shard_dead", degraded)):
        assert len(latencies) == total
        entry[f"{phase}_requests_per_s"] = round(total / elapsed, 1)
        entry[f"{phase}_p50_ms"] = round(
            percentile(latencies, 0.50) * 1e3, 3)
        entry[f"{phase}_p99_ms"] = round(
            percentile(latencies, 0.99) * 1e3, 3)
    _record(entry)
    # Above quorum, every request succeeded (asserted in _drive_cluster);
    # the dead shard's keys were served by their surviving replica.
    assert entry["one_shard_dead_requests_per_s"] > 0
    clear_cache()


def test_remote_run_end_to_end(benchmark):
    """Cold-path: serve a container and run it remotely, timing the
    full page-in (meta + every reached function over the wire)."""
    program = benchmark_program("compress", scale=0.3)
    container = compress(program).data
    local = run_program(program, fuel=3_000_000)

    def measure():
        with serve_in_thread() as handle:
            with ServeClient(*handle.address) as client:
                started = time.perf_counter()
                remote = RemoteProgram(client, container)
                result = run_program(remote, fuel=3_000_000)
                elapsed = time.perf_counter() - started
                return result.output, remote.decompressed_count, elapsed

    output, fetched, elapsed = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    assert output == local.output
    _record({
        "benchmark": "serve_remote_run",
        "functions_fetched": fetched,
        "functions_total": len(program.functions),
        "wall_s": round(elapsed, 4),
    })
    assert 0 < fetched <= len(program.functions)
    clear_cache()
