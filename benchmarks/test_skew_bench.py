"""Benchmark: cluster behaviour under skewed (Zipf) request traffic.

Drives the same 3-shard cluster through two phases of identical volume
— container picks drawn uniformly, then from a Zipf-1.1 popularity
curve — with the router's response cache enabled.  The claim under
test: popularity skew is absorbed at the router (repeat GETs of hot
content are cache hits that never reach a shard), so Zipf tail latency
stays comparable to uniform and no shard ends up with a runaway share
of the backend load.

Requests/second, p50/p99 per phase, and the per-shard served-request
split are appended to ``BENCH_serve.json``;
``check_regression.py --skew`` gates the Zipf/uniform p99 ratio and
the max/mean shard-load ratio.
"""

import json
import random
import threading
import time
from pathlib import Path

from repro.core import compress
from repro.isa import assemble
from repro.serve import ClusterConfig, LocalCluster, RouterConfig
from repro.serve.metrics import percentile
from repro.workloads import zipf_weights

HERE = Path(__file__).resolve().parent
RESULTS_PATH = HERE / "BENCH_serve.json"

CLIENTS = 6
REQUESTS_PER_CLIENT = 60
CONTAINERS = 16
ZIPF_EXPONENT = 1.1

ASM_TEMPLATE = """
func main
    li r2, {value}
    call helper
    trap 1
    ret
end
func helper
    add r1, r2, r2
    ret
end
"""


def _record(entry: dict) -> None:
    existing = (json.loads(RESULTS_PATH.read_text())
                if RESULTS_PATH.exists() else [])
    existing.append(entry)
    RESULTS_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def _drive(cluster, container_ids, function_count, pick_container):
    """Hammer the router from CLIENTS threads; each request targets
    ``pick_container(rng)`` so the two phases differ only in the
    popularity curve."""
    latencies = []
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS)
    errors = []

    def worker(tid: int) -> None:
        rng = random.Random(1000 + tid)
        try:
            with cluster.client(retries=4) as client:
                barrier.wait(timeout=10)
                local = []
                for _ in range(REQUESTS_PER_CLIENT):
                    cid = container_ids[pick_container(rng)]
                    findex = rng.randrange(function_count)
                    start = time.perf_counter()
                    client.function(cid, findex)
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
    return latencies, elapsed


def test_uniform_vs_zipf_skew(benchmark):
    """Uniform then Zipf-1.1 traffic over 16 containers through a
    router with the response cache on.  Records both phases
    plus the final per-shard load split for the ``--skew`` gate."""
    containers = [compress(assemble(ASM_TEMPLATE.format(value=v + 1))).data
                  for v in range(CONTAINERS)]
    function_count = 2
    zipf = zipf_weights(CONTAINERS, ZIPF_EXPONENT)

    def measure():
        config = ClusterConfig(
            shards=3, replication=2,
            router=RouterConfig(probe_interval=0.1, probe_timeout=0.5,
                                breaker_cooldown=0.25, seed=0,
                                cache_bytes=1 << 20))
        with LocalCluster(config) as cluster:
            with cluster.client() as warm:
                ids = [warm.put(blob)[0] for blob in containers]
            uniform = _drive(cluster, ids, function_count,
                             lambda rng: rng.randrange(CONTAINERS))
            skewed = _drive(
                cluster, ids, function_count,
                lambda rng: rng.choices(range(CONTAINERS), zipf)[0])
            with cluster.client() as probe:
                stats = probe.stats()
        return uniform, skewed, stats

    uniform, skewed, stats = benchmark.pedantic(measure, rounds=1,
                                                iterations=1)
    total = CLIENTS * REQUESTS_PER_CLIENT
    entry = {"benchmark": "serve_skew", "clients": CLIENTS,
             "containers": CONTAINERS, "zipf_exponent": ZIPF_EXPONENT,
             "requests_per_phase": total}
    for phase, (latencies, elapsed) in (("uniform", uniform),
                                        ("zipf", skewed)):
        assert len(latencies) == total
        entry[f"{phase}_requests_per_s"] = round(total / elapsed, 1)
        entry[f"{phase}_p50_ms"] = round(percentile(latencies, 0.50) * 1e3, 3)
        entry[f"{phase}_p99_ms"] = round(percentile(latencies, 0.99) * 1e3, 3)

    shard_load = stats["shard_load"]
    loads = list(shard_load.values())
    mean_load = sum(loads) / len(loads)
    entry["shard_load"] = shard_load
    entry["max_over_mean_shard_load"] = round(max(loads) / mean_load, 3)
    entry["cache_hits"] = stats["cache"]["hits"]
    entry["cache_misses"] = stats["cache"]["misses"]
    _record(entry)

    # The cache must be doing the absorbing: most repeat fetches of the
    # popular containers never reach a shard.
    assert stats["cache"]["hits"] > total
    assert max(loads) > 0
    assert entry["zipf_p99_ms"] > 0
