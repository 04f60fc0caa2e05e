"""Integration tests for the router response cache, clusters with more
than one router, and client fallback between router addresses
(repro.serve.{router,cluster,client}).
"""

import time

import pytest

from repro.core import compress
from repro.isa import assemble
from repro.serve import ClusterConfig, LocalCluster, RouterConfig, ServeClient

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


def build_container(value=5):
    return compress(assemble(ASM_TEMPLATE.format(value=value))).data


def fast_config(**overrides):
    defaults = dict(probe_interval=0.05, probe_timeout=0.5,
                    attempt_timeout=2.0, breaker_cooldown=0.2,
                    fail_threshold=2, rise_threshold=2, seed=11)
    defaults.update(overrides)
    return RouterConfig(**defaults)


def start_cluster(routers=1, **router_overrides):
    return LocalCluster(ClusterConfig(
        shards=3, replication=2, routers=routers,
        router=fast_config(**router_overrides))).start()


def wait_for(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestResponseCache:
    def test_repeat_gets_hit_the_cache(self):
        with start_cluster(cache_bytes=1 << 20) as cluster:
            with cluster.client() as client:
                cid, _count, _entry = client.put(build_container())
                first = client.meta(cid)
                second = client.meta(cid)
                assert first == second
                stats = client.stats()
        assert stats["cache"]["hits"] >= 1
        assert stats["cache"]["misses"] >= 1
        assert stats["cache"]["current_bytes"] > 0

    def test_cache_serves_when_every_replica_is_dead(self):
        """Content-addressed responses are immutable, so a warmed cache
        keeps answering even with zero live shards behind the router."""
        with start_cluster(cache_bytes=1 << 20) as cluster:
            with cluster.client() as client:
                cid, _count, _entry = client.put(build_container())
                warmed = client.function(cid, 0)
                for shard_id in list(cluster.shard_ids):
                    cluster.kill_shard(shard_id)
                again = client.function(cid, 0)
                assert [str(i) for i in again] == [str(i) for i in warmed]

    def test_cache_disabled_by_default(self):
        with start_cluster() as cluster:
            with cluster.client() as client:
                cid, _count, _entry = client.put(build_container())
                client.meta(cid)
                client.meta(cid)
                stats = client.stats()
        assert stats["cache"] == {"hits": 0, "misses": 0, "evictions": 0,
                                  "current_bytes": 0}

    def test_tiny_budget_evicts(self):
        with start_cluster(cache_bytes=600) as cluster:
            with cluster.client() as client:
                ids = []
                for value in range(6):
                    cid, _count, _entry = client.put(build_container(value + 1))
                    ids.append(cid)
                for cid in ids:
                    client.meta(cid)
                stats = client.stats()
        cache = stats["cache"]
        assert cache["evictions"] >= 1
        assert cache["current_bytes"] <= 600


class TestMultiRouter:
    def test_both_routers_answer_clients(self):
        with start_cluster(routers=2) as cluster:
            container = build_container()
            with cluster.client() as client:
                cid, _count, _entry = client.put(container)
            for host, port in cluster.addresses:
                with ServeClient(host, port, retries=4) as direct:
                    assert direct.meta(cid).container_id == cid

    def test_router_death_is_absorbed_by_fallback(self):
        with start_cluster(routers=2) as cluster:
            with cluster.client() as client:
                cid, _count, _entry = client.put(build_container())
                assert client.meta(cid).container_id == cid
                cluster.kill_router(0)
                assert wait_for(lambda: len(cluster.addresses) == 1)
                meta = client.meta(cid)   # retries reconnect via fallback
                assert meta.container_id == cid
                assert client.reconnect_count >= 1

    def test_each_router_sees_a_drain_itself(self):
        """Routers share no state: each one's own probes and retryable
        answers take a drained shard out of its rotation."""
        with start_cluster(routers=2) as cluster:
            with cluster.client() as client:
                cid, _count, _entry = client.put(build_container())
            victim = cluster.replicas_for(cid)[0]
            assert cluster.drain_shard(victim, timeout=5.0)
            for handle in cluster.routers:
                host, port = handle.address
                with ServeClient(host, port, retries=4) as direct:
                    assert direct.meta(cid).container_id == cid
                assert wait_for(
                    lambda: victim not in handle.service.live_shards)

    def test_single_router_cluster_keeps_old_shape(self):
        with start_cluster(routers=1) as cluster:
            assert len(cluster.routers) == 1
            assert cluster.addresses == [cluster.address]


class TestClientFallback:
    def test_connects_via_fallback_when_primary_is_down(self):
        with start_cluster(routers=2) as cluster:
            live = cluster.addresses
            with cluster.client() as seeder:
                cid, _count, _entry = seeder.put(build_container())
            # point the client's primary address at a dead port
            client = ServeClient("127.0.0.1", 1, retries=4,
                                 fallback=live)
            try:
                assert client.meta(cid).container_id == cid
                assert (client.host, client.port) in [tuple(a) for a in live]
            finally:
                client.close()

    def test_all_addresses_down_raises(self):
        with pytest.raises(OSError):
            ServeClient("127.0.0.1", 1, fallback=[("127.0.0.1", 2)])
