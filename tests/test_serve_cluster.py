"""Integration tests for the sharded serve cluster
(repro.serve.{ring,router,cluster}): placement, replication fan-out,
failover, quorum refusal, drain hand-off, restart recovery, and the
router's observability surface.
"""

import time

import pytest

from repro.core import compress
from repro.errors import RemoteError, UnavailableError
from repro.isa import assemble
from repro.serve import (
    ClusterConfig,
    LocalCluster,
    RouterConfig,
    ServeClient,
    container_id_of,
)
from repro.serve import ServerConfig, protocol
from repro.serve.client import RetryPolicy

ASM = """
func main
    li r2, 5
    call helper
    trap 1
    ret
end
func helper
    add r1, r2, r2
    ret
end
func spare
    li r1, 77
    ret
end
"""


def fast_cluster(shards=3, replication=2):
    return LocalCluster(ClusterConfig(
        shards=shards, replication=replication,
        router=RouterConfig(probe_interval=0.05, probe_timeout=0.5,
                            attempt_timeout=2.0, breaker_cooldown=0.2,
                            fail_threshold=2, rise_threshold=2, seed=11)))


@pytest.fixture(scope="module")
def container():
    return compress(assemble(ASM)).data


@pytest.fixture()
def cluster():
    with fast_cluster() as cluster:
        yield cluster


def wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestTopology:
    def test_config_validates(self):
        with pytest.raises(ValueError):
            ClusterConfig(shards=0)
        with pytest.raises(ValueError):
            ClusterConfig(shards=2, replication=3)

    def test_quorum_formula(self):
        assert ClusterConfig(shards=3, replication=2).quorum == 2
        assert ClusterConfig(shards=5, replication=3).quorum == 3
        assert ClusterConfig(shards=4, replication=1).quorum == 4

    def test_configs_reach_shards_and_are_not_mutated(self):
        """Every ServerConfig field reaches every shard, and starting
        the cluster leaves the caller's RouterConfig untouched."""
        router_config = RouterConfig(probe_interval=0.05, seed=11)
        server_config = ServerConfig(prefetch_depth=8, cache_admission=True,
                                     cache_bytes=1 << 16)
        with LocalCluster(ClusterConfig(shards=3, replication=3,
                                        router=router_config,
                                        server=server_config)) as cluster:
            for handle in cluster.handles.values():
                config = handle.service.config
                assert config.prefetch_depth == 8
                assert config.cache_admission is True
                assert config.cache_bytes == 1 << 16
            assert cluster.routers[0].service.config.replication == 3
        assert router_config.replication == RouterConfig().replication

    def test_specs_and_live_count(self, cluster):
        specs = cluster.specs()
        assert [spec.shard_id for spec in specs] == \
            ["shard-0", "shard-1", "shard-2"]
        assert all(spec.port > 0 for spec in specs)
        assert cluster.live_count == 3
        assert cluster.above_quorum


class TestReplication:
    def test_put_fans_out_to_all_replicas(self, cluster, container):
        cid = container_id_of(container)
        with cluster.client() as client:
            put_id, count, _entry = client.put(container)
        assert put_id == cid
        assert count == 3
        replicas = cluster.replicas_for(cid)
        assert len(replicas) == 2
        for shard_id in replicas:
            assert cid in cluster.stores[shard_id]
        for shard_id in set(cluster.shard_ids) - set(replicas):
            assert cid not in cluster.stores[shard_id]

    def test_put_is_idempotent_across_retries(self, cluster, container):
        with cluster.client() as client:
            first = client.put(container)
            second = client.put(container)
        assert first == second

    def test_reads_work_through_router(self, cluster, container):
        with cluster.client() as client:
            cid, _count, _entry = client.put(container)
            meta = client.meta(cid)
            assert meta.function_names == ["main", "helper", "spare"]
            function = client.function(cid, 1)
            assert function.name == "helper"
            total, insns = client.block(cid, 0, 0, 2)
            assert total >= 2
            assert len(insns) == 2


class TestFailover:
    def test_kill_one_replica_reads_fail_over(self, cluster, container):
        with cluster.client() as client:
            cid, _count, _entry = client.put(container)
            replicas = cluster.replicas_for(cid)
            cluster.kill_shard(replicas[0])
            meta = client.meta(cid)   # served by the surviving replica
            assert meta.program_name == "asm"
        assert cluster.routers[0].metrics.snapshot()["failovers_total"] >= 1

    def test_draining_shard_hands_off(self, cluster, container):
        with cluster.client() as client:
            cid, _count, _entry = client.put(container)
            replicas = cluster.replicas_for(cid)
            assert cluster.drain_shard(replicas[0], timeout=5.0)
            assert client.function(cid, 0).name == "main"
            # probes saw the drain or the kill; the shard is not routable
            assert wait_until(lambda: replicas[0] not in
                              cluster.routers[0].service.live_shards)

    def test_all_replicas_dead_is_clean_unavailable(self, cluster,
                                                    container):
        with cluster.client(retry_policy=RetryPolicy(
                retries=1, base_delay=0.01, max_delay=0.05,
                seed=3)) as client:
            cid, _count, _entry = client.put(container)
            for shard_id in cluster.replicas_for(cid):
                cluster.kill_shard(shard_id)
            assert not cluster.above_quorum
            with pytest.raises((UnavailableError, RemoteError)) as excinfo:
                client.meta(cid)
            if isinstance(excinfo.value, RemoteError):
                assert excinfo.value.code == protocol.E_UNAVAILABLE
        assert cluster.routers[0].metrics.snapshot()["unavailable"] >= 1

    def test_restart_recovers_data_and_routing(self, cluster, container):
        with cluster.client() as client:
            cid, _count, _entry = client.put(container)
            replicas = cluster.replicas_for(cid)
            for shard_id in replicas:
                cluster.kill_shard(shard_id)
            spec = cluster.restart_shard(replicas[0])
            assert spec.port > 0
            # same store came back: the data survived the "crash"
            assert cid in cluster.stores[replicas[0]]
            meta = client.meta(cid)
            assert meta.program_name == "asm"

    def test_probes_mark_down_then_up(self, cluster, container):
        victim = cluster.shard_ids[0]
        cluster.kill_shard(victim)
        assert wait_until(lambda: victim not in
                          cluster.routers[0].service.live_shards)
        cluster.restart_shard(victim)
        assert wait_until(lambda: victim in
                          cluster.routers[0].service.live_shards)

    def test_breaker_opens_on_dead_shard(self, container):
        # R=1: every request for the victim's keys hammers only it
        with fast_cluster(shards=2, replication=1) as cluster:
            with cluster.client(retry_policy=RetryPolicy(
                    retries=0)) as client:
                cid, _count, _entry = client.put(container)
                victim = cluster.replicas_for(cid)[0]
                cluster.kill_shard(victim)
                for _ in range(6):
                    with pytest.raises((UnavailableError, RemoteError)):
                        client.meta(cid)
            text = cluster.routers[0].metrics.expose_text()
            assert "cluster_breaker_transitions_total" in text
            assert f'shard="{victim}"' in text


class TestReplicaReads:
    """With a fixed ring, a key lives only on its replicas: reads try
    those and no other shard."""

    def test_replica_that_missed_the_put_fails_over(self, cluster,
                                                   container):
        cid = container_id_of(container)
        replicas = cluster.replicas_for(cid)
        metrics = cluster.routers[0].metrics
        cluster.kill_shard(replicas[0])
        with cluster.client() as client:
            assert client.put(container)[0] == cid
            # the restarted shard's store never saw the container
            cluster.restart_shard(replicas[0])
            assert cid not in cluster.stores[replicas[0]]
            assert wait_until(lambda: replicas[0] in
                              cluster.routers[0].service.live_shards)
            served_before = dict(cluster.routers[0].service._served)
            failovers_before = metrics.snapshot()["failovers_total"]
            assert client.function(cid, 0).name == "main"
        served = cluster.routers[0].service._served
        assert served[replicas[1]] == served_before[replicas[1]] + 1
        assert metrics.snapshot()["failovers_total"] > failovers_before

    def test_replica_miss_with_other_replica_dead_is_unavailable(
            self, cluster, container):
        """One replica answers E_NOT_FOUND and the other is dead: the
        key may live on the dead one, so the answer is E_UNAVAILABLE."""
        cid = container_id_of(container)
        replicas = cluster.replicas_for(cid)
        cluster.kill_shard(replicas[0])
        with cluster.client(retry_policy=RetryPolicy(
                retries=1, base_delay=0.01, max_delay=0.05,
                seed=3)) as client:
            client.put(container)
            cluster.restart_shard(replicas[0])
            assert wait_until(lambda: replicas[0] in
                              cluster.routers[0].service.live_shards)
            cluster.kill_shard(replicas[1])
            with pytest.raises((UnavailableError, RemoteError)) as excinfo:
                client.function(cid, 0)
            if isinstance(excinfo.value, RemoteError):
                assert excinfo.value.code == protocol.E_UNAVAILABLE

    def test_unknown_container_still_not_found(self, cluster):
        with cluster.client() as client:
            with pytest.raises(RemoteError, match="E_NOT_FOUND"):
                client.meta("00" * 32)


class TestRouterObservability:
    def test_router_health_reports_live_shards(self, cluster):
        host, port = cluster.address
        with ServeClient(host, port) as client:
            status = client.health()
            assert status.ok
            assert status.containers == 3   # live shard count
        cluster.kill_shard("shard-1")
        assert wait_until(
            lambda: len(cluster.routers[0].service.live_shards) == 2)
        with ServeClient(host, port) as client:
            assert client.health().containers == 2

    def test_router_stats_snapshot_shape(self, cluster, container):
        with cluster.client() as client:
            client.put(container)
            stats = client.stats()
        assert stats["replication"] == 2
        assert stats["quorum"] == 2
        assert stats["requests"].get("PUT_CONTAINER", 0) >= 1
        assert set(stats["shards"]) == set(cluster.shard_ids)

    def test_router_metrics_exposition(self, cluster, container):
        with cluster.client() as client:
            client.put(container)
            text = client.metrics_text()
        for family in ("cluster_requests_total", "cluster_shard_state",
                       "cluster_hops_bucket", "cluster_request_seconds"):
            assert family in text, family

    def test_shard_state_gauge_tracks_kill(self, cluster):
        cluster.kill_shard("shard-2")
        assert wait_until(lambda: 'cluster_shard_state{shard="shard-2"} 3'
                          in cluster.routers[0].metrics.expose_text())


class TestUnknownTypeAndBadFrames:
    def test_unknown_request_type_is_bad_request(self, cluster):
        host, port = cluster.address
        with ServeClient(host, port) as client:
            for mtype in (0x55, 0x0A):   # 0x0A is reserved (PROTOCOL.md)
                with pytest.raises(RemoteError) as excinfo:
                    client._request(mtype, b"", op="stats")
                assert excinfo.value.code == protocol.E_BAD_REQUEST

    def test_short_get_body_is_bad_request(self, cluster):
        host, port = cluster.address
        with ServeClient(host, port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client._request(protocol.GET_META, b"\x01\x02",
                                op="meta")
            assert excinfo.value.code == protocol.E_BAD_REQUEST
