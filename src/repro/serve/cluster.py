"""In-process cluster topology: N shard servers behind one router.

:class:`LocalCluster` runs every shard as an :class:`SSDServer` on its
own daemon thread (``serve_in_thread``) plus one :class:`ClusterRouter`
front-end, all inside the current process — the shape tests, the chaos
harness, and benchmarks drive.  Each shard keeps its *own*
:class:`ContainerStore` instance that survives the shard's process
(thread) dying: the store models the shard's disk, so
``restart_shard`` brings the same data back on a new port, exactly like
a crashed machine rejoining.

Fault verbs mirror what production infrastructure does to you:

* :meth:`kill_shard`    — SIGKILL: connections reset mid-frame, no drain
* :meth:`drain_shard`   — SIGTERM: finish in-flight work, refuse new
  frames, router routes around (the graceful path)
* :meth:`restart_shard` — the machine comes back; the router learns the
  new address and the ring placement is unchanged (same shard id)

The multi-process deployment (``ssd cluster start``) wires the same
router around real subprocess shards; see ``repro.tools``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from .client import RetryPolicy, ServeClient
from .router import RouterConfig, router_in_thread
from .server import ServerConfig, serve_in_thread
from .service import ServeHandle
from .store import ContainerStore

#: default shard count for a local cluster
DEFAULT_SHARDS = 3
#: default replication factor
DEFAULT_REPLICATION = 2


@dataclass(frozen=True)
class ShardSpec:
    """Where one shard lives (id is stable; the port may change)."""

    shard_id: str
    host: str
    port: int


@dataclass
class ClusterConfig:
    """Topology knobs for one :class:`LocalCluster`."""

    shards: int = DEFAULT_SHARDS
    replication: int = DEFAULT_REPLICATION
    host: str = "127.0.0.1"
    router: Optional[RouterConfig] = None
    server: Optional[ServerConfig] = None
    #: front-end routers; > 1 removes the router as a single point of
    #: failure (each probes the shards itself and any one serves alone)
    routers: int = 1

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"need at least one shard, got {self.shards}")
        if self.routers < 1:
            raise ValueError(f"need at least one router, got {self.routers}")
        if not 1 <= self.replication <= self.shards:
            raise ValueError(
                f"replication {self.replication} must be in "
                f"[1, {self.shards}] for a {self.shards}-shard cluster")

    @property
    def quorum(self) -> int:
        """Live shards guaranteeing every key keeps >= 1 live replica.

        A key becomes unavailable only when *all* of its ``replication``
        placement shards are dead, so with ``shards - replication``
        failures every key still has a replica; one more failure can
        take a key's last copy.
        """
        return self.shards - self.replication + 1


class LocalCluster:
    """N thread-backed shards behind one router, with fault verbs."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self.shard_ids: List[str] = [
            f"shard-{index}" for index in range(self.config.shards)]
        #: per-shard stores: the "disk" that survives kill/restart
        self.stores: Dict[str, ContainerStore] = {
            shard_id: ContainerStore() for shard_id in self.shard_ids}
        self.handles: Dict[str, Optional[ServeHandle]] = {
            shard_id: None for shard_id in self.shard_ids}
        self.routers: List[ServeHandle] = []
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "LocalCluster":
        addresses: Dict[str, tuple] = {}
        for shard_id in self.shard_ids:
            handle = self._start_shard(shard_id)
            self.handles[shard_id] = handle
            addresses[shard_id] = handle.address
        router_config = replace(self.config.router or RouterConfig(),
                                replication=self.config.replication)
        self.routers = [router_in_thread(addresses, config=router_config)]
        for _ in range(1, self.config.routers):
            self.routers.append(router_in_thread(
                addresses, config=replace(router_config, port=0)))
        return self

    def _start_shard(self, shard_id: str) -> ServeHandle:
        server_config = replace(self.config.server or ServerConfig(),
                                host=self.config.host, port=0)
        return serve_in_thread(store=self.stores[shard_id],
                               config=server_config)

    def stop(self) -> None:
        for handle in self.routers:
            handle.stop()
        self.routers = []
        for shard_id, handle in self.handles.items():
            if handle is not None:
                handle.stop()
                self.handles[shard_id] = None

    def __enter__(self) -> "LocalCluster":
        if not self.routers:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- introspection -------------------------------------------------------

    @property
    def address(self) -> tuple:
        """A live router's (host, port) — what clients connect to."""
        addresses = self.addresses
        if not addresses:
            raise RuntimeError("cluster is not started (or every router died)")
        return addresses[0]

    @property
    def addresses(self) -> List[tuple]:
        """Every live router's (host, port), first-preferred order."""
        return [handle.address for handle in self.routers
                if handle.is_alive()]

    @property
    def quorum(self) -> int:
        return self.config.quorum

    @property
    def live_count(self) -> int:
        return sum(1 for handle in self.handles.values()
                   if handle is not None and handle.is_alive())

    @property
    def above_quorum(self) -> bool:
        return self.live_count >= self.quorum

    def specs(self) -> List[ShardSpec]:
        out = []
        for shard_id in self.shard_ids:
            handle = self.handles[shard_id]
            port = handle.port if handle is not None else 0
            out.append(ShardSpec(shard_id=shard_id, host=self.config.host,
                                 port=port))
        return out

    def replicas_for(self, container_id: str) -> List[str]:
        # Every router places every key the same way (one fixed ring).
        if not self.routers:
            raise RuntimeError("cluster is not started")
        return self.routers[0].service.replicas_for(container_id)

    def client(self, retries: int = 4,
               retry_policy: Optional[RetryPolicy] = None,
               **kwargs) -> ServeClient:
        """A retrying client pointed at the routers.

        Every live router is handed over as a fallback address, so a
        router death mid-load costs the client one reconnect.
        """
        addresses = self.addresses
        if not addresses:
            raise RuntimeError("cluster is not started (or every router died)")
        host, port = addresses[0]
        kwargs.setdefault("fallback", addresses[1:])
        if retry_policy is not None:
            return ServeClient(host, port, retry_policy=retry_policy,
                               **kwargs)
        return ServeClient(host, port, retries=retries, **kwargs)

    # -- fault verbs ---------------------------------------------------------

    def kill_shard(self, shard_id: str) -> None:
        """SIGKILL semantics: reset connections, no drain, store survives."""
        with self._lock:
            handle = self.handles[shard_id]
            if handle is not None:
                handle.kill()
                self.handles[shard_id] = None

    def drain_shard(self, shard_id: str, timeout: float = 10.0) -> bool:
        """SIGTERM semantics: finish in-flight work, refuse new frames."""
        with self._lock:
            handle = self.handles[shard_id]
            if handle is None:
                return True
            drained = handle.drain(timeout)
            self.handles[shard_id] = None
            return drained

    def restart_shard(self, shard_id: str) -> ShardSpec:
        """Bring a dead shard back (same store, new port); router learns."""
        with self._lock:
            old = self.handles[shard_id]
            if old is not None and old.is_alive():
                raise RuntimeError(f"{shard_id} is still running")
            handle = self._start_shard(shard_id)
            self.handles[shard_id] = handle
            for router in self.routers:
                if router.is_alive():
                    router.call(router.service.update_address, shard_id,
                                *handle.address)
            return ShardSpec(shard_id=shard_id, host=self.config.host,
                             port=handle.port)

    def kill_router(self, index: int = 0) -> tuple:
        """Take one front-end router down; returns its old address.

        Surviving routers keep serving (clients fall back via their
        address list) — the scenario the chaos harness proves causes
        zero client-visible failures.
        """
        with self._lock:
            handle = self.routers[index]
            address = handle.address
            handle.stop()
            return address


__all__ = [
    "ClusterConfig",
    "DEFAULT_REPLICATION",
    "DEFAULT_SHARDS",
    "LocalCluster",
    "ShardSpec",
]
