"""``repro.serve`` — an async SSD code server, cluster, and client.

The paper's systems claim is that SSD containers decode at basic-block
granularity, so a runtime can demand-fetch only the code it executes.
This package turns that property into a service: a content-addressed
store of verified containers, an asyncio server that pages decoded
functions to many concurrent clients (request coalescing, a shared
byte-budgeted LRU over dictionary state and hot functions, bounded
concurrency with backpressure, per-request deadlines), and a client
whose :class:`RemoteProgram` runs in the local interpreter while
fetching functions over the wire on first call — a
:class:`repro.core.lazy.LazyProgram` whose source is the server.

For deployments bigger than one process, ``repro.serve.cluster`` runs N
shard servers behind a :class:`ClusterRouter` front-end that speaks the
same wire protocol: container hashes are consistent-hash-placed with
R-way replication, shard health is probed with the ``HEALTH`` op, and
requests fail over between replicas with backoff — a dead shard costs
retries, not answers, until the cluster drops below quorum (then
clients get a clean ``E_UNAVAILABLE``).

Quick start::

    from repro.serve import ContainerStore, ServeClient, RemoteProgram
    from repro.serve import serve_in_thread
    from repro.vm import run_program

    with serve_in_thread() as handle:
        with ServeClient(*handle.address) as client:
            program = RemoteProgram(client, container_bytes)
            result = run_program(program)

Cluster::

    from repro.serve import ClusterConfig, LocalCluster

    with LocalCluster(ClusterConfig(shards=3, replication=2)) as cluster:
        with cluster.client(retries=4) as client:
            container_id = client.put(container_bytes)

CLI: ``ssd serve`` / ``ssd client`` / ``ssd cluster``.  Wire format:
docs/PROTOCOL.md; topology and failover: docs/CLUSTER.md.
"""

from .cache import (
    AdmissionPolicy,
    CacheStats,
    DEFAULT_CACHE_BYTES,
    GhostListAdmission,
    SharedLRUCache,
)
from .client import (
    DEFAULT_TIMEOUT,
    NO_RETRY,
    ContainerMeta,
    OpDeadlines,
    RemoteProgram,
    RetryPolicy,
    ServeClient,
    remote_program,
)
from .cluster import (
    ClusterConfig,
    LocalCluster,
    ShardSpec,
)
from .health import CircuitBreaker, ShardHealth
from .metrics import RouterMetrics, ServerMetrics, percentile
from .protocol import (
    HealthStatus,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Message,
)
from .ring import HashRing
from .router import ClusterRouter, RouterConfig, router_in_thread
from .server import (
    DEFAULT_DRAIN_TIMEOUT,
    SSDServer,
    ServerConfig,
    serve_in_thread,
)
from .service import ServeHandle, read_frame_async
from .store import AdmissionError, ContainerStore, container_id_of

__all__ = [
    "AdmissionError",
    "AdmissionPolicy",
    "CacheStats",
    "CircuitBreaker",
    "ClusterConfig",
    "ClusterRouter",
    "ContainerMeta",
    "ContainerStore",
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_DRAIN_TIMEOUT",
    "DEFAULT_TIMEOUT",
    "GhostListAdmission",
    "HashRing",
    "HealthStatus",
    "LocalCluster",
    "MAX_FRAME_BYTES",
    "Message",
    "NO_RETRY",
    "OpDeadlines",
    "PROTOCOL_VERSION",
    "RemoteProgram",
    "RetryPolicy",
    "RouterConfig",
    "RouterMetrics",
    "SSDServer",
    "ServeClient",
    "ServeHandle",
    "ServerConfig",
    "ServerMetrics",
    "ShardHealth",
    "ShardSpec",
    "SharedLRUCache",
    "container_id_of",
    "percentile",
    "read_frame_async",
    "remote_program",
    "router_in_thread",
    "serve_in_thread",
]
