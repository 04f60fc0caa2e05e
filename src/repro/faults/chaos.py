"""Cluster chaos harness: seeded shard faults under concurrent client load.

The robustness layer's end-to-end verdict on ``repro.serve.cluster``.
A seeded plan drives real faults against a live :class:`LocalCluster`
while a pool of retrying clients hammers it, then the report asserts
the paper-grade contract:

* **above quorum, zero client-visible failures** — every kill, hang,
  drain, and connection-reset burst is absorbed by replica failover and
  client/router retry; a request may be slow, never wrong or lost;
* **below quorum, clean refusal** — when *every* replica of a key is
  dead, clients get a typed ``E_UNAVAILABLE`` (``UnavailableError`` /
  ``RemoteError``), deterministically, within the retry budget — not a
  hang, not a reset;
* **recovery** — restarted shards rejoin (same store, new port) and the
  same requests succeed again;
* **delta updates survive partial bases** — a ``GET_DELTA`` whose base
  lives on only one of the target's replicas is routed past the
  ``E_NO_BASE`` answers to the shard that can diff, and an unknown base
  degrades to a verified full transfer, never a wrong container.

Fault verbs: shard **kill** SIGKILLs a shard process (connections reset
mid-frame), **hang** injects a bounded sleep into the decode path
(bounded because a killed shard's executor must still join), **flake**
replays :class:`repro.faults.transport.FlakyTransport` frames at the
router, and **drain** is the graceful SIGTERM path.

Everything is derived from one seed; ``ChaosReport.events`` replays the
exact schedule.  CI runs this as the cluster chaos sweep
(``ssd chaos`` / fuzz-nightly).
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import compress
from ..errors import ProtocolError, RemoteError, ReproError, UnavailableError
from ..isa import assemble
from ..serve import protocol
from ..serve.client import RetryPolicy, ServeClient
from ..serve.cluster import ClusterConfig, LocalCluster
from ..serve.router import RouterConfig
from ..serve.server import ServerConfig
from ..serve.store import container_id_of
from .transport import FlakyTransport

#: chaos fault verbs, in the order the scheduler prefers them
CHAOS_KINDS = ("kill", "hang", "flake", "drain")

#: ceiling on injected hang sleeps: asyncio.run waits for the default
#: executor to finish, so a killed shard's hung decode thread must
#: wake up on its own within a bounded window for the thread to join
MAX_HANG_SECONDS = 5.0

_ASM_TEMPLATE = """
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
func spare_{value}
    li r1, {value}
    ret
end
"""


@dataclass(frozen=True)
class ChaosEvent:
    """One executed fault, for the replayable report."""

    at: float              # seconds since the load started
    kind: str              # one of CHAOS_KINDS, or "restart"
    shard_id: str
    detail: str = ""


@dataclass
class ChaosReport:
    """What the sweep did and whether the cluster honoured the contract."""

    seed: int
    clients: int
    duration: float
    events: List[ChaosEvent] = field(default_factory=list)
    requests_total: int = 0
    retries_total: int = 0
    #: exceptions clients saw while the cluster was above quorum
    failures: List[str] = field(default_factory=list)
    #: below-quorum probe observed a typed E_UNAVAILABLE refusal
    below_quorum_clean: Optional[bool] = None
    #: the same key succeeded again after replicas were restarted
    recovered: Optional[bool] = None
    #: delta update succeeded via failover; unknown base fell back clean
    delta_clean: Optional[bool] = None
    #: a router died mid-load and clients failed over with zero failures
    router_failover_clean: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return (not self.failures
                and self.below_quorum_clean is not False
                and self.recovered is not False
                and self.delta_clean is not False
                and self.router_failover_clean is not False)

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"chaos sweep seed={self.seed}: {verdict}",
            f"  load: {self.clients} clients, {self.duration:.1f}s, "
            f"{self.requests_total} requests ({self.retries_total} client "
            f"retries)",
            f"  events: " + (", ".join(
                f"{e.kind}@{e.at:.2f}s:{e.shard_id}" for e in self.events)
                or "none"),
            f"  above-quorum failures: {len(self.failures)}",
            f"  below-quorum clean refusal: {self.below_quorum_clean}",
            f"  post-restart recovery: {self.recovered}",
            f"  delta update via failover: {self.delta_clean}",
            f"  router death absorbed: {self.router_failover_clean}",
        ]
        for failure in self.failures[:5]:
            lines.append(f"    failure: {failure}")
        return "\n".join(lines)


def _build_containers(count: int) -> List[bytes]:
    return [compress(assemble(_ASM_TEMPLATE.format(value=index + 1))).data
            for index in range(count)]


class _ClientLoad:
    """N threads of mixed idempotent traffic against the router."""

    def __init__(self, host: str, port: int, container_ids: List[str],
                 clients: int, seed: int,
                 fallback: Optional[List[tuple]] = None) -> None:
        self.host = host
        self.port = port
        self.fallback = list(fallback or [])
        self.container_ids = container_ids
        self.clients = clients
        self.seed = seed
        self.stop = threading.Event()
        self.requests = 0
        self.retries = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []

    def _worker(self, index: int) -> None:
        rng = random.Random(f"{self.seed}:client:{index}")
        policy = RetryPolicy(retries=8, base_delay=0.05, max_delay=0.5,
                             seed=self.seed * 1000 + index)
        client = ServeClient(self.host, self.port, retry_policy=policy,
                             fallback=self.fallback)
        try:
            while not self.stop.is_set():
                cid = rng.choice(self.container_ids)
                op = rng.randrange(4)
                try:
                    if op == 0:
                        client.meta(cid)
                    elif op == 1:
                        client.function(cid, rng.randrange(3))
                    elif op == 2:
                        client.block(cid, 0, 0, 2)
                    else:
                        client.stats()
                except Exception as exc:  # noqa: BLE001 - the verdict
                    with self._lock:
                        self.failures.append(
                            f"client {index}: {type(exc).__name__}: {exc}")
                finally:
                    with self._lock:
                        self.requests += 1
                time.sleep(rng.uniform(0.0, 0.01))
        finally:
            with self._lock:
                self.retries += client.retry_count
            client.close()

    def start(self) -> None:
        for index in range(self.clients):
            thread = threading.Thread(target=self._worker, args=(index,),
                                      name=f"chaos-client-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def finish(self, timeout: float = 10.0) -> None:
        self.stop.set()
        for thread in self._threads:
            thread.join(timeout)


def _flake_router(host: str, port: int, seed: int, cases: int = 6) -> str:
    """Replay FlakyTransport frames at the router; it must stay up."""
    flaky = FlakyTransport(seed=seed,
                           kinds=("truncate", "corrupt", "garbage", "drop"))
    frame = protocol.encode_frame(protocol.Message(
        type=protocol.STATS, request_id=7, body=b""))
    for index in range(cases):
        fault = flaky.fault(index, len(frame))
        payload = flaky.apply(frame, fault)
        try:
            with socket.create_connection((host, port), timeout=2.0) as sock:
                if payload is not None:
                    sock.sendall(payload)
                sock.settimeout(0.25)
                try:
                    sock.recv(4096)   # ERROR frame or clean close; either ok
                except socket.timeout:
                    pass
        except OSError:
            pass
    return f"{cases} faulted frames"


def chaos_sweep(seed: int = 0, clients: int = 8, duration: float = 3.0,
                shards: int = 3, replication: int = 2,
                hang_seconds: float = 1.5,
                routers: int = 2,
                cluster: Optional[LocalCluster] = None) -> ChaosReport:
    """Run the seeded chaos plan; see the module docstring for the contract.

    ``clients`` must be >= 8 to satisfy the acceptance load.  With the
    default 3-shard/R=2 topology the quorum is 2 live shards: the main
    phase keeps at least 2 alive at every instant, the below-quorum
    phase kills exactly the 2 replicas of one key.  With ``routers >= 2``
    (the default for an owned cluster) a router-death phase runs too:
    one front-end dies under fresh load and the surviving router must
    absorb every client via address fallback.
    """
    hang_seconds = min(hang_seconds, MAX_HANG_SECONDS)
    report = ChaosReport(seed=seed, clients=clients, duration=duration)
    rng = random.Random(f"chaos:{seed}")

    owns_cluster = cluster is None
    if owns_cluster:
        cluster = LocalCluster(ClusterConfig(
            shards=shards, replication=replication, routers=routers,
            # The router response cache stays OFF here: the below-quorum
            # phase must see a live refusal from the ring, not a cached
            # answer that hides every replica being dead.
            router=RouterConfig(probe_interval=0.1, probe_timeout=0.5,
                                attempt_timeout=1.0, breaker_cooldown=0.25,
                                seed=seed),
            # a small cache keeps decode work (and the hang hook) hot
            server=ServerConfig(cache_bytes=1 << 15,
                                request_timeout=5.0))).start()
    host, port = cluster.address

    containers = _build_containers(4)
    ids: List[str] = []
    with cluster.client(retries=4) as seeder:
        for data in containers:
            cid, _count, _entry = seeder.put(data)
            ids.append(cid)

    started = time.monotonic()

    def note(kind: str, shard_id: str, detail: str = "") -> None:
        report.events.append(ChaosEvent(
            at=time.monotonic() - started, kind=kind, shard_id=shard_id,
            detail=detail))

    load = _ClientLoad(host, port, ids, clients=clients, seed=seed)
    load.start()
    try:
        # -- phase 1: faults above quorum (never more than one shard down) --
        schedule = list(CHAOS_KINDS)
        rng.shuffle(schedule)
        slot = duration / (len(schedule) + 1)
        hooks: Dict[str, object] = {}
        for step, kind in enumerate(schedule):
            time.sleep(slot)
            shard_id = rng.choice(cluster.shard_ids)
            if kind == "kill":
                note("kill", shard_id, "SIGKILL: connections reset")
                cluster.kill_shard(shard_id)
                time.sleep(slot * 0.5)
                spec = cluster.restart_shard(shard_id)
                note("restart", shard_id, f"back on port {spec.port}")
            elif kind == "drain":
                note("drain", shard_id, "SIGTERM: graceful drain")
                cluster.drain_shard(shard_id, timeout=5.0)
                time.sleep(slot * 0.5)
                spec = cluster.restart_shard(shard_id)
                note("restart", shard_id, f"back on port {spec.port}")
            elif kind == "hang":
                handle = cluster.handles[shard_id]
                if handle is None:
                    continue
                bounded = min(hang_seconds, MAX_HANG_SECONDS)

                def hook(cid: str, findex: int, _t: float = bounded) -> None:
                    time.sleep(_t)

                handle.service.decode_hook = hook
                hooks[shard_id] = hook
                note("hang", shard_id, f"decodes sleep {bounded:.1f}s")
            else:  # flake
                detail = _flake_router(host, port, seed=seed + step)
                note("flake", "router", detail)
        time.sleep(slot)
        # lift hangs so the drain below isn't queued behind sleeps
        for shard_id in hooks:
            handle = cluster.handles[shard_id]
            if handle is not None:
                handle.service.decode_hook = None
    finally:
        load.finish()
    report.requests_total = load.requests
    report.retries_total = load.retries
    report.failures = load.failures

    # -- phase 1b: a router dies mid-load; the other absorbs everyone -------
    if len(cluster.routers) >= 2 and cluster.routers[1].is_alive():
        addresses = cluster.addresses
        router_load = _ClientLoad(host, port, ids, clients=clients,
                                  seed=seed + 1, fallback=addresses[1:])
        router_load.start()
        try:
            time.sleep(0.4)     # clients mid-flight on the doomed router
            dead = cluster.kill_router(0)
            note("kill", "router-0", f"front-end at {dead[0]}:{dead[1]} down")
            time.sleep(0.6)     # survivors must carry the rest of the load
        finally:
            router_load.finish()
        report.requests_total += router_load.requests
        report.retries_total += router_load.retries
        report.router_failover_clean = not router_load.failures
        report.failures.extend(
            f"router-failover {failure}" for failure in router_load.failures)
        # later phases talk to the surviving router
        host, port = cluster.address

    # -- phase 2: below quorum for one key, deterministically ---------------
    target = ids[0]
    replicas = cluster.replicas_for(target)
    for shard_id in replicas:
        note("kill", shard_id, f"removing replica of {target[:12]}")
        cluster.kill_shard(shard_id)
    probe_policy = RetryPolicy(retries=2, base_delay=0.02, max_delay=0.1,
                               seed=seed)
    with ServeClient(host, port, retry_policy=probe_policy) as probe:
        try:
            probe.meta(target)
            report.below_quorum_clean = False   # must NOT succeed
        except UnavailableError:
            report.below_quorum_clean = True
        except RemoteError as exc:
            report.below_quorum_clean = (exc.code == protocol.E_UNAVAILABLE)
        except (ProtocolError, ReproError, OSError):
            report.below_quorum_clean = False   # reset/hang, not a refusal

    # -- phase 3: recovery ---------------------------------------------------
    for shard_id in replicas:
        spec = cluster.restart_shard(shard_id)
        note("restart", shard_id, f"back on port {spec.port}")
    recovery_policy = RetryPolicy(retries=6, base_delay=0.05, max_delay=0.5,
                                  seed=seed)
    with ServeClient(host, port, retry_policy=recovery_policy) as probe:
        try:
            meta = probe.meta(target)
            report.recovered = bool(meta.function_names)
        except (ReproError, OSError) as exc:
            report.recovered = False
            report.failures.append(
                f"recovery probe: {type(exc).__name__}: {exc}")

    # -- phase 4: delta update with a partially-held base --------------------
    base_local = compress(assemble(_ASM_TEMPLATE.format(value=91))).data
    target_new = compress(assemble(_ASM_TEMPLATE.format(value=92))).data
    with cluster.client(retries=6) as seeder:
        target_id, _count, _entry = seeder.put(target_new)
    delta_replicas = cluster.replicas_for(target_id)
    # Seed the base onto exactly one of the target's replicas: every
    # other replica answers E_NO_BASE and the router must fail over to
    # the one shard that can synthesize the patch.
    cluster.stores[delta_replicas[-1]].put(base_local)
    delta_policy = RetryPolicy(retries=6, base_delay=0.05, max_delay=0.5,
                               seed=seed)
    with ServeClient(host, port, retry_policy=delta_policy) as probe:
        try:
            rebuilt, used_delta = probe.update_container(base_local, target_id)
            report.delta_clean = used_delta and rebuilt == target_new
            note("delta", delta_replicas[-1],
                 "patch via failover" if used_delta else "unexpected full "
                 "fallback")
            # an unknown base must degrade to a verified full transfer
            rebuilt, used_delta = probe.update_container(b"\x00" * 64,
                                                         target_id)
            if used_delta or rebuilt != target_new:
                report.delta_clean = False
        except (ReproError, OSError) as exc:
            report.delta_clean = False
            report.failures.append(
                f"delta probe: {type(exc).__name__}: {exc}")

    if owns_cluster:
        cluster.stop()
    return report


__all__ = [
    "CHAOS_KINDS",
    "ChaosEvent",
    "ChaosReport",
    "MAX_HANG_SECONDS",
    "chaos_sweep",
]
