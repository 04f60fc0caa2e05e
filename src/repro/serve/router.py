"""The cluster front-end: consistent-hash routing with replica failover.

A :class:`ClusterRouter` speaks the ordinary ``repro.serve`` wire
protocol on its client side — a :class:`~repro.serve.client.ServeClient`
pointed at a router cannot tell it from a single server — and fans the
work out across N shard servers on its back side:

* **Placement** — container ids map onto shards through a
  :class:`~repro.serve.ring.HashRing`; every container lives on its
  first ``replication`` distinct ring successors, so any single shard
  loss leaves at least one live replica for every key (and R-1 losses
  still do).
* **Failover** — a request whose target shard is down, draining, busy,
  or unreachable moves to the next replica immediately; when a whole
  round of candidates fails, the router backs off (exponential, full
  jitter) and tries again, because crash recovery and drain hand-offs
  resolve in milliseconds.
* **Health** — a background probe task sends ``HEALTH`` to every shard
  each ``probe_interval``; answers drive the per-shard
  :class:`~repro.serve.health.ShardHealth` state machine (a shard that
  says ``draining`` is routed around *before* it starts refusing work).
* **Load control** — a per-shard :class:`~repro.serve.health.CircuitBreaker`
  stops the router hammering a dead address with fresh TCP connects;
  one half-open trial per cooldown rediscovers recovered shards.
* **Response cache** — an optional byte-budgeted cache answers repeat
  GETs for hot content-addressed slices without touching any shard.
* **Scale-out** — multiple routers may front the same shards.  They
  share nothing: the ring is a pure function of the shard ids, so every
  router places every key the same way, and each one probes the shards
  itself.  Clients fail over between routers by address.

``PUT_CONTAINER`` is replicated to *all* R placement shards (the store
is content-addressed, so replays are idempotent); one success is enough
to acknowledge.  Reads try the key's replicas in ring order; the ring
never changes, so no other shard can hold the key.  When every replica
of a key is dead the router answers ``E_UNAVAILABLE`` — a clean, typed
refusal, never a hang — which is exactly the below-quorum contract the
chaos harness asserts.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ProtocolError, ReproError
from ..obs import TRACER
from . import protocol
from .cache import SharedLRUCache
from .health import CircuitBreaker, ShardHealth
from .metrics import RouterMetrics
from .ring import DEFAULT_VNODES, HashRing
from .service import FrameService, ServeHandle, read_frame_async, run_in_thread
from .store import container_id_of

#: how often the router probes every shard with HEALTH (seconds)
DEFAULT_PROBE_INTERVAL = 0.25
#: per-probe deadline; a probe slower than this counts as a failure
DEFAULT_PROBE_TIMEOUT = 1.0
#: per-attempt deadline for one shard exchange (seconds)
DEFAULT_ATTEMPT_TIMEOUT = 10.0
#: full failover rounds before the router gives up with E_UNAVAILABLE
DEFAULT_ROUTE_ROUNDS = 3

#: routed responses worth caching: content-addressed, bounded, immutable.
#: GET_CONTAINER is excluded (one entry could evict a whole working set);
#: GET_DELTA is excluded (its answer depends on which replica holds the
#: base, so it is not a pure function of the request body).
_CACHEABLE_TYPES = frozenset((protocol.GET_META, protocol.GET_FUNCTION,
                              protocol.GET_BLOCK))


@dataclass
class RouterConfig:
    """Tunables for one :class:`ClusterRouter`."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral; read .port after start
    replication: int = 2
    vnodes: int = DEFAULT_VNODES
    probe_interval: float = DEFAULT_PROBE_INTERVAL
    probe_timeout: float = DEFAULT_PROBE_TIMEOUT
    attempt_timeout: float = DEFAULT_ATTEMPT_TIMEOUT
    route_rounds: int = DEFAULT_ROUTE_ROUNDS
    backoff_base: float = 0.05         # first-round backoff ceiling (seconds)
    backoff_max: float = 1.0           # backoff ceiling growth limit
    fail_threshold: int = 3
    rise_threshold: int = 2
    breaker_threshold: int = 5
    breaker_cooldown: float = 1.0
    max_frame: int = protocol.MAX_FRAME_BYTES
    seed: Optional[int] = None         # jitter RNG seed (deterministic tests)
    cache_bytes: int = 0               # response-cache budget; 0 disables


@dataclass
class _Shard:
    """Everything the router tracks about one back-end shard."""

    shard_id: str
    address: Tuple[str, int]
    health: ShardHealth
    breaker: CircuitBreaker
    pool: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = \
        field(default_factory=list)


class _Unrouteable(Exception):
    """Internal: this attempt failed in a way that permits failover."""


class ClusterRouter(FrameService):
    """Asyncio front-end routing wire requests across shard servers."""

    def __init__(self, shards: Dict[str, Tuple[str, int]],
                 config: Optional[RouterConfig] = None,
                 metrics: Optional[RouterMetrics] = None) -> None:
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        super().__init__(config or RouterConfig(), metrics or RouterMetrics())
        if self.config.replication < 1:
            raise ValueError("replication must be >= 1")
        self.ring = HashRing(sorted(shards), vnodes=self.config.vnodes)
        self._shards: Dict[str, _Shard] = {}
        for shard_id, address in shards.items():
            shard = _Shard(
                shard_id=shard_id, address=tuple(address),
                health=ShardHealth(
                    shard_id,
                    fail_threshold=self.config.fail_threshold,
                    rise_threshold=self.config.rise_threshold),
                breaker=CircuitBreaker(
                    threshold=self.config.breaker_threshold,
                    cooldown=self.config.breaker_cooldown))
            self._shards[shard_id] = shard
            self.metrics.record_shard_state(shard_id, shard.health.state)
            self.metrics.record_breaker_state(shard_id, shard.breaker.state)
        self._probe_task: Optional[asyncio.Task] = None
        self._rng = random.Random(self.config.seed)
        self._response_cache = (
            SharedLRUCache(self.config.cache_bytes)
            if self.config.cache_bytes > 0 else None)
        self._cache_evictions_seen = 0
        # per-shard cumulative served requests (cache hits excluded —
        # they cost the shards nothing); STATS reports it as shard_load
        self._served: Dict[str, int] = {sid: 0 for sid in self._shards}

    # -- introspection -------------------------------------------------------

    @property
    def replication(self) -> int:
        return min(self.config.replication, len(self._shards))

    @property
    def quorum(self) -> int:
        """Live shards needed so every key keeps at least one replica."""
        return len(self._shards) - self.replication + 1

    @property
    def live_shards(self) -> List[str]:
        return [shard_id for shard_id, shard in sorted(self._shards.items())
                if shard.health.routable]

    def shard_states(self) -> Dict[str, str]:
        return {shard_id: shard.health.state
                for shard_id, shard in self._shards.items()}

    def replicas_for(self, container_id: str) -> List[str]:
        return self.ring.replicas_for(container_id, self.replication)

    def update_address(self, shard_id: str, host: str, port: int) -> None:
        """Re-point a shard id at a new address (restart after a crash).

        Runs on the router's loop; from another thread, go through
        ``ServeHandle.call``.  Pooled connections to the old address are
        discarded.
        """
        shard = self._shards[shard_id]
        shard.address = (host, port)
        stale, shard.pool = shard.pool, []
        for _reader, writer in stale:
            transport = writer.transport
            if transport is not None:
                transport.abort()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> asyncio.AbstractServer:
        server = await super().start()
        self._probe_task = asyncio.get_running_loop().create_task(
            self._probe_loop())
        return server

    async def stop(self) -> None:
        task, self._probe_task = self._probe_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        await super().stop()
        for shard in self._shards.values():
            pool, shard.pool = shard.pool, []
            for _reader, writer in pool:
                writer.close()

    # -- shard I/O -----------------------------------------------------------

    async def _acquire(self, shard: _Shard
                       ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        while shard.pool:
            reader, writer = shard.pool.pop()
            if not writer.is_closing():
                return reader, writer
            writer.close()
        return await asyncio.wait_for(
            asyncio.open_connection(*shard.address),
            timeout=self.config.attempt_timeout)

    async def _shard_exchange(self, shard: _Shard, message: protocol.Message,
                              timeout: float) -> protocol.Message:
        """One request/response against one shard on a pooled connection.

        Raises ``OSError``/``ProtocolError``/``TimeoutError`` on transport
        trouble; the connection is only returned to the pool after a
        complete, clean exchange (anything else may have desynchronized
        the frame stream).
        """
        reader, writer = await self._acquire(shard)
        try:
            writer.write(protocol.encode_frame(message))
            await writer.drain()
            response = await asyncio.wait_for(
                read_frame_async(reader, self.config.max_frame),
                timeout=timeout)
        except BaseException:
            transport = writer.transport
            if transport is not None:
                transport.abort()
            raise
        if response is None:
            writer.close()
            raise ProtocolError(f"shard {shard.shard_id} closed the "
                                "connection mid-exchange")
        shard.pool.append((reader, writer))
        return response

    # -- health probing ------------------------------------------------------

    async def _probe_loop(self) -> None:
        probe = protocol.Message(type=protocol.HEALTH, request_id=0,
                                 body=protocol.build_health())
        while True:
            await asyncio.gather(*(self._probe_shard(shard, probe)
                                   for shard in self._shards.values()))
            await asyncio.sleep(self.config.probe_interval)

    async def _probe_shard(self, shard: _Shard,
                           probe: protocol.Message) -> None:
        try:
            response = await self._shard_exchange(
                shard, probe, timeout=self.config.probe_timeout)
            draining = (response.type == protocol.OK_HEALTH
                        and protocol.parse_ok_health(response.body).state
                        == protocol.HEALTH_DRAINING)
        except (OSError, ProtocolError, asyncio.TimeoutError):
            self.metrics.record_probe_failure(shard.shard_id)
            self._note_health(shard, ok=False)
            return
        if draining:
            self._note_draining(shard)
        else:
            # An ERROR answer still proves liveness (e.g. a pre-HEALTH
            # peer answering E_BAD_REQUEST); a draining shard answers
            # OK_HEALTH, so anything else framed counts as alive.
            self._note_health(shard, ok=True)

    def _note_health(self, shard: _Shard, ok: bool) -> None:
        before = shard.health.state
        if ok:
            shard.health.record_success()
        else:
            shard.health.record_failure()
        if shard.health.state != before:
            self.metrics.record_shard_state(shard.shard_id,
                                            shard.health.state)

    def _note_draining(self, shard: _Shard) -> None:
        before = shard.health.state
        shard.health.record_draining()
        if shard.health.state != before:
            self.metrics.record_shard_state(shard.shard_id,
                                            shard.health.state)

    def _note_breaker(self, shard: _Shard, ok: bool) -> None:
        before = shard.breaker.state
        if ok:
            shard.breaker.record_success()
        else:
            shard.breaker.record_failure()
        if shard.breaker.state != before:
            self.metrics.record_breaker_state(shard.shard_id,
                                              shard.breaker.state)
            self.metrics.record_breaker_transition(shard.shard_id,
                                                   shard.breaker.state)

    def _breaker_allows(self, shard: _Shard) -> bool:
        before = shard.breaker.state
        allowed = shard.breaker.allow()
        if shard.breaker.state != before:   # open -> half-open
            self.metrics.record_breaker_state(shard.shard_id,
                                              shard.breaker.state)
            self.metrics.record_breaker_transition(shard.shard_id,
                                                   shard.breaker.state)
        return allowed

    # -- the frame loop's hooks ----------------------------------------------

    def _span(self, message: protocol.Message):
        return TRACER.span("cluster.route", type=message.type_name,
                           request_id=message.request_id)

    def _record(self, message: protocol.Message, response: protocol.Message,
                hops: int, seconds: float, frame_bytes: int,
                state: None) -> None:
        self.metrics.record_request(message.type_name, seconds, hops=hops)

    # -- routing -------------------------------------------------------------

    async def _answer(self, message: protocol.Message
                      ) -> Tuple[protocol.Message, int]:
        """Answer one client request; returns ``(response, shard_hops)``."""
        def error(code: int, text: str) -> Tuple[protocol.Message, int]:
            return protocol.error_reply(message, code, text), 0

        if message.type in protocol.OBSERVABILITY_TYPES:
            if message.body:
                return error(protocol.E_BAD_REQUEST,
                             f"{message.type_name} carries no body")
            return self._answer_locally(message), 0
        if message.type == protocol.PUT_CONTAINER:
            return await self._route_put(message)
        if message.type in (protocol.GET_META, protocol.GET_FUNCTION,
                            protocol.GET_BLOCK, protocol.GET_CONTAINER):
            if len(message.body) < protocol.CONTAINER_ID_BYTES:
                return error(protocol.E_BAD_REQUEST,
                             "request body shorter than a container id")
            container_id = \
                message.body[:protocol.CONTAINER_ID_BYTES].hex()
            return await self._route_get(message, container_id)
        if message.type == protocol.GET_DELTA:
            if len(message.body) < 2 * protocol.CONTAINER_ID_BYTES:
                return error(protocol.E_BAD_REQUEST,
                             "GET_DELTA body shorter than two container ids")
            target_id = message.body[:protocol.CONTAINER_ID_BYTES].hex()
            return await self._route_delta(message, target_id)
        return error(protocol.E_BAD_REQUEST,
                     f"unknown request type 0x{message.type:02x}")

    def _answer_locally(self, message: protocol.Message) -> protocol.Message:
        """HEALTH/STATS/GET_METRICS describe the router itself."""
        if message.type == protocol.HEALTH:
            body = self._health_body(protocol.HEALTH_OK,
                                     len(self.live_shards))
            return protocol.Message(type=protocol.OK_HEALTH,
                                    request_id=message.request_id, body=body)
        if message.type == protocol.STATS:
            snapshot = self.metrics.snapshot(shard_states=self.shard_states())
            snapshot["replication"] = self.replication
            snapshot["quorum"] = self.quorum
            snapshot["shard_load"] = dict(sorted(self._served.items()))
            body = protocol.build_ok_stats(
                json.dumps(snapshot, sort_keys=True).encode("utf-8"))
            return protocol.Message(type=protocol.OK_STATS,
                                    request_id=message.request_id, body=body)
        body = protocol.build_ok_metrics(
            self.metrics.expose_text().encode("utf-8"))
        return protocol.Message(type=protocol.OK_METRICS,
                                request_id=message.request_id, body=body)

    def _candidates(self, replicas: List[str]) -> List[_Shard]:
        """Replicas worth attempting right now, in ring order.

        Health filters out shards known dead or draining.  When the
        filter empties the list entirely, fall back to *all* replicas —
        stale health must never turn a recoverable request into
        E_UNAVAILABLE without at least one real attempt.  (The circuit
        breaker is consulted in :meth:`_attempt`, not here, so its
        half-open trial slot is only consumed by an attempt that
        actually happens and reports an outcome.)
        """
        shards = [self._shards[shard_id] for shard_id in replicas]
        routable = [s for s in shards if s.health.routable]
        return routable or shards

    async def _attempt(self, shard: _Shard,
                       message: protocol.Message) -> protocol.Message:
        """One shard attempt; raises :class:`_Unrouteable` for failover."""
        if not self._breaker_allows(shard):
            raise _Unrouteable(f"{shard.shard_id}: circuit breaker open")
        try:
            response = await self._shard_exchange(
                shard, message, timeout=self.config.attempt_timeout)
        except (OSError, ProtocolError, asyncio.TimeoutError) as exc:
            self._note_health(shard, ok=False)
            self._note_breaker(shard, ok=False)
            raise _Unrouteable(f"{shard.shard_id}: {exc}") from exc
        self._note_breaker(shard, ok=True)
        if response.type == protocol.ERROR:
            try:
                code, text = protocol.parse_error(response.body)
            except ProtocolError:
                raise _Unrouteable(
                    f"{shard.shard_id}: unparseable ERROR frame") from None
            if code in protocol.RETRYABLE_ERROR_CODES:
                # The shard is alive but can't serve this now (draining,
                # saturated, deadline); a replica may.  E_UNAVAILABLE
                # from a drain also flips health so probes confirm it.
                if code == protocol.E_UNAVAILABLE:
                    self._note_draining(shard)
                raise _Unrouteable(
                    f"{shard.shard_id}: "
                    f"{protocol.ERROR_NAMES.get(code, code)}: {text}")
        self._served[shard.shard_id] += 1
        return response

    def _backoff(self, round_index: int) -> float:
        ceiling = min(self.config.backoff_max,
                      self.config.backoff_base * (2 ** round_index))
        return self._rng.uniform(0.0, ceiling)

    def _cache_lookup(self, message: protocol.Message
                      ) -> Tuple[Optional[tuple], Optional[protocol.Message]]:
        """Response-cache probe; ``(key, hit)`` with ``key=None`` when
        this request is not cacheable (or the cache is off).

        Bodies are content-addressed — a GET_META/GET_FUNCTION/GET_BLOCK
        request body names an immutable container slice, so a cached
        answer can never be stale; only the request id must be restamped.
        """
        if self._response_cache is None or \
                message.type not in _CACHEABLE_TYPES:
            return None, None
        key = (message.type, bytes(message.body))
        cached = self._response_cache.get(key)
        if cached is None:
            self.metrics.record_cache_miss()
            return key, None
        self.metrics.record_cache_hit()
        response_type, body = cached
        return key, protocol.Message(type=response_type,
                                     request_id=message.request_id,
                                     body=body)

    def _cache_store(self, key: tuple, response: protocol.Message) -> None:
        cache = self._response_cache
        assert cache is not None
        cache.put(key, (response.type, response.body),
                  size=len(response.body) + len(key[1]) + 64)
        stats = cache.stats()
        self.metrics.record_cache_evictions(
            stats.evictions - self._cache_evictions_seen)
        self._cache_evictions_seen = stats.evictions
        self.metrics.record_cache_bytes(stats.current_bytes)

    @staticmethod
    def _error_code(response: protocol.Message) -> int:
        """The code an ERROR answer carries; 0 for any other answer."""
        if response.type != protocol.ERROR:
            return 0
        try:
            return protocol.parse_error(response.body)[0]
        except ProtocolError:
            return 0

    async def _route_get(self, message: protocol.Message, container_id: str
                         ) -> Tuple[protocol.Message, int]:
        cache_key, hit = self._cache_lookup(message)
        if hit is not None:
            return hit, 0
        replicas = self.replicas_for(container_id)
        hops = 0
        last_reason = "no replica attempted"
        not_found: Optional[protocol.Message] = None
        for round_index in range(self.config.route_rounds):
            if round_index:
                self.metrics.record_retry()
                await asyncio.sleep(self._backoff(round_index - 1))
            round_unrouteable = False
            candidates = self._candidates(replicas)
            # health probes may have already excluded a down replica
            every_replica_attempted = len(candidates) == len(replicas)
            for shard in candidates:
                hops += 1
                try:
                    response = await self._attempt(shard, message)
                except _Unrouteable as exc:
                    last_reason = str(exc)
                    round_unrouteable = True
                    continue
                if self._error_code(response) == protocol.E_NOT_FOUND:
                    # a replica that missed the PUT (down at the time,
                    # restarted since) lacks the key; another may hold it
                    not_found = response
                    last_reason = f"{shard.shard_id}: E_NOT_FOUND"
                    continue
                if shard.shard_id != replicas[0]:
                    # served by a non-primary replica — whether we tried
                    # the primary and failed, or probes already marked it
                    # unroutable, this request failed over
                    self.metrics.record_failover(shard.shard_id)
                if cache_key is not None and \
                        response.type != protocol.ERROR:
                    self._cache_store(cache_key, response)
                return response, hops
            if not_found is not None and not round_unrouteable \
                    and every_replica_attempted:
                # Every replica answered and none holds it: a genuine
                # miss.  With any replica dead or unreachable the answer
                # stays E_UNAVAILABLE — the key may well live on the
                # replica we could not ask.
                return not_found, hops
        self.metrics.record_unavailable()
        return protocol.error_reply(
            message, protocol.E_UNAVAILABLE,
            f"no live replica for {container_id[:12]}… "
            f"(replicas {', '.join(replicas)}; last: {last_reason})"), hops

    async def _route_delta(self, message: protocol.Message, target_id: str
                           ) -> Tuple[protocol.Message, int]:
        """Route GET_DELTA across the target's replicas.

        Placement is by *target* id (that is where the patch can be
        synthesized), but replicas may disagree about holding the
        *base*: an ``E_NO_BASE`` answer fails over to the next replica,
        which may hold both containers.  Only when a full round of live
        replicas answers ``E_NO_BASE`` is it returned to the client —
        the definitive "fall back to a full transfer" signal.
        """
        replicas = self.replicas_for(target_id)
        hops = 0
        last_reason = "no replica attempted"
        for round_index in range(self.config.route_rounds):
            if round_index:
                self.metrics.record_retry()
                await asyncio.sleep(self._backoff(round_index - 1))
            no_base: Optional[protocol.Message] = None
            for shard in self._candidates(replicas):
                hops += 1
                try:
                    response = await self._attempt(shard, message)
                except _Unrouteable as exc:
                    last_reason = str(exc)
                    continue
                if self._error_code(response) == protocol.E_NO_BASE:
                    no_base = response
                    last_reason = f"{shard.shard_id}: E_NO_BASE"
                    self.metrics.record_failover(shard.shard_id)
                    continue
                if shard.shard_id != replicas[0]:
                    self.metrics.record_failover(shard.shard_id)
                return response, hops
            if no_base is not None:
                return no_base, hops
        self.metrics.record_unavailable()
        return protocol.error_reply(
            message, protocol.E_UNAVAILABLE,
            f"no live replica for {target_id[:12]}… "
            f"(replicas {', '.join(replicas)}; last: {last_reason})"), hops

    async def _route_put(self, message: protocol.Message
                         ) -> Tuple[protocol.Message, int]:
        try:
            data = protocol.parse_put(message.body)
        except (ProtocolError, ReproError, ValueError) as exc:
            return protocol.error_reply(message, protocol.E_BAD_REQUEST,
                                        str(exc)), 0
        container_id = container_id_of(data)
        replicas = self.replicas_for(container_id)
        hops = 0
        success: Optional[protocol.Message] = None
        definitive: Optional[protocol.Message] = None
        failed: List[str] = []
        for round_index in range(self.config.route_rounds):
            if round_index:
                if not failed:
                    break
                self.metrics.record_retry()
                await asyncio.sleep(self._backoff(round_index - 1))
            pending = failed if round_index else list(replicas)
            failed = []
            for shard_id in pending:
                shard = self._shards[shard_id]
                hops += 1
                try:
                    response = await self._attempt(shard, message)
                except _Unrouteable:
                    if hops > 1:
                        self.metrics.record_failover(shard_id)
                    failed.append(shard_id)
                    continue
                if response.type == protocol.ERROR:
                    # definitive (non-retryable) shard verdict, e.g.
                    # E_CORRUPT from verify-gated admission
                    definitive = response
                else:
                    success = response
            if definitive is not None or (success is not None and not failed):
                break
        if definitive is not None:
            return definitive, hops
        if success is not None:
            # At least one replica admitted the container; stragglers
            # will be re-replicated by a future PUT replay (puts are
            # idempotent: the store is content-addressed).
            return success, hops
        self.metrics.record_unavailable()
        return protocol.error_reply(
            message, protocol.E_UNAVAILABLE,
            f"no replica of {container_id[:12]}… accepted the "
            f"container (replicas {', '.join(replicas)})"), hops


def router_in_thread(shards: Dict[str, Tuple[str, int]],
                     config: Optional[RouterConfig] = None,
                     startup_timeout: float = 10.0) -> ServeHandle:
    """Start a :class:`ClusterRouter` on a background thread
    (see :func:`~repro.serve.service.run_in_thread`)."""
    return run_in_thread(ClusterRouter(shards, config=config), startup_timeout)


__all__ = [
    "ClusterRouter",
    "DEFAULT_ATTEMPT_TIMEOUT",
    "DEFAULT_PROBE_INTERVAL",
    "DEFAULT_PROBE_TIMEOUT",
    "DEFAULT_ROUTE_ROUNDS",
    "RouterConfig",
    "router_in_thread",
]
