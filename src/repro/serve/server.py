"""The async SSD code server.

One asyncio event loop multiplexes many client connections; CPU-bound
decode work (verify-gated admission, phase-one dictionary decompression,
per-function item expansion) runs on worker threads via
``asyncio.to_thread`` so the loop keeps serving frames.  Three mechanisms
keep it healthy under load:

* **Request coalescing** — concurrent misses for the same
  ``(container, function)`` share one in-flight decode future; a
  container's functions are decoded at most once while hot (the
  ``STATS`` decode counters prove it).
* **Bounded concurrency with backpressure** — an asyncio semaphore caps
  simultaneous decode threads; requests beyond ``max_queue_depth``
  waiters are refused with ``E_BUSY`` instead of queueing unboundedly.
* **Per-request deadlines** — a request that exceeds
  ``request_timeout`` answers with ``E_TIMEOUT``; the connection (and
  the event loop) survive.

Every failure mode maps onto a protocol ERROR frame via the
``repro.errors`` taxonomy; only a lost frame boundary (bad CRC,
oversized frame) closes the connection, since framing cannot be
recovered.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from ..core import SSDReader, container_version, open_container
from ..errors import (
    ChecksumMismatch,
    CorruptContainer,
    LimitExceeded,
    NoBaseError,
    ProtocolError,
    ReproError,
    TruncatedStream,
    UnavailableError,
)
from ..obs import TRACER
from ..profile.markov import MarkovPredictor
from . import protocol
from .cache import DEFAULT_CACHE_BYTES, GhostListAdmission, SharedLRUCache
from .metrics import ServerMetrics
from .service import FrameService, ServeHandle, run_in_thread
from .store import AdmissionError, ContainerStore, container_id_of

#: default ceiling on simultaneous decode threads
DEFAULT_MAX_CONCURRENCY = 8
#: default ceiling on decode requests waiting for a thread slot
DEFAULT_MAX_QUEUE_DEPTH = 64
#: default per-request deadline (seconds)
DEFAULT_REQUEST_TIMEOUT = 30.0
#: default ceiling on how long a drain waits for in-flight work
DEFAULT_DRAIN_TIMEOUT = 10.0
#: bound on the server prefetcher's markov state table — states are
#: ``(container_id, findex)`` pairs, so this must comfortably exceed the
#: function count of the largest expected container (word97 @ 1.0 is
#: ~5k functions); ~200 bytes/state puts the worst case near 13 MB
PREFETCHER_MAX_STATES = 65_536


@dataclass
class ServerConfig:
    """Tunables for one :class:`SSDServer`."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral; read .port after start
    max_concurrency: int = DEFAULT_MAX_CONCURRENCY
    max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT
    max_frame: int = protocol.MAX_FRAME_BYTES
    cache_bytes: int = DEFAULT_CACHE_BYTES
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT
    #: predicted successors to background-decode after each GET_FUNCTION
    #: (0 disables the markov prefetcher)
    prefetch_depth: int = 0
    #: screen eviction-forcing cache inserts through a ghost-list
    #: frequency filter (GhostListAdmission) instead of always admitting
    cache_admission: bool = False


def _error_code_for(exc: ReproError) -> int:
    """Map a taxonomy exception onto a wire error code."""
    if isinstance(exc, AdmissionError):
        return protocol.E_CORRUPT
    if isinstance(exc, NoBaseError):
        return protocol.E_NO_BASE
    if isinstance(exc, UnavailableError):
        return protocol.E_UNAVAILABLE
    if isinstance(exc, LimitExceeded):
        return protocol.E_LIMIT
    if isinstance(exc, (ChecksumMismatch, TruncatedStream, CorruptContainer)):
        return protocol.E_CORRUPT
    if isinstance(exc, ProtocolError):
        return protocol.E_BAD_REQUEST
    return protocol.E_INTERNAL


class SSDServer(FrameService):
    """Asyncio server paging compressed functions out of a container store."""

    def __init__(self, store: Optional[ContainerStore] = None,
                 config: Optional[ServerConfig] = None,
                 cache: Optional[SharedLRUCache] = None,
                 metrics: Optional[ServerMetrics] = None) -> None:
        super().__init__(config or ServerConfig(), metrics or ServerMetrics())
        self.store = store if store is not None else ContainerStore()
        self.cache = cache or SharedLRUCache(
            self.config.cache_bytes,
            policy=GhostListAdmission() if self.config.cache_admission
            else None)
        #: markov next-function predictor, learning from the request
        #: stream and seeded from container profile hints; None when
        #: prefetch is disabled
        # Sized well past the per-client default: server states are
        # (container_id, findex) pairs across every admitted container,
        # and a single word97-scale container already has ~5k functions
        # — the default 4096-state table would evict hint-seeded states
        # before the first replay reaches them.
        self.prefetcher: Optional[MarkovPredictor] = (
            MarkovPredictor(max_states=PREFETCHER_MAX_STATES)
            if self.config.prefetch_depth > 0 else None)
        #: container ids whose profile hints already seeded the predictor
        self._seeded: Set[str] = set()
        self._seeded_lock = threading.Lock()
        #: cache keys inserted by prefetch and not yet hit (loop-only)
        self._prefetched: Set[Tuple] = set()
        self._prefetch_tasks: Set[asyncio.Task] = set()
        # In-flight decode futures, keyed by cache key.  Only ever touched
        # from the event loop, so no lock is needed.
        self._inflight: Dict[Tuple, asyncio.Future] = {}
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._waiting = 0
        #: set once drain() starts; new decode/put work answers
        #: E_UNAVAILABLE while observability ops keep answering
        self._draining = False
        #: chaos/test hook called thread-side before every decode with
        #: (container_id, findex); raising or sleeping here models a
        #: sick shard (see repro.faults.chaos)
        self.decode_hook: Optional[Callable[[str, int], None]] = None
        #: request type -> handler, answering a request body with
        #: (response type, response body)
        self._handlers = {
            protocol.PUT_CONTAINER: self._handle_put,
            protocol.GET_META: self._handle_get_meta,
            protocol.GET_FUNCTION: self._handle_get_function,
            protocol.GET_BLOCK: self._handle_get_block,
            protocol.STATS: self._handle_stats,
            protocol.GET_METRICS: self._handle_get_metrics,
            protocol.HEALTH: self._handle_health,
            protocol.GET_CONTAINER: self._handle_get_container,
            protocol.GET_DELTA: self._handle_get_delta,
        }

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight_count(self) -> int:
        """Requests being dispatched plus shared decode tasks in flight."""
        return self._active_requests + len(self._inflight)

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> asyncio.AbstractServer:
        self._semaphore = asyncio.Semaphore(self.config.max_concurrency)
        return await super().start()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Gracefully wind the server down (the SIGTERM path).

        Stops accepting connections, lets in-flight decodes finish (a
        coalesced decode completes for every follower still waiting),
        answers any *new* decode/put frame with ``E_UNAVAILABLE`` so a
        router re-routes, then closes.  Returns ``True`` when all
        in-flight work completed inside ``timeout``
        (``config.drain_timeout`` by default).
        """
        self._draining = True
        await self._close_listener()
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else self.config.drain_timeout)
        while self.inflight_count and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        drained = not self.inflight_count
        await self.stop()
        return drained

    # -- the frame loop's hooks ----------------------------------------------

    def _span(self, message: protocol.Message):
        return TRACER.span("serve.request", type=message.type_name,
                           request_id=message.request_id,
                           bytes_in=len(message.body))

    def _opened(self) -> Dict[str, Tuple[str, int]]:
        self.metrics.record_connection(opened=True)
        return {}   # "prev": the connection's last GET_FUNCTION target

    def _closed(self, state: Dict[str, Tuple[str, int]]) -> None:
        self.metrics.record_connection(opened=False)

    def _framing_lost(self) -> None:
        self.metrics.record_protocol_failure()

    def _record(self, message: protocol.Message, response: protocol.Message,
                hops: int, seconds: float, frame_bytes: int,
                state: Dict[str, Tuple[str, int]]) -> None:
        self.metrics.record_request(message.type_name, seconds,
                                    bytes_in=len(message.body),
                                    bytes_out=frame_bytes)
        if (self.prefetcher is not None
                and message.type == protocol.GET_FUNCTION
                and response.type == protocol.OK_FUNCTION):
            try:
                current = protocol.parse_get_function(message.body)
            except ReproError:
                return
            # Transitions are learned per connection, so interleaved
            # clients don't teach the predictor noise.  Prefetch itself
            # is kicked from _function_body, and only on demand misses
            # and prefetch hits: a warm LRU hit costs the predictor
            # nothing.
            prev = state.get("prev")
            if prev is not None:
                self.prefetcher.observe(prev, current)
            state["prev"] = current

    # -- dispatch ------------------------------------------------------------

    async def _answer(self, message: protocol.Message
                      ) -> Tuple[protocol.Message, int]:
        """Turn one request into one response; never raises.  A shard
        answers everything itself, so it reports no hops."""
        def error(code: int, text: str) -> Tuple[protocol.Message, int]:
            return protocol.error_reply(message, code, text), 0

        handler = self._handlers.get(message.type)
        if handler is None:
            return error(protocol.E_BAD_REQUEST,
                         f"unknown request type 0x{message.type:02x}")
        if message.type in protocol.OBSERVABILITY_TYPES:
            if message.body:
                return error(protocol.E_BAD_REQUEST,
                             f"{message.type_name} carries no body")
        elif self._draining:
            # Refuse new decode/put work so a router re-routes; the
            # observability surface keeps answering during the drain.
            return error(protocol.E_UNAVAILABLE,
                         "server is draining; route elsewhere")
        try:
            body_type, body = await asyncio.wait_for(
                handler(message.body), timeout=self.config.request_timeout)
        except asyncio.TimeoutError:
            self.metrics.record_timeout()
            return error(protocol.E_TIMEOUT,
                         f"request exceeded the "
                         f"{self.config.request_timeout:g}s deadline")
        except KeyError as exc:
            return error(protocol.E_NOT_FOUND, str(exc.args[0]) if exc.args
                         else "not found")
        except IndexError as exc:
            return error(protocol.E_NOT_FOUND, str(exc))
        except _Busy:
            return error(protocol.E_BUSY,
                         "server is saturated; retry with backoff")
        except ReproError as exc:
            return error(_error_code_for(exc), str(exc))
        except Exception as exc:  # noqa: BLE001 - must answer, not crash
            return error(protocol.E_INTERNAL,
                         f"{type(exc).__name__}: {exc}")
        return protocol.Message(type=body_type,
                                request_id=message.request_id, body=body), 0

    # -- decode plumbing -----------------------------------------------------

    async def _run_decode(self, fn, *args):
        """Run CPU-bound work on a thread, under the concurrency cap."""
        if self._waiting >= self.config.max_queue_depth:
            raise _Busy()
        self._waiting += 1
        try:
            async with self._semaphore:
                return await asyncio.to_thread(fn, *args)
        finally:
            self._waiting -= 1

    async def _coalesced(self, key: Tuple, fn, *args):
        """Share one in-flight decode among concurrent identical requests.

        The decode runs as its *own* task, so a requester hitting its
        per-request deadline cancels only its own wait (``shield``), not
        the shared work — late followers still get the result, and a
        timed-out decode is never re-queued by its own followers.
        """
        task = self._inflight.get(key)
        if task is None:
            task = asyncio.get_running_loop().create_task(
                self._run_decode(fn, *args))

            def _finished(done: "asyncio.Task") -> None:
                self._inflight.pop(key, None)
                if not done.cancelled():
                    done.exception()  # consume, so no unretrieved warning

            task.add_done_callback(_finished)
            self._inflight[key] = task
        else:
            self.metrics.record_coalesced()
            follower = TRACER.current()
            if follower is not None:
                follower.set_attr("coalesced", True)
        return await asyncio.shield(task)

    def _require(self, container_id: str) -> None:
        """An unknown id answers E_NOT_FOUND before taking a decode slot."""
        if container_id not in self.store:
            raise KeyError(f"unknown container {container_id}")

    def _reader_for(self, container_id: str) -> SSDReader:
        """Synchronous (thread-side) reader lookup/decode, LRU-cached."""
        key = ("reader", container_id)
        reader = self.cache.get(key)
        if reader is None:
            data = self.store.get(container_id)   # KeyError -> E_NOT_FOUND
            reader = open_container(data, limits=self.store.limits)
            # Charge the container's size as the proxy for its decoded
            # dictionary state (layouts scale with the dictionary blobs).
            self.cache.put(key, reader, size=len(data))
        self._seed_hints(container_id, reader)
        return reader

    def _seed_hints(self, container_id: str, reader: SSDReader) -> None:
        """Seed the prefetcher from the container's profile hints (once).

        Hints carry in-container successor edges; mapping them onto
        ``(container_id, findex)`` states means the very first replay of
        a profiled workload already predicts, before the request stream
        has taught the markov table anything.
        """
        if self.prefetcher is None:
            return
        with self._seeded_lock:
            if container_id in self._seeded:
                return
            self._seeded.add(container_id)
        hints = reader.profile_hints
        if hints is None:
            return
        self.prefetcher.seed(
            ((container_id, src), (container_id, dst), weight)
            for src, dst, weight in hints.edges)
        hot = list(hints.hot)
        self.prefetcher.seed(
            ((container_id, hot[i]), (container_id, hot[i + 1]), 1)
            for i in range(len(hot) - 1))

    def _decode_function(self, container_id: str, findex: int) -> bytes:
        """Thread-side: decode one function to its OK_FUNCTION body.

        Caches its own result so the work lands in the LRU even when
        every requester has already timed out.
        """
        started = time.perf_counter()
        if self.decode_hook is not None:
            self.decode_hook(container_id, findex)
        with TRACER.span("serve.decode", container=container_id,
                         findex=findex):
            reader = self._reader_for(container_id)
            if not 0 <= findex < reader.function_count:
                raise IndexError(f"function index {findex} out of range "
                                 f"(container has {reader.function_count})")
            function = reader.function(findex)
            self.metrics.record_decode(container_id, findex,
                                       seconds=time.perf_counter() - started)
            body = protocol.build_ok_function(findex, function.name,
                                              function.insns)
            self.cache.put(("func", container_id, findex), body,
                           size=len(body))
        return body

    async def _function_body(self, container_id: str, findex: int) -> bytes:
        """Cache -> coalesce -> decode; returns the OK_FUNCTION body."""
        key = ("func", container_id, findex)
        cached = self.cache.get(key)
        if cached is not None:
            if key in self._prefetched:
                self._prefetched.discard(key)
                self.metrics.record_prefetch_hit()
                # A prefetch hit means the client is walking a predicted
                # run — keep the frontier ahead of it.
                self._kick_prefetch((container_id, findex))
            return cached
        self._require(container_id)
        body = await self._coalesced(key, self._decode_function,
                                     container_id, findex)
        # A demand miss is where prediction pays; plain warm hits skip
        # the predictor entirely so the steady state stays zero-overhead.
        self._kick_prefetch((container_id, findex))
        return body

    # -- predictive prefetch -------------------------------------------------

    def _kick_prefetch(self, state: Tuple[str, int]) -> None:
        """Schedule a background prefetch of ``state``'s successors."""
        if self.prefetcher is None or self._draining:
            return
        task = asyncio.get_running_loop().create_task(
            self._prefetch_successors(state))
        self._prefetch_tasks.add(task)
        task.add_done_callback(self._prefetch_tasks.discard)

    async def _prefetch_successors(self, state: Tuple[str, int]) -> None:
        """Background-decode the predicted next functions.

        Polite by construction: skips anything cached or in flight,
        stays away when the decode queue is half full, and stops during
        a drain.  Failures (unknown container, bad index, saturation)
        are swallowed — prefetch must never surface an error a client
        didn't ask for.
        """
        assert self.prefetcher is not None
        if self.cache.policy is not None and self.cache.near_capacity:
            # A guarded cache under eviction pressure would refuse the
            # speculative inserts anyway — don't decode bodies just to
            # be turned away at the door.  Admission alone carries the
            # thrash case; prefetch re-engages when pressure lifts.
            return
        # Breadth first for accuracy (the likely immediate successors),
        # then the transitive chain for lead time — by the time the
        # client walks one prediction deep, the chain is already warm.
        predicted = self.prefetcher.predict(state, self.config.prefetch_depth)
        for nxt in self.prefetcher.predict_chain(state,
                                                 self.config.prefetch_depth):
            if nxt not in predicted:
                predicted.append(nxt)
        for nxt in predicted:
            if self._draining:
                return
            if self._waiting >= max(1, self.config.max_queue_depth // 2):
                return
            key = ("func", *nxt)
            if key in self.cache or key in self._inflight:
                continue
            if key in self._prefetched:
                # Already speculatively decoded and still unconsumed
                # (or refused by admission moments ago) — don't decode
                # the same body again.
                continue
            self.metrics.record_prefetch_issued()
            # Mark before decoding: the decode thread inserts into the
            # cache, and the foreground request may hit that entry
            # before this task resumes.
            self._prefetched.add(key)
            try:
                await self._coalesced(key, self._decode_function, *nxt)
            except (_Busy, ReproError, KeyError, IndexError):
                self._prefetched.discard(key)
                continue
            if len(self._prefetched) > 1024:
                self._prefetched = {k for k in self._prefetched
                                    if k in self.cache}

    # -- request handlers ----------------------------------------------------

    async def _handle_put(self, body: bytes) -> Tuple[int, bytes]:
        data = protocol.parse_put(body)
        container_id, reader = await self._coalesced(
            ("put", container_id_of(data)), self.store.put, data)
        if reader is None:
            # Bytes the store already holds: keep the cached reader (and
            # its decoded functions) instead of opening them again.
            reader = await self._coalesced(("reader", container_id),
                                           self._reader_for, container_id)
        else:
            self.cache.put(("reader", container_id), reader, size=len(data))
            self._seed_hints(container_id, reader)
        return protocol.OK_PUT, protocol.build_ok_put(
            container_id, reader.function_count, reader.entry)

    async def _handle_get_meta(self, body: bytes) -> Tuple[int, bytes]:
        container_id = protocol.parse_get_meta(body)
        self._require(container_id)
        reader = await self._coalesced(("reader", container_id),
                                       self._reader_for, container_id)
        data = self.store.get(container_id)
        return protocol.OK_META, protocol.build_ok_meta(
            reader.program_name, reader.entry,
            list(reader.function_names),
            container_version=container_version(data))

    async def _handle_get_container(self, body: bytes) -> Tuple[int, bytes]:
        container_id = protocol.parse_get_container(body)
        data = self.store.get(container_id)   # KeyError -> E_NOT_FOUND
        return protocol.OK_CONTAINER, protocol.build_ok_container(data)

    async def _handle_get_delta(self, body: bytes) -> Tuple[int, bytes]:
        target_id, base_id = protocol.parse_get_delta(body)
        try:
            patch = await self._coalesced(
                ("delta", base_id, target_id),
                self.store.make_delta, base_id, target_id)
        except NoBaseError:
            self.metrics.record_delta_no_base()
            raise
        self.metrics.record_delta(len(patch),
                                  len(self.store.get(target_id)))
        return protocol.OK_DELTA, protocol.build_ok_delta(patch)

    async def _handle_get_function(self, body: bytes) -> Tuple[int, bytes]:
        container_id, findex = protocol.parse_get_function(body)
        return protocol.OK_FUNCTION, await self._function_body(
            container_id, findex)

    async def _handle_get_block(self, body: bytes) -> Tuple[int, bytes]:
        container_id, findex, start, count = protocol.parse_get_block(body)
        if count == 0:
            raise ProtocolError("GET_BLOCK count must be positive")
        function_body = await self._function_body(container_id, findex)
        function = protocol.parse_ok_function(function_body)
        total = len(function.insns)
        if start >= total:
            raise IndexError(f"block start {start} out of range "
                             f"(function has {total} instructions)")
        insns = function.insns[start:start + count]
        return protocol.OK_BLOCK, protocol.build_ok_block(
            findex, start, total, insns)

    async def _handle_stats(self, body: bytes) -> Tuple[int, bytes]:
        snapshot = self.metrics.snapshot(
            cache_stats=self.cache.stats().as_dict(),
            store_stats=self.store.stats(),
            admission_stats=self.cache.policy_stats())
        return protocol.OK_STATS, protocol.build_ok_stats(
            json.dumps(snapshot, sort_keys=True).encode("utf-8"))

    async def _handle_get_metrics(self, body: bytes) -> Tuple[int, bytes]:
        exposition = self.metrics.expose_text()
        return protocol.OK_METRICS, protocol.build_ok_metrics(
            exposition.encode("utf-8"))

    async def _handle_health(self, body: bytes) -> Tuple[int, bytes]:
        state = (protocol.HEALTH_DRAINING if self._draining
                 else protocol.HEALTH_OK)
        return protocol.OK_HEALTH, self._health_body(state, len(self.store))


class _Busy(Exception):
    """Internal: queue depth exceeded; mapped to E_BUSY."""


def serve_in_thread(store: Optional[ContainerStore] = None,
                    config: Optional[ServerConfig] = None,
                    server: Optional[SSDServer] = None,
                    startup_timeout: float = 10.0) -> ServeHandle:
    """Start an :class:`SSDServer` on a background thread and wait for it
    (see :func:`~repro.serve.service.run_in_thread`)."""
    return run_in_thread(server or SSDServer(store=store, config=config),
                         startup_timeout)


__all__ = [
    "DEFAULT_DRAIN_TIMEOUT",
    "DEFAULT_MAX_CONCURRENCY",
    "DEFAULT_MAX_QUEUE_DEPTH",
    "DEFAULT_REQUEST_TIMEOUT",
    "SSDServer",
    "ServerConfig",
    "serve_in_thread",
]
