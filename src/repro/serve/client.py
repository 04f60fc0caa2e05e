"""Synchronous client for the SSD code server, plus :class:`RemoteProgram`.

:class:`ServeClient` is a one-connection blocking client: each request
writes one frame and reads one response frame (the server pipelines
across connections, not within one).  Server-reported failures raise
:class:`repro.errors.RemoteError` with the wire error code; transport
and framing failures raise :class:`repro.errors.ProtocolError` or the
underlying ``OSError``.

Two robustness layers sit between a request and the socket:

* **Per-op deadlines** (:class:`OpDeadlines`) — a ``STATS`` probe should
  give up in seconds while a large ``PUT_CONTAINER`` may take tens; the
  old single 30 s timeout treated both the same.
* **Opt-in retries** (:class:`RetryPolicy`) — ``retries=N`` retries
  idempotent requests on ``E_BUSY``/``E_TIMEOUT``/``E_UNAVAILABLE``
  error frames and on transport failures (connection reset, timeout,
  lost framing), reconnecting first and sleeping exponential backoff
  with full jitter between attempts.  ``PUT_CONTAINER`` is retried too:
  the store is content-addressed, so re-putting identical bytes is a
  no-op server-side.

:class:`RemoteProgram` is a :class:`repro.core.lazy.LazyProgram` whose
source is the server: it duck-types a :class:`~repro.isa.Program` for the
interpreter while paging functions from the server on first call — run a
container you never downloaded::

    with ServeClient(host, port, retries=3) as client:
        program = RemoteProgram(client, container_id)
        result = run_program(program)
        program.decompressed_count     # functions actually fetched

When the connection drops *between* function pages (a shard died, a
router failed over), ``RemoteProgram`` reconnects and resumes instead of
leaking the dead socket: already-fetched functions stay cached, only
the in-flight page is re-requested.
"""

from __future__ import annotations

import hashlib
import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Tuple, Union

from ..core.lazy import LazyProgram
from ..errors import ProtocolError, RemoteError, UnavailableError
from ..isa import Function, Instruction
from . import protocol

#: legacy single client-side socket timeout (seconds); still accepted as
#: ``ServeClient(..., timeout=...)`` and applied uniformly to every op
DEFAULT_TIMEOUT = 30.0


@dataclass(frozen=True)
class OpDeadlines:
    """Per-operation socket deadlines (seconds).

    Replaces the old one-size-fits-all ``DEFAULT_TIMEOUT``: an upload of
    a multi-megabyte container legitimately takes longer than a health
    probe should ever be allowed to block a failover decision.
    """

    connect: float = 5.0
    put: float = 30.0
    meta: float = 10.0
    function: float = 15.0
    block: float = 15.0
    stats: float = 10.0
    metrics: float = 10.0
    health: float = 2.0
    container: float = 30.0
    delta: float = 30.0

    def for_op(self, op: str) -> float:
        return float(getattr(self, op))

    @classmethod
    def uniform(cls, timeout: float) -> "OpDeadlines":
        """Every op under one deadline (the legacy ``timeout=`` shape)."""
        return cls(connect=timeout, put=timeout, meta=timeout,
                   function=timeout, block=timeout, stats=timeout,
                   metrics=timeout, health=min(timeout, 2.0),
                   container=timeout, delta=timeout)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter for idempotent requests.

    ``delay(attempt)`` draws uniformly from ``[0, min(max_delay,
    base_delay * 2**attempt)]`` — "full jitter", which decorrelates a
    thundering herd of clients retrying a recovering shard.  ``seed``
    pins the jitter for deterministic tests; production callers leave it
    ``None``.
    """

    retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    retry_codes: frozenset = protocol.RETRYABLE_ERROR_CODES
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be non-negative")

    def delay(self, attempt: int,
              rng: Optional[random.Random] = None) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        ceiling = min(self.max_delay, self.base_delay * (2 ** attempt))
        return (rng or random).uniform(0.0, ceiling)

    def should_retry_code(self, code: int) -> bool:
        return code in self.retry_codes


#: policy meaning "never retry" (the default, matching historical behavior)
NO_RETRY = RetryPolicy(retries=0)


@dataclass(frozen=True)
class ContainerMeta:
    """What GET_META returns: enough to build a RemoteProgram."""

    container_id: str
    program_name: str
    entry: int
    function_names: List[str] = field(default_factory=list)
    #: container format version of the stored bytes (1 or 2)
    container_version: int = 2

    @property
    def function_count(self) -> int:
        return len(self.function_names)


class ServeClient:
    """Blocking request/response client over one TCP connection."""

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = None,
                 max_frame: int = protocol.MAX_FRAME_BYTES,
                 deadlines: Optional[OpDeadlines] = None,
                 retries: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 fallback: Optional[List[Tuple[str, int]]] = None) -> None:
        if deadlines is None:
            deadlines = (OpDeadlines.uniform(timeout) if timeout is not None
                         else OpDeadlines())
        if retry_policy is None:
            retry_policy = (replace(NO_RETRY, retries=retries)
                            if retries else NO_RETRY)
        elif retries is not None and retries != retry_policy.retries:
            retry_policy = replace(retry_policy, retries=retries)
        self.host = host
        self.port = port
        # Every address the service answers on (multi-router clusters);
        # connects rotate through them, so one dead front-end costs a
        # reconnect, not the client.
        self._addresses: List[Tuple[str, int]] = [(host, port)]
        for address in fallback or []:
            if tuple(address) not in self._addresses:
                self._addresses.append(tuple(address))
        self._address_index = 0
        self.max_frame = max_frame
        self.deadlines = deadlines
        self.retry_policy = retry_policy
        #: attempts beyond the first, across the client's lifetime
        self.retry_count = 0
        #: successful reconnects across the client's lifetime
        self.reconnect_count = 0
        self._rng = random.Random(retry_policy.seed)
        self._next_request_id = 1
        # One request/response exchange at a time per connection; the
        # RLock lets many threads share a client (RemoteProgram under a
        # threaded interpreter host, the load tests) and lets the retry
        # loop reconnect while already holding it.
        self._lock = threading.RLock()
        self._sock: Optional[socket.socket] = None
        self._stream = None
        self._connect()

    # -- connection management ----------------------------------------------

    def _connect(self) -> None:
        last_exc: Optional[OSError] = None
        for offset in range(len(self._addresses)):
            index = (self._address_index + offset) % len(self._addresses)
            host, port = self._addresses[index]
            try:
                sock = socket.create_connection(
                    (host, port), timeout=self.deadlines.connect)
            except OSError as exc:
                last_exc = exc
                continue
            self._sock = sock
            self._stream = sock.makefile("rwb")
            self._address_index = index
            self.host, self.port = host, port
            return
        assert last_exc is not None
        raise last_exc

    def _close_socket(self) -> None:
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
            self._stream = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def reconnect(self) -> None:
        """Drop the current connection and dial a fresh one.

        Safe to call on a dead socket; raises ``OSError`` only when the
        new connection cannot be established.
        """
        with self._lock:
            self._close_socket()
            self._connect()
            self.reconnect_count += 1

    # -- plumbing -----------------------------------------------------------

    def _exchange(self, mtype: int, body: bytes,
                  deadline: float) -> protocol.Message:
        """One framed request/response over the live connection."""
        if self._sock is None or self._stream is None:
            raise ProtocolError("client is closed")
        request_id = self._next_request_id
        self._next_request_id += 1
        self._sock.settimeout(deadline)
        frame = protocol.encode_frame(protocol.Message(
            type=mtype, request_id=request_id, body=body))
        self._stream.write(frame)
        self._stream.flush()
        response = protocol.read_frame(self._stream, self.max_frame)
        if response is None:
            raise ProtocolError("server closed the connection mid-request")
        if response.request_id != request_id:
            raise ProtocolError(
                f"response id {response.request_id} does not match "
                f"request id {request_id}")
        if response.type == protocol.ERROR:
            code, message = protocol.parse_error(response.body)
            raise RemoteError(message, code=code,
                              code_name=protocol.ERROR_NAMES.get(code, ""))
        return response

    def _request(self, mtype: int, body: bytes,
                 op: str = "function",
                 idempotent: bool = True) -> protocol.Message:
        """Retry-aware exchange under the per-op deadline.

        Retries only idempotent requests, and only on retryable error
        frames (``E_BUSY``/``E_TIMEOUT``/``E_UNAVAILABLE``) or transport
        failures — a transport failure reconnects first, since the old
        connection's framing is unrecoverable.
        """
        policy = self.retry_policy
        attempts = policy.retries + 1 if idempotent else 1
        deadline = self.deadlines.for_op(op)
        last_exc: Optional[BaseException] = None
        with self._lock:
            for attempt in range(attempts):
                if attempt:
                    time.sleep(policy.delay(attempt - 1, self._rng))
                    self.retry_count += 1
                try:
                    return self._exchange(mtype, body, deadline)
                except RemoteError as exc:
                    if (attempt + 1 < attempts
                            and policy.should_retry_code(exc.code)):
                        last_exc = exc
                        continue
                    raise
                except (ProtocolError, OSError) as exc:
                    last_exc = exc
                    if attempts == 1:
                        raise
                    # The connection is gone or its framing is lost;
                    # a fresh dial is a precondition for any retry.
                    try:
                        self.reconnect()
                    except OSError as reconnect_exc:
                        last_exc = reconnect_exc
        assert last_exc is not None
        raise UnavailableError(
            f"{protocol.TYPE_NAMES.get(mtype, mtype)} to "
            f"{self.host}:{self.port} kept failing: {last_exc}",
            attempts=attempts) from last_exc

    def _expect(self, mtype: int, body: bytes, expected: int,
                op: str = "function",
                idempotent: bool = True) -> protocol.Message:
        response = self._request(mtype, body, op=op, idempotent=idempotent)
        if response.type != expected:
            raise ProtocolError(
                f"expected {protocol.TYPE_NAMES[expected]}, "
                f"server sent {response.type_name}")
        return response

    # -- the request surface -------------------------------------------------

    def put(self, container: bytes) -> Tuple[str, int, int]:
        """Upload a container; returns ``(container_id, function_count, entry)``.

        Idempotent despite being a write: the store is content-addressed,
        so a retried PUT of the same bytes lands on the same id.
        """
        response = self._expect(protocol.PUT_CONTAINER,
                                protocol.build_put(container),
                                protocol.OK_PUT, op="put")
        return protocol.parse_ok_put(response.body)

    def meta(self, container_id: str) -> ContainerMeta:
        response = self._expect(protocol.GET_META,
                                protocol.build_get_meta(container_id),
                                protocol.OK_META, op="meta")
        name, entry, function_names, container_version = \
            protocol.parse_ok_meta(response.body)
        return ContainerMeta(container_id=container_id, program_name=name,
                             entry=entry, function_names=function_names,
                             container_version=container_version)

    def function(self, container_id: str, findex: int) -> Function:
        """Fetch one fully-decoded function."""
        response = self._expect(
            protocol.GET_FUNCTION,
            protocol.build_get_function(container_id, findex),
            protocol.OK_FUNCTION, op="function")
        return protocol.parse_ok_function(response.body)

    def block(self, container_id: str, findex: int, start: int,
              count: int) -> Tuple[int, List[Instruction]]:
        """Fetch ``count`` instructions of a function starting at ``start``.

        Returns ``(total_instruction_count, instructions)`` — the total
        lets callers know when a streaming fetch is complete.
        """
        response = self._expect(
            protocol.GET_BLOCK,
            protocol.build_get_block(container_id, findex, start, count),
            protocol.OK_BLOCK, op="block")
        _, _, total, insns = protocol.parse_ok_block(response.body)
        return total, insns

    def iter_blocks(self, container_id: str, findex: int,
                    block_size: int = 64) -> Iterator[List[Instruction]]:
        """Stream a function block-by-block (GET_BLOCK until exhausted)."""
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        start = 0
        while True:
            total, insns = self.block(container_id, findex, start, block_size)
            if insns:
                yield insns
            start += len(insns)
            if start >= total or not insns:
                return

    def get_container(self, container_id: str) -> bytes:
        """Fetch a stored container's full bytes (GET_CONTAINER).

        The returned bytes are verified against the content address
        before being handed back — a server cannot substitute a
        different container.
        """
        response = self._expect(protocol.GET_CONTAINER,
                                protocol.build_get_container(container_id),
                                protocol.OK_CONTAINER, op="container")
        data = protocol.parse_ok_container(response.body)
        got = hashlib.sha256(data).hexdigest()
        if got != container_id:
            raise ProtocolError(
                f"OK_CONTAINER bytes hash to {got[:12]}…, "
                f"not the requested {container_id[:12]}…")
        return data

    def get_delta(self, target_id: str, base_id: str) -> bytes:
        """Fetch a patch turning ``base_id``'s bytes into ``target_id``'s.

        Raises :class:`~repro.errors.RemoteError` with code ``E_NO_BASE``
        when the server does not hold the base — callers negotiate down
        to :meth:`get_container` (which :meth:`update_container` does
        automatically).
        """
        response = self._expect(protocol.GET_DELTA,
                                protocol.build_get_delta(target_id, base_id),
                                protocol.OK_DELTA, op="delta")
        return protocol.parse_ok_delta(response.body)

    def update_container(self, base: bytes, target_id: str,
                         ) -> Tuple[bytes, bool]:
        """The code-update path: fetch ``target_id`` as a delta off ``base``.

        Returns ``(container_bytes, delta_used)``.  The patch is applied
        with full verification (base hash checked before reconstruction,
        target hash after), and the result is additionally checked
        against the requested content address — so a corrupt or lying
        patch can never hand back a wrong container.  Any delta-path
        failure (server lacks the base, patch corrupt in flight, local
        base mismatch) falls back to a verified full transfer; only the
        fetch of the target itself can fail the call.
        """
        from ..delta import BYTES_SAVED, FALLBACKS, PATCH_BYTES, apply_patch
        from ..errors import CorruptContainer
        base_id = hashlib.sha256(base).hexdigest()
        if base_id == target_id:
            return base, True
        reason: Optional[str] = None
        try:
            patch = self.get_delta(target_id, base_id)
        except RemoteError as exc:
            if exc.code != protocol.E_NO_BASE:
                raise
            reason = "no_base"
        else:
            try:
                target = apply_patch(base, patch)
                if hashlib.sha256(target).hexdigest() != target_id:
                    raise CorruptContainer(
                        "patch reconstructed a container that is not "
                        f"{target_id[:12]}…")
            except CorruptContainer:
                reason = "bad_patch"
            else:
                PATCH_BYTES.observe(float(len(patch)))
                BYTES_SAVED.inc(max(0, len(target) - len(patch)))
                return target, True
        FALLBACKS.inc(reason=reason)
        return self.get_container(target_id), False

    def stats(self) -> dict:
        """Fetch the server's metrics snapshot (the STATS request)."""
        response = self._expect(protocol.STATS, b"", protocol.OK_STATS,
                                op="stats")
        try:
            return json.loads(protocol.parse_ok_stats(response.body))
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"STATS payload is not JSON: {exc}") from exc

    def metrics_text(self) -> str:
        """Fetch the server's Prometheus text exposition (GET_METRICS)."""
        response = self._expect(protocol.GET_METRICS, b"",
                                protocol.OK_METRICS, op="metrics")
        return protocol.parse_ok_metrics(response.body).decode("utf-8")

    def health(self) -> protocol.HealthStatus:
        """Probe the server's HEALTH endpoint (never retried: a health
        probe that needs retries IS the answer)."""
        response = self._expect(protocol.HEALTH, protocol.build_health(),
                                protocol.OK_HEALTH, op="health",
                                idempotent=False)
        return protocol.parse_ok_health(response.body)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._close_socket()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _RemoteSource:
    """A served container in the reader shape :class:`LazyProgram` pages
    from: each ``function(findex)`` is one GET_FUNCTION."""

    def __init__(self, client: ServeClient, meta: ContainerMeta) -> None:
        self._client = client
        self._container_id = meta.container_id
        self.program_name = meta.program_name
        self.entry = meta.entry
        self.function_count = meta.function_count

    def function(self, findex: int) -> Function:
        """Page one function, reconnecting once if the connection died.

        A connection that drops *between* pages used to leak the dead
        socket and surface as a raw ``OSError`` mid-run; instead, dial
        again and re-request — everything already fetched stays cached,
        so resume costs exactly one page.
        """
        try:
            return self._client.function(self._container_id, findex)
        except (OSError, ProtocolError):
            self._client.reconnect()
            return self._client.function(self._container_id, findex)


class RemoteProgram(LazyProgram):
    """A Program-shaped view of a container living on a server.

    A :class:`~repro.core.lazy.LazyProgram` whose source is the server:
    each function travels over the wire on first call and is cached
    client-side, so ``decompressed_count``, ``decompressed_fraction`` and
    ``prefetch`` count *fetched* functions.  Connection drops between
    pages reconnect-and-resume.  ``container`` is a container id, or
    container bytes to upload first.
    """

    def __init__(self, client: ServeClient, container: Union[str, bytes]) -> None:
        if isinstance(container, bytes):
            container_id, _, _ = client.put(container)
        else:
            container_id = container
        self.container_id = container_id
        self.meta = client.meta(container_id)
        super().__init__(_RemoteSource(client, self.meta))


def remote_program(host: str, port: int,
                   container: Union[str, bytes],
                   timeout: Optional[float] = None,
                   retries: Optional[int] = None
                   ) -> Tuple[RemoteProgram, ServeClient]:
    """One call: connect and wrap a served container as a RemoteProgram.

    Returns ``(program, client)``; the caller owns closing the client.
    """
    client = ServeClient(host, port, timeout=timeout, retries=retries)
    try:
        return RemoteProgram(client, container), client
    except Exception:
        client.close()
        raise


__all__ = [
    "ContainerMeta",
    "DEFAULT_TIMEOUT",
    "NO_RETRY",
    "OpDeadlines",
    "RemoteProgram",
    "RetryPolicy",
    "ServeClient",
    "remote_program",
]
