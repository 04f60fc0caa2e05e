"""The frame-serving core shared by the shard server and the cluster router.

Both services speak the same framing, so the listener, the
per-connection frame loop and the connection teardown live here once.
A service subclasses :class:`FrameService` and supplies its answer and
its recording; the loop never asks which service it runs.
:func:`run_in_thread` runs any service on a daemon thread behind the one
:class:`ServeHandle`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Optional, Set, Tuple

from ..errors import ProtocolError, ReproError
from ..lz.varint import decode_uvarint
from . import protocol


async def read_frame_async(reader: asyncio.StreamReader,
                           max_frame: int = protocol.MAX_FRAME_BYTES
                           ) -> Optional[protocol.Message]:
    """Asyncio twin of :func:`protocol.read_frame`; ``None`` on clean EOF."""
    length_bytes = bytearray()
    while True:
        try:
            chunk = await reader.readexactly(1)
        except asyncio.IncompleteReadError:
            if not length_bytes:
                return None
            raise ProtocolError("connection closed mid frame-length varint")
        length_bytes += chunk
        if not chunk[0] & 0x80:
            break
        if len(length_bytes) > 10:
            raise ProtocolError("frame-length varint too long")
    length, _ = decode_uvarint(bytes(length_bytes))
    if length > max_frame:
        raise ProtocolError(f"frame of {length} bytes exceeds the "
                            f"{max_frame}-byte limit")
    try:
        payload = await reader.readexactly(length)
        crc = int.from_bytes(await reader.readexactly(4), "little")
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid frame ({len(exc.partial)} of "
            f"{length} payload bytes)") from exc
    return protocol.parse_payload(payload, crc)


class FrameService:
    """One listener and one frame loop; a subclass supplies the answers.

    ``config`` carries ``host``, ``port`` and ``max_frame``; ``metrics``
    has ``record_error(code_name)``.  Subclasses implement ``_span``,
    ``_answer`` and ``_record``, and may hook connection open/close and
    a lost frame boundary.
    """

    def __init__(self, config: Any, metrics: Any) -> None:
        self.config = config
        self.metrics = metrics
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: open connection writers, for teardown and abort (kill())
        self._writers: Set[asyncio.StreamWriter] = set()
        #: requests currently being answered (event-loop-only)
        self._active_requests = 0

    @property
    def inflight_count(self) -> int:
        return self._active_requests

    def _span(self, message: protocol.Message) -> Any:
        """The trace span wrapped around answering ``message``."""
        raise NotImplementedError

    async def _answer(self, message: protocol.Message
                      ) -> Tuple[protocol.Message, int]:
        """``(response, shard hops taken)``; never raises."""
        raise NotImplementedError

    def _record(self, message: protocol.Message, response: protocol.Message,
                hops: int, seconds: float, frame_bytes: int,
                state: Any) -> None:
        """Account one answered request (ERROR codes are counted here)."""
        raise NotImplementedError

    def _opened(self) -> Any:
        """A connection opened; returns its per-connection state."""
        return None

    def _closed(self, state: Any) -> None:
        """A connection closed."""

    def _framing_lost(self) -> None:
        """A connection lost its frame boundary and is being closed."""

    def _health_body(self, state: int, containers: int) -> bytes:
        """OK_HEALTH body; the HEALTH request itself is not in flight."""
        return protocol.build_ok_health(
            state, max(0, self.inflight_count - 1), containers)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> asyncio.AbstractServer:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self._server

    async def _close_listener(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def stop(self) -> None:
        """Close the listener and every open connection."""
        await self._close_listener()
        for writer in list(self._writers):
            writer.close()

    def abort_connections(self) -> None:
        """Reset every open connection mid-frame (models a crash)."""
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        state = self._opened()
        self._writers.add(writer)
        try:
            while True:
                try:
                    message = await read_frame_async(reader,
                                                     self.config.max_frame)
                except (ProtocolError, ReproError) as exc:
                    # Framing is gone; answer once (best effort) and hang up.
                    self._framing_lost()
                    self.metrics.record_error("E_BAD_REQUEST")
                    writer.write(protocol.encode_frame(protocol.Message(
                        type=protocol.ERROR, request_id=0,
                        body=protocol.build_error(protocol.E_BAD_REQUEST,
                                                  str(exc)))))
                    await writer.drain()
                    return
                if message is None:
                    return
                started = time.perf_counter()
                self._active_requests += 1
                try:
                    with self._span(message) as span:
                        response, hops = await self._answer(message)
                        span.set_attr("response", response.type_name)
                        span.set_attr("hops", hops)
                finally:
                    self._active_requests -= 1
                frame = protocol.encode_frame(response)
                writer.write(frame)
                await writer.drain()
                self._record(message, response, hops,
                             time.perf_counter() - started, len(frame), state)
                if response.type == protocol.ERROR:
                    code = response.body[0] if response.body else 0
                    self.metrics.record_error(
                        protocol.ERROR_NAMES.get(code, f"E_{code}"))
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancelled this connection's handler; end it
            # quietly so teardown doesn't log spurious task errors.
            pass
        finally:
            self._writers.discard(writer)
            self._closed(state)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass


class ServeHandle:
    """A service running on a daemon thread; for tests, benches, clients."""

    def __init__(self, service: FrameService,
                 loop: asyncio.AbstractEventLoop, stop_event: asyncio.Event,
                 thread: threading.Thread) -> None:
        #: the running service; an ``SSDServer`` or a ``ClusterRouter``
        self.service: Any = service
        self._loop = loop
        self._stop_event = stop_event
        self._thread = thread

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def address(self) -> Tuple[str, int]:
        return (self.service.config.host, self.service.port)

    @property
    def metrics(self) -> Any:
        return self.service.metrics

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def call(self, fn, *args, wait: float = 5.0) -> Any:
        """Run ``fn(*args)`` on the service's loop and return its result
        (a coroutine is awaited there): the thread-safe way in, e.g.
        ``handle.call(handle.service.update_address, shard_id, host, port)``.
        """
        async def invoke() -> Any:
            result = fn(*args)
            return await result if asyncio.iscoroutine(result) else result

        return asyncio.run_coroutine_threadsafe(
            invoke(), self._loop).result(wait)

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Call the service's graceful ``drain(timeout)``, then stop.

        ``True`` when every in-flight request completed before the
        deadline (the SIGTERM contract: finish work, refuse new frames,
        then leave).
        """
        drained = True
        if self._thread.is_alive():
            if timeout is None:
                timeout = self.service.config.drain_timeout
            try:
                drained = self.call(self.service.drain, timeout,
                                    wait=timeout + 5.0)
            except (asyncio.CancelledError, TimeoutError):
                drained = False
            self.stop()
        return drained

    def kill(self) -> None:
        """Tear the service down abruptly (SIGKILL semantics): connections
        reset mid-frame and nothing waits for in-flight work."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.abort_connections)
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(5.0)

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_in_thread(service: FrameService,
                  startup_timeout: float = 10.0) -> ServeHandle:
    """Start ``service`` on a daemon thread; return once it listens.

    The handle's ``.port`` is bound (config port 0 picks an ephemeral
    one); ``stop()`` shuts the loop down cleanly.
    """
    ready = threading.Event()
    started: list = []      # [loop, stop_event], or [startup exception]

    async def main() -> None:
        stop_event = asyncio.Event()
        try:
            await service.start()
        except Exception as exc:  # noqa: BLE001 - reported to caller
            started.append(exc)
            ready.set()
            return
        started.extend((asyncio.get_running_loop(), stop_event))
        ready.set()
        try:
            await stop_event.wait()
        finally:
            await service.stop()

    name = type(service).__name__
    thread = threading.Thread(target=lambda: asyncio.run(main()),
                              name=f"ssd-{name}", daemon=True)
    thread.start()
    if not ready.wait(startup_timeout):
        raise RuntimeError(f"{name} failed to start within "
                           f"{startup_timeout}s")
    if len(started) == 1:
        raise started[0]
    return ServeHandle(service, started[0], started[1], thread)


__all__ = [
    "FrameService",
    "ServeHandle",
    "read_frame_async",
    "run_in_thread",
]
