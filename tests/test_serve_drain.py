"""Server graceful-drain tests (SIGTERM/close semantics).

The drain contract: in-flight (possibly coalesced) decodes complete and
their clients get real answers; *new* decode/put frames are refused with
E_UNAVAILABLE while the observability surface (HEALTH/STATS) keeps
answering; drain returns within its timeout with no hung
``asyncio.shield`` futures; ``kill()`` by contrast resets connections
mid-frame, modelling SIGKILL.
"""

import threading
import time

import pytest

from repro.core import compress
from repro.errors import ProtocolError, RemoteError
from repro.isa import assemble
from repro.serve import ServeClient, ServerConfig, serve_in_thread
from repro.serve import protocol

ASM = """
func main
    li r2, 9
    call helper
    trap 1
    ret
end
func helper
    add r1, r2, r2
    ret
end
"""


@pytest.fixture()
def container():
    return compress(assemble(ASM)).data


def start_server():
    return serve_in_thread(config=ServerConfig(request_timeout=10.0))


class TestDrain:
    def test_inflight_decode_completes_and_drain_is_clean(self, container):
        handle = start_server()
        try:
            with ServeClient(*handle.address) as seeder:
                container_id, _count, _entry = seeder.put(container)

            release = threading.Event()
            started = threading.Event()

            def hook(cid, findex):
                started.set()
                release.wait(5.0)

            handle.service.decode_hook = hook
            results = {}

            def fetch(slot):
                with ServeClient(*handle.address) as client:
                    results[slot] = client.function(container_id, 0).name

            # two concurrent fetchers of the same function: the second
            # coalesces onto the first's in-flight decode
            threads = [threading.Thread(target=fetch, args=(i,), daemon=True)
                       for i in range(2)]
            for thread in threads:
                thread.start()
            assert started.wait(5.0)

            # observer connected (and accepted: one exchange forces the
            # accept) BEFORE the drain closes the listener
            observer = ServeClient(*handle.address)
            assert observer.health().ok
            drained = {}

            def drain():
                drained["ok"] = handle.drain(timeout=8.0)

            drainer = threading.Thread(target=drain, daemon=True)
            drainer.start()
            deadline = time.monotonic() + 5.0
            while not handle.service.draining and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handle.service.draining

            # while draining: health answers (and says so), new decode
            # work is refused with E_UNAVAILABLE
            status = observer.health()
            assert status.state == protocol.HEALTH_DRAINING
            with pytest.raises(RemoteError) as excinfo:
                observer.function(container_id, 1)
            assert excinfo.value.code == protocol.E_UNAVAILABLE

            # release the decode: every coalesced waiter completes
            release.set()
            for thread in threads:
                thread.join(8.0)
            drainer.join(10.0)
            assert not drainer.is_alive(), "drain hung"
            assert drained["ok"] is True
            assert results == {0: "main", 1: "main"}
            observer.close()
        finally:
            handle.stop()

    def test_drain_times_out_on_stuck_decode(self, container):
        handle = start_server()
        try:
            with ServeClient(*handle.address) as seeder:
                container_id, _count, _entry = seeder.put(container)
            release = threading.Event()
            started = threading.Event()

            def hook(cid, findex):
                started.set()
                release.wait(5.0)   # bounded: the thread must still join

            handle.service.decode_hook = hook

            def fetch():
                try:
                    with ServeClient(*handle.address) as client:
                        client.function(container_id, 0)
                except (RemoteError, ProtocolError, OSError):
                    pass

            fetcher = threading.Thread(target=fetch, daemon=True)
            fetcher.start()
            assert started.wait(5.0)
            # the decode is stuck past the drain deadline
            assert handle.drain(timeout=0.2) is False
            release.set()
            fetcher.join(8.0)
        finally:
            handle.stop()

    def test_connection_closed_after_drain(self, container):
        handle = start_server()
        with ServeClient(*handle.address) as seeder:
            container_id, _count, _entry = seeder.put(container)
        lingering = ServeClient(*handle.address)
        assert handle.drain(timeout=5.0) is True
        # the drained server closed the connection; the next request
        # fails cleanly (closed/refused), it does not hang
        with pytest.raises((ProtocolError, OSError)):
            lingering.meta(container_id)
        lingering.close()

    def test_health_reports_ok_before_drain(self, container):
        handle = start_server()
        try:
            with ServeClient(*handle.address) as client:
                status = client.health()
                assert status.state == protocol.HEALTH_OK
                assert status.ok
                assert status.containers == 0
                container_id, _count, _entry = client.put(container)
                assert client.health().containers == 1
                del container_id
        finally:
            handle.stop()


class TestKill:
    def test_kill_resets_inflight_connections(self, container):
        handle = start_server()
        with ServeClient(*handle.address) as seeder:
            container_id, _count, _entry = seeder.put(container)
        started = threading.Event()

        def hook(cid, findex):
            started.set()
            time.sleep(2.0)     # bounded hang; killed mid-decode

        handle.service.decode_hook = hook
        outcome = {}

        def fetch():
            try:
                with ServeClient(*handle.address) as client:
                    outcome["result"] = client.function(container_id, 0)
            except (ProtocolError, OSError) as exc:
                outcome["error"] = exc
            outcome["at"] = time.monotonic()

        fetcher = threading.Thread(target=fetch, daemon=True)
        fetcher.start()
        assert started.wait(5.0)
        killed_at = time.monotonic()
        # kill() itself may block up to the bounded hook sleep while the
        # loop thread joins its executor; the CLIENT must see the
        # reset/close immediately, long before the 2s decode finishes
        handle.kill()
        fetcher.join(5.0)
        assert not fetcher.is_alive()
        assert "error" in outcome
        assert outcome["at"] - killed_at < 1.5
        assert not handle.is_alive()
