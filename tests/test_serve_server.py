"""End-to-end tests for the async SSD code server (repro.serve.server).

Covers the PR's acceptance criteria: remote execution matches local
execution while decompressing only the functions reached (verified via
STATS decode counters), a 16-client concurrent load shows cache hits and
no coalescing duplicates, and failures surface as protocol errors — not
dropped connections or event-loop crashes.
"""

import threading
import time

import pytest

from repro.core import compress
from repro.errors import RemoteError
from repro.isa import assemble
from repro.serve import (
    ContainerStore,
    RemoteProgram,
    SSDServer,
    ServeClient,
    ServerConfig,
    serve_in_thread,
)
from repro.vm import run_program

ASM = """
func main
    li r2, 6
    call double
    trap 1
    ret
end
func double
    add r1, r2, r2
    ret
end
func never_called
    li r1, 999
    ret
end
func also_dead
    li r1, 998
    ret
end
"""


@pytest.fixture(scope="module")
def program():
    return assemble(ASM)


@pytest.fixture(scope="module")
def container(program):
    return compress(program).data


@pytest.fixture()
def server():
    with serve_in_thread(config=ServerConfig(request_timeout=10.0)) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServeClient(*server.address) as c:
        yield c


class TestRequestSurface:
    def test_put_then_meta(self, client, container):
        container_id, count, entry = client.put(container)
        assert (count, entry) == (4, 0)
        meta = client.meta(container_id)
        assert meta.program_name == "asm"
        assert meta.function_names == ["main", "double", "never_called",
                                       "also_dead"]
        assert meta.entry == 0

    def test_get_function_matches_source(self, client, container, program):
        container_id, _, _ = client.put(container)
        for findex, function in enumerate(program.functions):
            remote = client.function(container_id, findex)
            assert remote.name == function.name
            assert remote.insns == function.insns

    def test_block_streaming_reassembles_function(self, client, container,
                                                  program):
        container_id, _, _ = client.put(container)
        insns = []
        for block in client.iter_blocks(container_id, 0, block_size=2):
            insns.extend(block)
        assert insns == program.functions[0].insns

    def test_block_reports_total(self, client, container, program):
        container_id, _, _ = client.put(container)
        total, insns = client.block(container_id, 0, 1, 2)
        assert total == len(program.functions[0].insns)
        assert insns == program.functions[0].insns[1:3]

    def test_stats_shape(self, client, container):
        client.put(container)
        stats = client.stats()
        for key in ("requests", "errors", "bytes_in", "bytes_out",
                    "latency", "decoded", "decodes_total", "cache",
                    "store", "connections", "coalesced", "timeouts"):
            assert key in stats
        assert stats["store"]["containers"] == 1


class TestRePut:
    def test_second_put_keeps_the_cached_reader(self, server, client,
                                                container, monkeypatch):
        import repro.serve.server as server_module
        import repro.serve.store as store_module

        container_id, _, _ = client.put(container)
        cache = server.service.cache
        reader = cache.get(("reader", container_id))
        assert reader is not None
        opened = []
        for module in (server_module, store_module):
            real = module.open_container
            monkeypatch.setattr(
                module, "open_container",
                lambda *args, _real=real, **kwargs: (
                    opened.append(args) or _real(*args, **kwargs)))
        assert client.put(container) == (container_id, 4, 0)
        assert opened == []
        assert cache.get(("reader", container_id)) is reader


class TestErrors:
    def test_unknown_container_is_not_found(self, client):
        with pytest.raises(RemoteError) as info:
            client.meta("ee" * 32)
        assert info.value.code_name == "E_NOT_FOUND"
        with pytest.raises(RemoteError) as info:
            client.function("ee" * 32, 0)
        assert info.value.code_name == "E_NOT_FOUND"

    def test_bad_function_index_is_not_found(self, client, container):
        container_id, _, _ = client.put(container)
        with pytest.raises(RemoteError) as info:
            client.function(container_id, 99)
        assert info.value.code_name == "E_NOT_FOUND"

    def test_corrupt_put_is_rejected(self, client, container):
        mutated = bytearray(container)
        mutated[len(mutated) // 2] ^= 0xFF
        with pytest.raises(RemoteError) as info:
            client.put(bytes(mutated))
        assert info.value.code_name == "E_CORRUPT"

    def test_connection_survives_an_error(self, client, container):
        with pytest.raises(RemoteError):
            client.meta("ee" * 32)
        container_id, _, _ = client.put(container)     # same connection
        assert client.meta(container_id).function_count == 4

    def test_block_start_out_of_range(self, client, container):
        container_id, _, _ = client.put(container)
        with pytest.raises(RemoteError) as info:
            client.block(container_id, 0, 10_000, 4)
        assert info.value.code_name == "E_NOT_FOUND"


class TestTimeouts:
    def test_slow_request_answers_with_timeout_error(self, container):
        class SlowServer(SSDServer):
            def _decode_function(self, container_id, findex):
                time.sleep(0.5)
                return super()._decode_function(container_id, findex)

        config = ServerConfig(request_timeout=0.05)
        with serve_in_thread(server=SlowServer(config=config)) as handle:
            with ServeClient(*handle.address) as client:
                container_id, _, _ = client.put(container)
                with pytest.raises(RemoteError) as info:
                    client.function(container_id, 0)
                assert info.value.code_name == "E_TIMEOUT"
                # The connection (and server) survive the deadline miss.
                assert client.meta(container_id).function_count == 4
        assert handle.metrics.snapshot()["timeouts"] >= 1


class TestBackpressure:
    def test_saturated_server_says_busy(self, container):
        config = ServerConfig(max_queue_depth=0)
        with serve_in_thread(config=config) as handle:
            with ServeClient(*handle.address) as client:
                with pytest.raises(RemoteError) as info:
                    client.put(container)
                assert info.value.code_name == "E_BUSY"


class TestRemoteExecution:
    def test_remote_matches_local_and_pages_lazily(self, server, container,
                                                   program):
        local = run_program(program)
        with ServeClient(*server.address) as client:
            remote = RemoteProgram(client, container)
            result = run_program(remote)
            assert result.output == local.output
            # Only the functions control flow reached were fetched...
            assert remote.decompressed_functions == {0, 1}
            assert remote.decompressed_fraction == pytest.approx(0.5)
            # ...and the server decoded exactly those, exactly once.
            stats = client.stats()
            decoded = stats["decoded"][remote.container_id]
            assert decoded == {"functions": 2, "decodes": 2}

    def test_prefetch_and_full_fetch(self, server, container, program):
        with ServeClient(*server.address) as client:
            remote = RemoteProgram(client, container)
            remote.prefetch([2, 3])
            assert remote.decompressed_functions == {2, 3}
            names = [fn.name for fn in remote.functions]
            assert names == [fn.name for fn in program.functions]
            assert remote.decompressed_fraction == 1.0


class TestConcurrentLoad:
    def test_sixteen_clients_share_decodes(self, container, program):
        """The acceptance load test: 16 concurrent clients, one container.

        Requires cache hits > 0 and *no coalescing duplicates*: each
        reached function is decoded exactly once server-side.
        """
        local = run_program(program)
        store = ContainerStore()
        container_id, _ = store.put(container)
        barrier = threading.Barrier(16)
        failures = []

        with serve_in_thread(store=store) as handle:
            def one_client() -> None:
                try:
                    with ServeClient(*handle.address) as client:
                        barrier.wait(timeout=10)
                        remote = RemoteProgram(client, container_id)
                        result = run_program(remote)
                        if result.output != local.output:
                            failures.append(
                                f"output {result.output} != {local.output}")
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{type(exc).__name__}: {exc}")

            threads = [threading.Thread(target=one_client)
                       for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not failures

            with ServeClient(*handle.address) as client:
                stats = client.stats()
            # No duplicates: every decode happened exactly once even
            # though 16 clients raced for the same two functions.
            decoded = stats["decoded"][container_id]
            assert decoded == {"functions": 2, "decodes": 2}
            per_function = handle.metrics.decodes_for(container_id)
            assert per_function == {0: 1, 1: 1}
            # The LRU served everyone else.
            assert stats["cache"]["hits"] > 0
            assert stats["cache"]["hit_rate"] > 0


class TestPreloadedStore:
    def test_serving_from_a_preloaded_store(self, container, program):
        store = ContainerStore()
        container_id, _ = store.put(container)
        with serve_in_thread(store=store) as handle:
            with ServeClient(*handle.address) as client:
                meta = client.meta(container_id)
                assert meta.function_count == len(program.functions)
