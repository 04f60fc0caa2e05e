"""Server-side markov prefetch + admission wiring (repro.serve.server).

A profiled container seeds the server's predictor from its hint
section; GET_FUNCTION traffic teaches it per-connection transitions;
predicted successors are decoded in the background so the next request
hits the cache.  These tests drive a real server over a socket and
assert on the ``prefetch`` / ``cache_admission`` blocks STATS exposes.
"""

import time

import pytest

from repro.core import compress
from repro.isa import assemble
from repro.profile import AccessProfile, build_plan
from repro.serve import (
    ServeClient,
    ServerConfig,
    serve_in_thread,
)

FUNCTION_COUNT = 12

SOURCE = "func main\n    li r2, 1\n    call f1\n    trap 1\n    ret\nend\n"
for _i in range(1, FUNCTION_COUNT):
    SOURCE += f"func f{_i}\n    add r1, r2, r2\n    ret\nend\n"


@pytest.fixture(scope="module")
def program():
    return assemble(SOURCE)


@pytest.fixture(scope="module")
def chain_plan(program):
    # A strictly sequential walk: 0 -> 1 -> ... -> n-1, repeated, so
    # the hint edges predict "next index" with full confidence.
    count = len(program.functions)
    trace = [i % count for i in range(6 * count)]
    return build_plan(AccessProfile.from_trace(trace), count)


@pytest.fixture(scope="module")
def profiled_container(program, chain_plan):
    return compress(program, layout_plan=chain_plan).data


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestServerPrefetch:
    def test_hint_seeded_prefetch_hits(self, profiled_container):
        config = ServerConfig(prefetch_depth=2, request_timeout=10.0)
        with serve_in_thread(config=config) as handle:
            with ServeClient(*handle.address) as client:
                cid, count, _ = client.put(profiled_container)
                for findex in range(count):
                    client.function(cid, findex)
                stats = client.stats()
                assert "prefetch" in stats
                issued = stats["prefetch"]["issued"]
                assert issued > 0
                # The background decodes land asynchronously; a second
                # sequential pass must find prefetched entries.
                _wait_for(lambda: client.stats()["prefetch"]["issued"] >= issued)
                for findex in range(count):
                    client.function(cid, findex)
                assert _wait_for(
                    lambda: client.stats()["prefetch"]["hits"] > 0
                ), client.stats()["prefetch"]

    def test_prefetch_off_by_default(self, profiled_container):
        with serve_in_thread() as handle:
            with ServeClient(*handle.address) as client:
                cid, count, _ = client.put(profiled_container)
                for findex in range(count):
                    client.function(cid, findex)
                stats = client.stats()
                assert stats["prefetch"] == {"issued": 0, "hits": 0}

    def test_learned_transitions_without_hints(self, program):
        """No hint section at all: the predictor still learns from the
        request stream and prefetches on later passes."""
        plain = compress(program).data
        # A one-byte cache keeps nothing resident, so predicted
        # successors are always worth issuing (a full cache would skip
        # them as already-cached).
        config = ServerConfig(
            prefetch_depth=2, request_timeout=10.0, cache_bytes=1
        )
        with serve_in_thread(config=config) as handle:
            with ServeClient(*handle.address) as client:
                cid, count, _ = client.put(plain)
                for _ in range(3):
                    for findex in range(count):
                        client.function(cid, findex)
                assert _wait_for(
                    lambda: client.stats()["prefetch"]["issued"] > 0
                ), client.stats()["prefetch"]

    def test_admission_stats_exposed_when_enabled(self, profiled_container):
        config = ServerConfig(cache_admission=True)
        with serve_in_thread(config=config) as handle:
            with ServeClient(*handle.address) as client:
                client.put(profiled_container)
                stats = client.stats()
                assert set(stats["cache_admission"]) == {
                    "rejects",
                    "ghost_readmits",
                    "ghost_entries",
                    "tracked_keys",
                }

    def test_admission_stats_absent_by_default(self, profiled_container):
        with serve_in_thread() as handle:
            with ServeClient(*handle.address) as client:
                client.put(profiled_container)
                assert "cache_admission" not in client.stats()

    def test_prefetch_metrics_in_exposition(self, profiled_container):
        config = ServerConfig(prefetch_depth=2, request_timeout=10.0)
        with serve_in_thread(config=config) as handle:
            with ServeClient(*handle.address) as client:
                cid, count, _ = client.put(profiled_container)
                for findex in range(count):
                    client.function(cid, findex)
                text = client.metrics_text()
                assert "serve_prefetch_issued_total" in text
                assert "serve_prefetch_hits_total" in text
