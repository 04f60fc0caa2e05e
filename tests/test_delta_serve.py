"""End-to-end tests for the delta update path through repro.serve.

Covers the new wire surface (GET_CONTAINER / GET_DELTA / E_NO_BASE),
the store's patch synthesis + LRU, and the client's verified
``update_container`` swap-in with clean full-transfer fallback.
"""

import hashlib

import pytest

from repro.core import compress
from repro.delta import apply_patch, make_patch
from repro.errors import NoBaseError, RemoteError
from repro.isa import assemble
from repro.serve import ServeClient, protocol, serve_in_thread
from repro.serve.store import PATCH_CACHE_ENTRIES, ContainerStore

ASM = """
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
"""


def _container(value: int) -> bytes:
    return compress(assemble(ASM.format(value=value))).data


def _cid(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture()
def server():
    with serve_in_thread() as handle:
        with ServeClient(*handle.address) as client:
            yield handle, client


class TestStoreDelta:
    def test_make_delta_synthesizes_a_valid_patch(self):
        store = ContainerStore()
        base, target = _container(3), _container(9)
        store.put(base)
        store.put(target)
        patch = store.make_delta(_cid(base), _cid(target))
        assert apply_patch(base, patch) == target

    def test_unknown_target_is_not_found(self):
        store = ContainerStore()
        base = _container(3)
        store.put(base)
        with pytest.raises(KeyError):
            store.make_delta(_cid(base), "ff" * 32)

    def test_unknown_base_raises_no_base(self):
        store = ContainerStore()
        target = _container(9)
        store.put(target)
        with pytest.raises(NoBaseError):
            store.make_delta("ff" * 32, _cid(target))

    def test_patch_cache_hits_and_evicts(self):
        store = ContainerStore()
        containers = [_container(value) for value in range(1, 4)]
        for data in containers:
            store.put(data)
        first = store.make_delta(_cid(containers[0]), _cid(containers[1]))
        assert store.make_delta(_cid(containers[0]),
                                _cid(containers[1])) == first
        assert len(store._patches) == 1
        # Fill past the LRU budget; the cache must stay bounded.
        for index in range(PATCH_CACHE_ENTRIES + 8):
            base = containers[index % 3]
            target = containers[(index + 1) % 3]
            store._patches[(f"k{index}", _cid(target))] = b"x"
        store.make_delta(_cid(containers[1]), _cid(containers[2]))
        assert len(store._patches) <= PATCH_CACHE_ENTRIES


class TestServeWire:
    def test_get_container_roundtrips(self, server):
        _handle, client = server
        data = _container(5)
        container_id, _, _ = client.put(data)
        assert client.get_container(container_id) == data

    def test_get_container_unknown_is_not_found(self, server):
        _handle, client = server
        with pytest.raises(RemoteError) as excinfo:
            client.get_container("ee" * 32)
        assert excinfo.value.code == protocol.E_NOT_FOUND

    def test_get_delta_applies_to_the_base(self, server):
        _handle, client = server
        base, target = _container(3), _container(9)
        client.put(base)
        target_id, _, _ = client.put(target)
        patch = client.get_delta(target_id, _cid(base))
        assert apply_patch(base, patch) == target

    def test_missing_base_answers_e_no_base(self, server):
        _handle, client = server
        target_id, _, _ = client.put(_container(9))
        with pytest.raises(RemoteError) as excinfo:
            client.get_delta(target_id, "ee" * 32)
        assert excinfo.value.code == protocol.E_NO_BASE

    def test_meta_carries_container_version(self, server):
        _handle, client = server
        container_id, _, _ = client.put(_container(5))
        assert client.meta(container_id).container_version == 2

    def test_server_counts_delta_traffic(self, server):
        handle, client = server
        base, target = _container(3), _container(9)
        client.put(base)
        target_id, _, _ = client.put(target)
        client.get_delta(target_id, _cid(base))
        with pytest.raises(RemoteError):
            client.get_delta(target_id, "ee" * 32)
        snapshot = handle.service.metrics.snapshot()
        assert snapshot["delta"]["patches"] == 1
        assert snapshot["delta"]["no_base"] == 1
        assert snapshot["delta"]["bytes_saved"] > 0


class TestClientUpdate:
    def test_update_uses_the_delta_path(self, server):
        _handle, client = server
        base, target = _container(3), _container(9)
        client.put(base)
        target_id, _, _ = client.put(target)
        rebuilt, delta_used = client.update_container(base, target_id)
        assert delta_used
        assert rebuilt == target

    def test_update_with_current_container_is_a_noop(self, server):
        _handle, client = server
        data = _container(5)
        container_id, _, _ = client.put(data)
        rebuilt, delta_used = client.update_container(data, container_id)
        assert delta_used and rebuilt == data

    def test_unknown_base_falls_back_to_full_transfer(self, server):
        _handle, client = server
        target = _container(9)
        target_id, _, _ = client.put(target)
        rebuilt, delta_used = client.update_container(_container(3),
                                                      target_id)
        assert not delta_used
        assert rebuilt == target

    def test_poisoned_patch_falls_back_never_swaps_in(self, server):
        # A server handing out a corrupt patch must not be able to make
        # the client install wrong bytes: apply fails typed, the client
        # re-fetches the full container and verifies its digest.
        handle, client = server
        base, target = _container(3), _container(9)
        base_id, _, _ = client.put(base)
        target_id, _, _ = client.put(target)
        truth = make_patch(base, target)
        poisoned = bytearray(truth)
        poisoned[33] ^= 0xFF                     # lie about the target
        handle.service.store._patches[(base_id, target_id)] = bytes(poisoned)
        rebuilt, delta_used = client.update_container(base, target_id)
        assert not delta_used
        assert rebuilt == target

