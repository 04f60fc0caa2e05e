"""Tests for the verify-gated container store (repro.serve.store)."""

import pytest

from repro.core import compress, serialize
from repro.isa import assemble
from repro.serve import AdmissionError, ContainerStore, container_id_of

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
"""


@pytest.fixture()
def container():
    return compress(assemble(ASM)).data


class TestAdmission:
    def test_put_returns_content_hash(self, container):
        store = ContainerStore()
        container_id, reader = store.put(container)
        assert container_id == container_id_of(container)
        assert reader.function_count == 2
        assert container_id in store

    def test_put_is_idempotent(self, container):
        store = ContainerStore()
        first, _ = store.put(container)
        second, _ = store.put(container)
        assert first == second
        assert len(store) == 1
        assert store.admitted == 1

    def test_re_put_decodes_nothing(self, container, monkeypatch):
        import repro.serve.store as store_module

        store = ContainerStore()
        container_id, _ = store.put(container)
        monkeypatch.setattr(store_module, "open_container", None)
        assert store.put(container) == (container_id, None)

    def test_corrupt_container_rejected(self, container):
        mutated = bytearray(container)
        mutated[len(mutated) // 2] ^= 0xFF
        store = ContainerStore()
        with pytest.raises(AdmissionError):
            store.put(bytes(mutated))
        assert len(store) == 0
        assert store.rejected == 1

    def test_junk_rejected(self):
        with pytest.raises(AdmissionError):
            ContainerStore().put(b"\x00" * 64)

    def test_v1_container_admitted_on_structure(self, container):
        # v1 has no CRCs; admission falls back to the structural walk +
        # phase-one decode, same as `ssd verify`.
        from repro.core import open_container
        sections = open_container(container).sections
        v1 = serialize(sections, version=1)
        container_id, reader = ContainerStore().put(v1)
        assert reader.function_count == 2
        assert container_id == container_id_of(v1)

    def test_get_unknown_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown container"):
            ContainerStore().get("ff" * 32)

    def test_get_returns_exact_bytes(self, container):
        store = ContainerStore()
        container_id, _ = store.put(container)
        assert store.get(container_id) == container


class TestPersistence:
    def test_persists_and_reloads(self, container, tmp_path):
        store = ContainerStore(root=tmp_path)
        container_id, _ = store.put(container)
        assert (tmp_path / f"{container_id}.ssd").exists()

        reloaded = ContainerStore(root=tmp_path)
        assert container_id in reloaded
        assert reloaded.get(container_id) == container

    def test_startup_skips_corrupt_spool_files(self, container, tmp_path):
        (tmp_path / "junk.ssd").write_bytes(b"\x00" * 32)
        store = ContainerStore(root=tmp_path)
        assert len(store) == 0
        container_id, _ = store.put(container)
        assert container_id in store


class TestStats:
    def test_stats_shape(self, container):
        store = ContainerStore()
        store.put(container)
        stats = store.stats()
        assert stats["containers"] == 1
        assert stats["total_bytes"] == len(container)
        assert stats["admitted"] == 1
        assert stats["rejected"] == 0
        assert store.ids() == [container_id_of(container)]
