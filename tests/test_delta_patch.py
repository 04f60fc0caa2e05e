"""Tests for repro.delta: patch artifacts, chains, shared bases.

The subsystem's safety contract — a patch either reconstructs the
byte-exact target it names or fails with a typed ``repro.errors``
member — is asserted here at the library layer; the serve-side
fallback behavior rides on it in test_delta_serve.py.
"""

import hashlib

import pytest

from repro.core import compress, decompress, open_container
from repro.delta import (
    EMPTY_BASE_HASH,
    SHARED_BASE_NAME,
    apply_chain,
    apply_patch,
    is_patch,
    is_shared_base,
    make_patch,
    patch_info,
    train_shared_base,
)
from repro.errors import BaseMismatch, CorruptContainer, DeltaError, LimitExceeded
from repro.isa import assemble
from repro.workloads import benchmark_program
from repro.workloads.versions import evolve_program, version_chain

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


class TestPatchRoundTrip:
    def test_small_pair_reconstructs_exactly(self):
        base, target = _container(3), _container(9)
        patch = make_patch(base, target)
        assert apply_patch(base, patch) == target

    def test_corpus_version_pair_reconstructs_exactly(self):
        old_program = benchmark_program("xlisp", scale=0.05)
        new_program = evolve_program(old_program, seed=1)
        base, target = compress(old_program).data, compress(new_program).data
        patch = make_patch(base, target)
        rebuilt = apply_patch(base, patch)
        assert rebuilt == target
        assert decompress(rebuilt) == new_program

    def test_patch_is_deterministic(self):
        base, target = _container(3), _container(9)
        assert make_patch(base, target) == make_patch(base, target)

    def test_identity_patch(self):
        base = _container(4)
        assert apply_patch(base, make_patch(base, base)) == base

    def test_standalone_patch_applies_to_empty_base(self):
        target = _container(7)
        patch = make_patch(b"", target)
        assert patch_info(patch).standalone
        assert patch_info(patch).base_hash == EMPTY_BASE_HASH
        assert apply_patch(b"", patch) == target


class TestPatchHeader:
    def test_info_names_both_digests(self):
        base, target = _container(3), _container(9)
        info = patch_info(make_patch(base, target))
        assert info.base_hash == hashlib.sha256(base).digest()
        assert info.target_hash == hashlib.sha256(target).digest()
        assert info.base_len == len(base)
        assert info.target_len == len(target)

    def test_is_patch_sniffs_correctly(self):
        base, target = _container(3), _container(9)
        assert is_patch(make_patch(base, target))
        assert not is_patch(base)
        assert not is_patch(b"")
        assert not is_patch(b"\x01" + b"\x00" * 10)


class TestPatchSafety:
    def test_wrong_base_is_refused_before_reconstruction(self):
        base, other, target = _container(3), _container(5), _container(9)
        patch = make_patch(base, target)
        with pytest.raises(BaseMismatch):
            apply_patch(other, patch)

    def test_truncated_patch_fails_typed(self):
        base, target = _container(3), _container(9)
        patch = make_patch(base, target)
        for cut in range(len(patch)):
            with pytest.raises(CorruptContainer):
                apply_patch(base, patch[:cut])

    def test_oversized_target_declaration_hits_limits(self):
        from repro.core import DecodeLimits

        base, target = _container(3), _container(9)
        patch = make_patch(base, target)
        with pytest.raises(LimitExceeded):
            apply_patch(base, patch,
                        limits=DecodeLimits(max_blob_output=4))

    def test_forged_target_hash_is_caught(self):
        base, target = _container(3), _container(9)
        patch = bytearray(make_patch(base, target))
        patch[40] ^= 0xFF                     # inside the target digest
        with pytest.raises(DeltaError):
            apply_patch(base, bytes(patch))


class TestPatchChains:
    def test_chain_composes_across_releases(self):
        program = benchmark_program("xlisp", scale=0.05)
        chain = version_chain(program, releases=3, seed=2)
        containers = [compress(version).data for version in chain]
        patches = [make_patch(containers[i], containers[i + 1])
                   for i in range(len(containers) - 1)]
        assert apply_chain(containers[0], patches) == containers[-1]

    def test_empty_chain_is_identity(self):
        base = _container(3)
        assert apply_chain(base, []) == base

    def test_cycle_is_detected_before_application(self):
        base, target = _container(3), _container(9)
        forward = make_patch(base, target)
        backward = make_patch(target, base)
        with pytest.raises(DeltaError, match="visited"):
            apply_chain(base, [forward, backward, forward])


class TestSharedBase:
    def test_trained_base_is_a_valid_container(self):
        programs = [benchmark_program(name, scale=0.05)
                    for name in ("xlisp", "compress")]
        shared = train_shared_base(programs)
        assert is_shared_base(shared)
        reader = open_container(shared)
        assert reader.function_count == 0
        assert reader.sections.program_name == SHARED_BASE_NAME

    def test_corpus_member_diffs_against_shared_base(self):
        programs = [benchmark_program(name, scale=0.05)
                    for name in ("xlisp", "compress")]
        shared = train_shared_base(programs)
        target = compress(programs[0]).data
        patch = make_patch(shared, target)
        assert apply_patch(shared, patch) == target

    def test_budget_caps_the_dictionary(self):
        from repro.delta.shared import count_base_entries

        programs = [benchmark_program("xlisp", scale=0.05)]
        small = train_shared_base(programs, budget=4)
        counts = count_base_entries([small])
        assert 0 < len(counts) <= 4
        # one count per distinct row
        assert set(counts.values()) == {1}

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            train_shared_base([], budget=0)

    def test_real_containers_are_not_shared_bases(self):
        assert not is_shared_base(_container(3))
        assert not is_shared_base(b"garbage")
