"""Pinned container bytes of word97@0.05 under every compressor knob.

``test_lz_pinned_bytes`` and ``benchmarks/artifact_digests.py`` pin the
default knob set only.  The digests below pin each non-default knob too:
absolute branch targets, optimal matching, the two delta base codecs,
short sequences, a profile-guided layout plan and a multi-segment
(partitioned) dictionary.  A container is a wire format, so a changed
digest is a format change, not a test to re-pin.
"""

import hashlib

import pytest

from repro.core import compress, decompress
from repro.core import partition as partition_module
from repro.profile import AccessProfile, build_plan
from repro.workloads import benchmark_program


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def word97():
    return benchmark_program("word97", 0.05)


@pytest.mark.parametrize("knobs, digest", [
    ({"branch_targets": "absolute"},
     "c41e771ddd9e2ff9f1fc951a6f5421f70a1aa7a42230810910d47ecd52bae6dc"),
    ({"match_mode": "optimal"},
     "57f95a60f581ded286502f3fc20e6c44d7cf3cabf37d24ebeeb02b25167d9aaa"),
    ({"codec": "delta"},
     "58aa20aa52392a993b6b2c5ffa535f8936132f457bcba05e4a8cb21455c14aff"),
    ({"codec": "delta+lz"},
     "c4f965103a548e12c8bccceba672aaf508c45f0905beca0fafdfee50c44af9a5"),
    ({"max_len": 2},
     "0c488d5b96eafef9668484f512d66578835fe7fb9a5147c4b84fcc80b8c6e1b8"),
], ids=["absolute", "optimal", "delta", "delta+lz", "max_len2"])
def test_knob_container_bytes(word97, knobs, digest):
    assert _sha(compress(word97, **knobs).data) == digest


def test_layout_plan_container_bytes(word97):
    count = len(word97.functions)
    trace = [(step * 37 + step // 5) % count for step in range(4000)]
    plan = build_plan(AccessProfile.from_trace(trace), count)
    assert not plan.is_identity
    data = compress(word97, layout_plan=plan).data
    assert _sha(data) == (
        "df8415567adc7a83bf4cc8df877d9abde93d4d2f03affad6a9d4e3270da653f0")


def test_multi_segment_container_bytes(word97, monkeypatch):
    monkeypatch.setattr(partition_module, "SEGMENT_CAPACITY", 8000)
    compressed = compress(word97, common_budget=80)
    assert compressed.partition_stats["segments"] == 4
    assert compressed.partition_stats["common_sequences"] > 0
    assert _sha(compressed.data) == (
        "396c0f689b9d04ab00f8817f46b3e2123c4e5983a9c59d41f302a71ee0c12b63")
    assert decompress(compressed.data) == word97
