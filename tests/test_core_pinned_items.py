"""Pinned item-stream decode: planes and typed errors.

The container pins (``test_core_pinned_knobs.py``,
``benchmarks/artifact_digests.py``) fix the wire bytes, and
``test_core_pinned_tables.py`` fixes phase one's native tables.  The
digests below fix what the item decoder makes of the streams, on
whichever kernel backend runs the test:

* the planes (indices, kinds, values, lengths, starts) of every item
  stream of word97@0.05, under the default knobs, under absolute branch
  targets, and for a 4-segment container;
* the error ``(class, message)`` that truncated-target, dangling-byte and
  unknown-index variants of 20 of those streams raise.
"""

import hashlib

import pytest

from repro.core import compress
from repro.core import partition as partition_module
from repro.core.decompressor import open_container
from repro.errors import CorruptContainer
from repro.kernels import KIND_PLAIN
from repro.workloads import benchmark_program


def _planes_digest(reader) -> str:
    digest = hashlib.sha256()
    for findex in range(reader.function_count):
        planes = reader.item_planes(findex)
        digest.update(repr((planes.indices, planes.kinds, planes.values,
                            planes.lengths, planes.starts)).encode())
    return digest.hexdigest()


def _variants(reader, findex):
    """Corrupt forms of stream ``findex``: cut one byte short of the end
    of its last target (when an item carries one; the items after it are
    plain, two bytes each), one byte appended, and its first index
    replaced by the first index past its segment's table."""
    stream = reader.sections.item_streams[findex]
    kinds = reader.item_planes(findex).kinds
    if set(kinds) - {KIND_PLAIN}:
        plain_tail = 0
        while kinds[-1 - plain_tail] == KIND_PLAIN:
            plain_tail += 1
        yield "truncated-target", stream[:len(stream) - 2 * plain_tail - 1]
    yield "dangling-byte", stream + b"\x00"
    past = len(reader.layout_for_function(findex).table)
    yield "unknown-index", past.to_bytes(2, "little") + stream[2:]


def _errors_digest(reader) -> str:
    """Errors of 20 streams, spread over sizes, under each variant."""
    candidates = list(range(reader.function_count))
    candidates.sort(key=lambda findex: len(reader.sections.item_streams[findex]))
    step = max(1, len(candidates) // 20)
    chosen = candidates[::step][-20:]
    assert len(chosen) == 20
    streams = reader.sections.item_streams
    digest = hashlib.sha256()
    for findex in chosen:
        original = streams[findex]
        for name, corrupt in _variants(reader, findex):
            streams[findex] = corrupt
            try:
                with pytest.raises(CorruptContainer) as caught:
                    reader.item_planes(findex)
            finally:
                streams[findex] = original
            digest.update(repr((findex, name, type(caught.value).__name__,
                                str(caught.value))).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def word97():
    return benchmark_program("word97", 0.05)


@pytest.fixture(scope="module")
def readers(word97):
    saved = partition_module.SEGMENT_CAPACITY
    partition_module.SEGMENT_CAPACITY = 8000
    try:
        multi = compress(word97, common_budget=80)
    finally:
        partition_module.SEGMENT_CAPACITY = saved
    assert multi.partition_stats["segments"] == 4
    return {
        "default": open_container(compress(word97).data),
        "absolute": open_container(
            compress(word97, branch_targets="absolute").data),
        "segments": open_container(multi.data),
    }


@pytest.mark.parametrize("name, digest", [
    ("default",
     "68d2e1a2f1669c7c43fc5f774bff5d2e36134b2b28ee559062eb50fbbdca550d"),
    ("absolute",
     "67aa069c79a00d5f37146456f6326e29e4cc16c006d36cd4b9f650ed194d5397"),
    ("segments",
     "66badb035e0b4a49d2e182290855c6796476655ed1d885530dae3e886088410e"),
], ids=["default", "absolute", "segments"])
def test_item_planes(readers, name, digest):
    assert _planes_digest(readers[name]) == digest


@pytest.mark.parametrize("name, digest", [
    ("default",
     "e9a2b0ca4c7e90265e2b3b10e577ea189df4895cdef9f86f8ba5f0dd716ef2fd"),
    ("absolute",
     "2ce4c64b7b31d78c5b7863f0288810cc02b2325027eebb76513805674506b2a3"),
    ("segments",
     "3d5bc0dcecbbe4fcb8abe6b1c99293af08e74e7808e0cc171a907e31aebaff42"),
], ids=["default", "absolute", "segments"])
def test_item_stream_errors(readers, name, digest):
    assert _errors_digest(readers[name]) == digest
