"""Pinned outputs of the layers that read decoded base entries.

The container pins (``test_core_pinned_knobs.py``,
``benchmarks/artifact_digests.py``) fix the wire bytes.  The digests
below fix what the decode side makes of them, independently of the
oracles in ``test_jit_table.py`` and ``test_decode_table.py``:

* every :class:`TableEntry` (bytes, hole offset and size, call flag) of
  phase one's instruction tables for word97@0.05, under the default
  knobs, under absolute branch targets, and for a 4-segment container;
* the shared base :func:`train_shared_base` trains over three corpus
  programs;
* the Table 1 rows :func:`measure_redundancy` gives for two corpus
  programs.
"""

import dataclasses
import hashlib

import pytest

from repro.analysis import measure_redundancy
from repro.core import compress
from repro.core import partition as partition_module
from repro.core.decompressor import open_container
from repro.delta import train_shared_base
from repro.jit.instruction_table import build_tables
from repro.workloads import benchmark_program


def _table_digest(data: bytes) -> str:
    digest = hashlib.sha256()
    tables = build_tables(open_container(data), use_cache=False).tables
    for table in tables:
        digest.update(b"segment")
        for entry in table:
            digest.update(repr((entry.data, entry.hole_offset,
                                entry.hole_size, entry.is_call)).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def word97():
    return benchmark_program("word97", 0.05)


@pytest.mark.parametrize("knobs, digest", [
    ({},
     "b4c03cc3c4128512466a4c6b3d53427c785e51653a2bd68cfb35136961e9d030"),
    ({"branch_targets": "absolute"},
     "9743fd9c468f2261b37c810900644799d64f7f7e02ec3b730c98fd4e8c58f065"),
], ids=["default", "absolute"])
def test_native_table_entries(word97, knobs, digest):
    assert _table_digest(compress(word97, **knobs).data) == digest


def test_native_table_entries_multi_segment(word97, monkeypatch):
    monkeypatch.setattr(partition_module, "SEGMENT_CAPACITY", 8000)
    compressed = compress(word97, common_budget=80)
    assert compressed.partition_stats["segments"] == 4
    assert _table_digest(compressed.data) == (
        "6cc058e6d2d892b0f786bd31f1581cb1e5d10a941d5b047e1805a006b00c9ec2")


def test_shared_base_bytes():
    programs = [benchmark_program(name, 0.05)
                for name in ("go", "perl", "xlisp")]
    data = train_shared_base(programs)
    assert hashlib.sha256(data).hexdigest() == (
        "7d38582fed7041b45399c2e600647f02c1c92ad6538d04c532b798590d39bded")


@pytest.mark.parametrize("name, digest", [
    ("gcc",
     "94ca0ed8eb68b6860694d4021d44e1dbb474c2884905149b62a8603770e54f07"),
    ("compress",
     "62340f45a12fb9b21c802c68de383a118951fcd943b619fafb16a3f55aac9a7c"),
], ids=["gcc", "compress"])
def test_redundancy_rows(name, digest):
    stats = measure_redundancy(benchmark_program(name, 0.05))
    row = repr(dataclasses.astuple(stats)).encode()
    assert hashlib.sha256(row).hexdigest() == digest
