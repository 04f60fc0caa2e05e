"""Differential properties: fast decoders vs their scalar references.

Every speculative decoder must be *observationally identical* to the
scalar decoder it accelerates: same decoded values on well-formed input,
and — because it bails to the scalar path on any anomaly — the same
``repro.errors`` exception type, message, and offset on corrupt input.
These properties are what let the format layers pick a backend purely on
speed.

Varint runs, LZ77 and whole containers run under both backends
(skipping the numpy half when numpy is unavailable); item streams run
through the column loop and through ``_decode_planes_scalar``.  Each
property compares outcomes, where an outcome is either the returned
value or ``(type, message, offset)`` of the raised exception.  The
batch-size gates of the varint and LZ77 kernels are lowered for the
whole module so hypothesis-sized inputs actually exercise the vectorized
paths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core import compress, decompress
from repro.core.items import (
    _decode_planes_scalar,
    decode_item_planes,
    resolve_plane_targets,
)
from repro.kernels import KIND_PLAIN
from repro.errors import ReproError
from repro.faults.injector import ContainerCorruptor
from repro.lz import lz77
import repro.lz.varint as varint_mod
from repro.lz.varint import ByteReader, ByteWriter, decode_uvarint

from .strategies import item_layouts, programs

needs_numpy = pytest.mark.skipif(not kernels.has_numpy(),
                                 reason="numpy not installed")

_BACKENDS = ("python", "numpy") if kernels.has_numpy() else ("python",)


@pytest.fixture(autouse=True, scope="module")
def _force_kernel_paths():
    """Lower the size gates so small test inputs hit the bulk kernels."""
    saved = (varint_mod._RUN_KERNEL_MIN, lz77.TABLE_MIN_BYTES)
    varint_mod._RUN_KERNEL_MIN = 1
    lz77.TABLE_MIN_BYTES = 0
    yield
    varint_mod._RUN_KERNEL_MIN, lz77.TABLE_MIN_BYTES = saved


def outcomes(fn):
    """Run ``fn`` once per backend; return ``{backend: outcome}``.

    An outcome is ``("ok", value)`` or ``("err", type, message, offset)``.
    Exceptions must belong to the ``repro.errors`` taxonomy — anything
    else (IndexError, numpy errors escaping a kernel) fails the test
    outright.
    """
    results = {}
    for name in _BACKENDS:
        previous = kernels.set_backend(name)
        try:
            try:
                results[name] = ("ok", fn())
            except ReproError as exc:
                results[name] = ("err", type(exc), str(exc),
                                 getattr(exc, "offset", None))
        finally:
            kernels.set_backend(previous)
    return results


def assert_identical(fn):
    results = outcomes(fn)
    distinct = set()
    for name, outcome in results.items():
        distinct.add(repr(outcome))
    assert len(distinct) == 1, f"backends disagree: {results}"
    return next(iter(results.values()))


# -- item streams ------------------------------------------------------------
#
# Item streams have one decoder on every backend: a loop over the layout's
# columns that re-runs the reference ``_decode_planes_scalar`` on any
# anomaly.  The properties below hold the loop to the reference.

def loop_and_reference(fn):
    """Run ``fn(decode)`` with the loop and with the reference decoder;
    assert both outcomes are identical and return the loop's."""
    results = []
    for decode in (decode_item_planes, _decode_planes_scalar):
        try:
            results.append(("ok", fn(decode)))
        except ReproError as exc:
            results.append(("err", type(exc), str(exc),
                            getattr(exc, "offset", None)))
    loop, reference = results
    assert repr(loop) == repr(reference), f"loop {loop} != reference {reference}"
    return loop


@st.composite
def item_streams(draw):
    """A structurally valid item stream over a random layout.

    Target *bytes* are arbitrary, so displacements may leave the
    function — that is exactly what ``resolve_plane_targets`` must
    reject identically after either decoder.
    """
    layout = draw(item_layouts())
    count = draw(st.integers(min_value=0, max_value=40))
    writer = ByteWriter()
    for _ in range(count):
        index = draw(st.integers(min_value=0,
                                 max_value=len(layout.widths) - 1))
        writer.write_u16(index)
        width = layout.widths[index]
        if width:
            writer.write_bytes(draw(st.binary(min_size=width,
                                              max_size=width)))
    return layout, writer.getvalue()


@given(item_streams())
def test_item_planes_identical_on_valid_streams(stream):
    layout, blob = stream
    outcome = loop_and_reference(lambda decode: decode(blob, layout))
    assert outcome[0] == "ok"
    planes = outcome[1]
    assert planes.count == len(planes.kinds) == len(planes.values)
    assert planes.count == len(planes.lengths) == len(planes.starts)
    assert planes.lengths == [layout.lengths[index]
                              for index in planes.indices]
    assert planes.starts == [sum(planes.lengths[:i])
                             for i in range(planes.count)]
    assert all(value == 0 for kind, value in zip(planes.kinds, planes.values)
               if kind == KIND_PLAIN)


@given(item_streams())
def test_target_resolution_identical(stream):
    layout, blob = stream
    loop_and_reference(
        lambda decode: resolve_plane_targets(decode(blob, layout)))


@given(item_streams(), st.data())
def test_corrupt_item_streams_fail_identically(stream, data):
    layout, blob = stream
    corrupted = bytearray(blob)
    action = data.draw(st.sampled_from(["flip", "truncate", "extend"]),
                       label="corruption")
    if action == "flip" and corrupted:
        position = data.draw(
            st.integers(min_value=0, max_value=len(corrupted) - 1))
        corrupted[position] ^= data.draw(st.integers(min_value=1,
                                                     max_value=255))
    elif action == "truncate" and corrupted:
        cut = data.draw(st.integers(min_value=0,
                                    max_value=len(corrupted) - 1))
        del corrupted[cut:]
    else:
        corrupted += data.draw(st.binary(min_size=1, max_size=7))
    corrupted = bytes(corrupted)

    def decode(decoder):
        planes = decoder(corrupted, layout)
        return planes, resolve_plane_targets(planes)

    loop_and_reference(decode)


# -- varint runs -------------------------------------------------------------

_U64 = st.integers(min_value=0, max_value=2**63 - 1)
_S64 = st.integers(min_value=-(2**62), max_value=2**62 - 1)


@given(st.lists(_U64, max_size=30), st.integers(min_value=0, max_value=4))
def test_uvarint_run_identical(values, extra):
    writer = ByteWriter()
    for value in values:
        writer.write_uvarint(value)
    data = writer.getvalue()
    count = len(values) + extra  # extra > 0 runs off the end: truncation

    def decode():
        reader = ByteReader(data)
        decoded = reader.read_uvarint_run(count)
        return decoded, reader.position

    outcome = assert_identical(decode)
    if extra == 0:
        assert outcome == ("ok", (values, len(data)))


@given(st.lists(_S64, max_size=30), st.integers(min_value=0, max_value=4))
def test_svarint_run_identical(values, extra):
    writer = ByteWriter()
    for value in values:
        writer.write_svarint(value)
    data = writer.getvalue()
    count = len(values) + extra

    def decode():
        reader = ByteReader(data)
        decoded = reader.read_svarint_run(count)
        return decoded, reader.position

    outcome = assert_identical(decode)
    if extra == 0:
        assert outcome == ("ok", (values, len(data)))


@given(st.binary(max_size=120), st.integers(min_value=1, max_value=24))
def test_varint_runs_identical_on_random_bytes(data, count):
    """Arbitrary bytes: overlong varints, truncation — same errors."""
    def decode():
        reader = ByteReader(data)
        decoded = reader.read_uvarint_run(count)
        return decoded, reader.position

    assert_identical(decode)


@needs_numpy
@given(st.binary(min_size=1, max_size=300))
def test_uvarint_table_matches_scalar(data):
    from repro.kernels.varints import uvarint_table

    values, nexts = uvarint_table(data)
    assert len(values) == len(nexts) == len(data)
    for offset in range(len(data)):
        if nexts[offset] >= 0:
            assert decode_uvarint(data, offset) == (values[offset],
                                                    nexts[offset])
        else:
            # Undecodable marker: the scalar varint here is truncated,
            # or longer than the table's five-byte reach.
            try:
                _, end = decode_uvarint(data, offset)
            except ReproError:
                continue
            assert end - offset > 5


# -- LZ77 --------------------------------------------------------------------

@given(st.binary(max_size=4096), st.binary(max_size=1024))
def test_lz77_roundtrip_identical(payload, base):
    compressed = lz77.compress(payload, base=base, window=None)
    outcome = assert_identical(lambda: lz77.decompress(compressed, base=base))
    assert outcome == ("ok", payload)


@given(st.binary(min_size=1, max_size=1024), st.binary(max_size=512),
       st.data())
def test_lz77_corrupt_streams_fail_identically(payload, base, data):
    compressed = bytearray(lz77.compress(payload, base=base, window=None))
    position = data.draw(
        st.integers(min_value=0, max_value=len(compressed) - 1))
    mask = data.draw(st.integers(min_value=1, max_value=255))
    compressed[position] ^= mask
    blob = bytes(compressed)
    assert_identical(lambda: lz77.decompress(blob, base=base))


@given(st.binary(max_size=512))
def test_lz77_random_bytes_fail_identically(data):
    assert_identical(lambda: lz77.decompress(data))


# -- whole containers --------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(programs(max_functions=4, max_function_size=25))
def test_decompress_identical_across_backends(program):
    container = compress(program).data
    outcome = assert_identical(lambda: decompress(container))
    assert outcome == ("ok", program)


def test_corrupted_containers_fail_identically():
    """Structure-aware fault sweep: every corruption decodes to the same
    program or raises the same taxonomy error on both backends."""
    program = compress_target_program()
    container = compress(program).data
    corruptor = ContainerCorruptor(container, seed=1234)
    for corruption in corruptor.corruptions(56):
        blob = corruption.data
        assert_identical(lambda: decompress(blob))


def compress_target_program():
    from repro.workloads import benchmark_program

    return benchmark_program("compress", scale=0.2)
