"""Layout invariance: physical placement never changes decoded bytes.

The profile-guided layout (docs/LAYOUT.md) reorders item streams and
attaches an advisory hint section.  The format contract under test:

* decoding a profile-reordered container is **identical** to decoding
  the source-order container — same functions, same instructions, same
  wire encodings — for any program and any permutation;
* a corrupt profile-hint section degrades to no-hint behaviour (clean
  decode, hints gone), never to wrong bytes;
* a corrupt function-order section is *fatal* (a silent remap would
  attach the wrong body to a function name).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compress as ssd_compress
from repro.core import container as container_mod
from repro.core import decompress, open_container
from repro.core.hints import ProfileHints, encode_hints
from repro.errors import CorruptContainer
from repro.faults.harness import sweep
from repro.isa.encoding import encode_function
from repro.profile import AccessProfile, LayoutPlan, build_plan

from .strategies import programs


@st.composite
def programs_with_plans(draw):
    """A random program plus a random (valid) layout plan for it."""
    program = draw(programs(min_functions=2, max_functions=6))
    count = len(program.functions)
    order = draw(st.permutations(range(count)))
    hot = tuple(order[:max(1, count // 2)])
    edges = tuple((order[i], order[i + 1], draw(st.integers(1, 9)))
                  for i in range(count - 1)
                  if order[i] != order[i + 1])
    return program, LayoutPlan(order=tuple(order), hot=hot, edges=edges)


@settings(max_examples=40, deadline=None)
@given(programs_with_plans())
def test_reordered_decode_byte_identical(program_and_plan):
    program, plan = program_and_plan
    plain = ssd_compress(program).data
    profiled = ssd_compress(program, layout_plan=plan).data
    if plan.is_identity:
        # Identity placement still appends order + hint sections.
        assert len(profiled) >= len(plain)
    decoded_plain = decompress(plain)
    decoded_profiled = decompress(profiled)
    assert decoded_profiled == decoded_plain == program
    # Byte-identical, not just equal: compare each function's wire form.
    for fn_plain, fn_prof in zip(decoded_plain.functions,
                                 decoded_profiled.functions):
        assert encode_function(fn_plain) == encode_function(fn_prof)


@settings(max_examples=25, deadline=None)
@given(programs(min_functions=2, max_functions=5))
def test_planned_reader_decode_matches_source(program):
    """A trace-built plan moves bodies, yet the reader's per-function
    decode of the planned container still returns the source program."""
    count = len(program.functions)
    plan = build_plan(
        AccessProfile.from_trace([i % count for i in range(3 * count)]),
        count)
    reader = open_container(ssd_compress(program, layout_plan=plan).data)
    decoded = [reader.function(f) for f in range(reader.function_count)]
    assert [fn.insns for fn in decoded] == \
        [fn.insns for fn in program.functions]


@pytest.fixture(scope="module")
def profiled_container():
    from repro.workloads import benchmark_program

    program = benchmark_program("word97", scale=0.02)
    count = len(program.functions)
    # Descending walk: the affinity chain packs functions in reverse,
    # so the plan genuinely moves bodies around.
    trace = [count - 1 - (i % count) for i in range(4 * count)]
    plan = build_plan(AccessProfile.from_trace(trace), count)
    assert not plan.is_identity
    return program, ssd_compress(program).data, \
        ssd_compress(program, layout_plan=plan).data


class TestHintFaultInjection:
    def _hint_region(self, data: bytes):
        report = container_mod.integrity_report(data)
        spans = {span.name: span for span in report.spans}
        assert "profile_hints" in spans and "function_order" in spans
        return spans

    def test_corrupt_hints_degrade_to_no_hint_same_bytes(
            self, profiled_container):
        program, _, profiled = profiled_container
        span = self._hint_region(profiled)["profile_hints"]
        for offset in range(span.data_offset,
                            span.data_offset + span.length,
                            max(1, span.length // 17)):
            corrupt = bytearray(profiled)
            corrupt[offset] ^= 0xFF
            sections = container_mod.parse(bytes(corrupt))
            assert sections.profile_hints_blob == b""  # hints dropped
            assert decompress(bytes(corrupt)) == program  # bytes intact

    def test_corrupt_order_is_fatal(self, profiled_container):
        _, _, profiled = profiled_container
        span = self._hint_region(profiled)["function_order"]
        for offset in range(span.data_offset,
                            span.data_offset + span.length,
                            max(1, span.length // 17)):
            corrupt = bytearray(profiled)
            corrupt[offset] ^= 0xFF
            with pytest.raises(CorruptContainer):
                container_mod.parse(bytes(corrupt))

    def test_sweep_harness_over_profiled_container(self, profiled_container):
        """Random structured corruption over the whole profiled
        container: every case either raises a typed error or decodes a
        valid program — never crashes, never silently mis-decodes."""
        _, _, profiled = profiled_container
        report = sweep(profiled, cases=60, seed=7)
        assert report.ok, report.format()

    def test_truncated_hint_section_degrades(self, profiled_container):
        program, _, profiled = profiled_container
        span = self._hint_region(profiled)["profile_hints"]
        # Slice a few bytes out of the hint payload: its CRC fails,
        # so the parse keeps the container and drops the hints.
        corrupt = profiled[:span.data_offset + span.length - 3] + \
            profiled[span.data_offset + span.length:]
        try:
            sections = container_mod.parse(corrupt)
        except CorruptContainer:
            return  # rejecting outright is also safe
        assert sections.profile_hints_blob == b""
        assert decompress(corrupt) == program

    def test_oversized_hint_payload_rejected_by_decoder(self):
        from repro.core.hints import MAX_HINT_EDGES, decode_hints
        from repro.lz.varint import ByteWriter

        writer = ByteWriter()
        writer.write_uvarint(1)  # version
        writer.write_uvarint(0)  # no hot entries
        writer.write_uvarint(MAX_HINT_EDGES + 1)
        with pytest.raises(CorruptContainer):
            decode_hints(writer.getvalue())

    def test_readers_expose_hints_until_corrupted(self, profiled_container):
        from repro.core.decompressor import open_container

        _, plain, profiled = profiled_container
        assert open_container(plain).profile_hints is None
        hints = open_container(profiled).profile_hints
        assert isinstance(hints, ProfileHints) and hints

    def test_undecodable_hint_blob_on_reader_degrades(self):
        """A hint blob that passes CRC but fails structural decode is
        still advisory: the reader answers ``None``."""
        from repro.core.decompressor import open_container
        from repro.isa import assemble

        program = assemble(
            "func main\n    li r1, 1\n    trap 1\n    ret\nend\n")
        data = ssd_compress(
            program, layout_plan=LayoutPlan.identity(1)).data
        sections = container_mod.parse(data)
        sections.profile_hints_blob = b"\xff\xff\xff\xff"  # bad version
        rebuilt = container_mod.serialize(sections)
        assert open_container(rebuilt).profile_hints is None

    def test_hints_without_order_rejected_at_serialize(self):
        from repro.isa import assemble

        program = assemble(
            "func main\n    li r1, 1\n    trap 1\n    ret\nend\n")
        sections = container_mod.parse(ssd_compress(program).data)
        sections.profile_hints_blob = encode_hints(
            ProfileHints(hot=(0,)))
        with pytest.raises(CorruptContainer):
            container_mod.serialize(sections)


class TestSerializeRoundTrip:
    def test_profiled_container_reserializes_identically(
            self, profiled_container):
        _, plain, profiled = profiled_container
        assert container_mod.serialize(
            container_mod.parse(profiled)) == profiled
        assert container_mod.serialize(container_mod.parse(plain)) == plain
