"""Error-path tests for the decompressor and container internals."""

import pytest

from repro.core import (
    ContainerError,
    DecompressionError,
    compress,
    open_container,
    parse,
    serialize,
)
from repro.core.container import ContainerSections, SegmentSections
from repro.isa import assemble

SOURCE = """
func main
    li r1, 5
    trap 1
    ret
end
func helper
    ret
end
"""


@pytest.fixture()
def container_bytes():
    return compress(assemble(SOURCE)).data


class TestContainerErrors:
    def test_segment_past_function_count_rejected(self, container_bytes):
        sections = parse(container_bytes)
        sections.segments[0] = SegmentSections(
            first_function=0,
            function_count=99,
            base_blob=sections.segments[0].base_blob,
            tree_blob=sections.segments[0].tree_blob,
        )
        with pytest.raises(DecompressionError, match="covers function"):
            open_container(serialize(sections))

    def test_item_stream_count_mismatch_rejected(self):
        sections = ContainerSections(
            program_name="x", entry=0, function_names=["a", "b"],
            common_base_blob=b"", common_tree_blob=b"",
            segments=[], item_streams=[b""])  # 2 names, 1 stream
        with pytest.raises(ContainerError, match="one item stream per function"):
            serialize(sections)

    def test_name_count_mismatch_rejected(self, container_bytes):
        # Rewrite the name blob to hold a different number of names.
        from repro.lz import lz77
        from repro.lz.varint import ByteWriter

        sections = parse(container_bytes)
        sections.function_names.append("ghost")
        # serialize() derives the blob from the names; parse must then
        # notice the count disagreement against the stored count... so
        # instead patch bytes directly: easiest is to assert the parse of
        # a serialize with mismatched count data fails.  Build manually:
        writer = ByteWriter()
        writer.write_bytes(b"SSD1")
        writer.write_uvarint(1)
        writer.write_bytes(b"x")
        writer.write_uvarint(0)
        writer.write_uvarint(2)  # claim 2 functions
        name_blob = lz77.compress(b"only_one")
        writer.write_uvarint(len(name_blob))
        writer.write_bytes(name_blob)
        with pytest.raises((ContainerError, EOFError)):
            parse(writer.getvalue())


class TestReaderAccessors:
    def test_layout_for_function(self, container_bytes):
        reader = open_container(container_bytes)
        assert reader.layout_for_function(0) is reader.layouts[0]
        assert reader.function_count == 2
        assert reader.entry == 0

    def test_decoded_items_lengths_cover_function(self, container_bytes):
        reader = open_container(container_bytes)
        program = assemble(SOURCE)
        for findex, fn in enumerate(program.functions):
            planes = reader.item_planes(findex)
            assert sum(planes.lengths) == len(fn.insns)
