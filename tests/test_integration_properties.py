"""Cross-module property tests on randomly generated programs.

These pin the system-level invariants that individual module tests can't:
lazy execution equals eager execution, block-at-a-time translation equals
monolithic translation, and every compression mode preserves behaviour
end to end.
"""

from hypothesis import given, settings

from repro.core import compress, decompress, open_container
from repro.core.copy_phase import copy_translate_planes
from repro.core.lazy import lazy_program
from repro.jit import BlockTranslator, build_tables
from repro.vm import run_program

from .strategies import programs


def _outputs(program, fuel=60_000):
    from repro.vm import VMError

    try:
        result = run_program(program, fuel=fuel)
        return ("ok", tuple(result.output), result.steps)
    except VMError as exc:
        return ("fault", type(exc).__name__)


@given(programs(max_functions=4, max_function_size=25))
@settings(max_examples=25, deadline=None)
def test_property_lazy_execution_equals_eager(program):
    data = compress(program).data
    eager = _outputs(decompress(data))
    lazy = lazy_program(data)
    assert _outputs(lazy) == eager


@given(programs(max_functions=4, max_function_size=30))
@settings(max_examples=25, deadline=None)
def test_property_block_translation_stitches_to_whole_function(program):
    reader = open_container(compress(program).data)
    tables = build_tables(reader)
    translator = BlockTranslator(reader, tables)
    for findex in range(reader.function_count):
        planes = reader.item_planes(findex)
        table = tables.for_function(reader, findex)
        whole = copy_translate_planes(planes, table)
        fragments = translator.translate_whole_function(findex)
        stitched = bytearray()
        hole_positions = set()
        for fragment in fragments:
            base = len(stitched)
            for ext in fragment.external_branches:
                hole_positions.update(
                    range(base + ext.hole_offset,
                          base + ext.hole_offset + ext.hole_size))
            stitched += fragment.code
        assert len(stitched) == whole.size
        for position, (a, b) in enumerate(zip(stitched, whole.code)):
            if position not in hole_positions:
                assert a == b


@given(programs(max_functions=3, max_function_size=20))
@settings(max_examples=15, deadline=None)
def test_property_behaviour_preserved_across_all_modes(program):
    baseline = _outputs(program)
    for kwargs in ({}, {"codec": "delta"}, {"max_len": 2},
                   {"branch_targets": "absolute"}, {"match_mode": "optimal"}):
        restored = decompress(compress(program, **kwargs).data)
        assert _outputs(restored) == baseline, kwargs


@given(programs(max_functions=4, max_function_size=25))
@settings(max_examples=20, deadline=None)
def test_property_item_counts_consistent(program):
    # Items decoded from the container equal the dictionary's ref streams.
    from repro.core import build_dictionary

    dictionary = build_dictionary(program)
    reader = open_container(compress(program).data)
    for findex in range(reader.function_count):
        planes = reader.item_planes(findex)
        keys = dictionary.function_keys[findex]
        assert planes.lengths == [len(dictionary.window(key)) for key in keys]
