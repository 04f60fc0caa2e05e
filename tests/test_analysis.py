"""Tests for repro.analysis (redundancy, ratios, overhead, report)."""

import pytest

from repro.analysis import (
    ascii_chart,
    measure_overhead,
    measure_redundancy,
    measure_sizes,
    render_table,
)
from repro.brisc import train
from repro.isa import assemble

WORKLOAD = """
func main
    li r2, 6
    li r3, 0
loop:
    lw r4, -8(r29)
    addi r4, r4, 3
    sw r4, -8(r29)
    add r3, r3, r2
    addi r2, r2, -1
    bnez r2, loop
    call leaf
    mov r1, r3
    trap 1
    ret
end
func leaf
    li r1, 7
    lw r4, -8(r29)
    addi r4, r4, 3
    sw r4, -8(r29)
    ret
end
"""


@pytest.fixture(scope="module")
def program():
    return assemble(WORKLOAD)


class TestRedundancy:
    def test_counts(self, program):
        stats = measure_redundancy(program)
        assert stats.total_instructions == program.instruction_count
        assert 0 < stats.unique_instructions <= stats.total_instructions
        assert stats.avg_reuse >= 1.0

    def test_repeated_triple_raises_top_sequence_reuse(self, program):
        stats = measure_redundancy(program)
        # lw/addi/sw appears twice
        assert stats.top_sequence_reuse >= 2.0

    def test_digram_reuse_at_least_one(self, program):
        assert measure_redundancy(program).digram_reuse >= 1.0

    def test_x86_bytes_override(self, program):
        assert measure_redundancy(program, x86_bytes=1234).x86_bytes == 1234


class TestSizes:
    def test_all_sizes_positive(self, program):
        report = measure_sizes(program)
        assert report.x86_bytes > 0
        assert report.ssd_bytes > 0
        assert report.vm_bytes > 0
        assert report.lz_bytes > 0
        assert report.brisc_bytes is None

    def test_ratios_computed(self, program):
        report = measure_sizes(program)
        assert report.ssd_ratio == report.ssd_bytes / report.x86_bytes
        assert report.brisc_ratio is None
        assert report.lz_ratio > 0

    def test_with_brisc_dictionary(self, program):
        dictionary = train([program], budget=200)
        report = measure_sizes(program, brisc_dictionary=dictionary)
        assert report.brisc_bytes > 0
        assert report.brisc_ratio is not None

    def test_section_accounting(self, program):
        report = measure_sizes(program)
        assert report.ssd_dictionary_bytes + report.ssd_item_bytes <= report.ssd_bytes


class TestOverhead:
    def test_decomposition_consistent(self, program):
        report = measure_overhead(program, fuel=100_000)
        assert report.total_overhead_pct == pytest.approx(
            report.jit_overhead_pct + report.quality_overhead_pct, abs=1e-6)

    def test_quality_overhead_non_negative(self, program):
        # Unfused code can never be faster than fused code.
        report = measure_overhead(program, fuel=100_000)
        assert report.quality_overhead_pct >= 0

    def test_decompression_small_relative_to_execution(self, program):
        # The paper's headline: decompression contributes far less than
        # code quality at session scale.
        report = measure_overhead(program, fuel=100_000)
        assert report.jit_overhead_pct < 5.0

    def test_only_executed_functions_translated(self, program):
        report = measure_overhead(program, fuel=100_000)
        assert report.functions_executed == 2

    def test_bad_session_rejected(self, program):
        with pytest.raises(ValueError):
            measure_overhead(program, fuel=100_000, session_seconds=0)

    def test_reuses_caller_artifacts(self, program):
        from repro.core import compress
        from repro.vm import run_program

        result = run_program(program, fuel=100_000)
        data = compress(program).data
        report = measure_overhead(program, result=result, compressed_data=data)
        assert report.native_cycles > 0


class TestReport:
    def test_render_table_alignment(self):
        out = render_table(["a", "long"], [[1, 2.5], [333, None]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "333" in lines[3]
        assert "-" in lines[3]  # None cell

    def test_render_table_title(self):
        out = render_table(["x"], [[1]], title="hello")
        assert out.splitlines()[0] == "hello"

    def test_ascii_chart_contains_markers(self):
        out = ascii_chart({"s1": [1, 2, 3], "s2": [3, 2, 1]}, [0.1, 0.2, 0.3])
        assert "*" in out
        assert "+" in out
        assert "s1" in out

    def test_ascii_chart_validates_lengths(self):
        with pytest.raises(ValueError):
            ascii_chart({"s": [1, 2]}, [0.1])

    def test_ascii_chart_needs_series(self):
        with pytest.raises(ValueError):
            ascii_chart({}, [])

    def test_chart_handles_flat_series(self):
        out = ascii_chart({"flat": [5.0, 5.0]}, [0, 1])
        assert "flat" in out
