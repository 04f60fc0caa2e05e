"""Tests for repro.workloads.generator, profiles, traces and corpus."""

import pytest

from repro.core.dictionary import intern_rows
from repro.isa import validate_program
from repro.vm import run_program
from repro.workloads import (
    PROFILES,
    ProgramGenerator,
    TraceSpec,
    benchmark_program,
    clear_cache,
    corpus,
    generate_trace,
    profile,
    trace_statistics,
    training_corpus,
)

SCALE = 0.15  # tests run on scaled-down programs


@pytest.fixture(scope="module")
def small_programs():
    programs = {name: benchmark_program(name, scale=SCALE)
                for name in ("compress", "xlisp", "go")}
    yield programs
    clear_cache()


class TestProfiles:
    def test_all_nine_benchmarks_present(self):
        names = {p.name for p in PROFILES}
        assert names == {"word97", "gcc", "vortex", "perl", "go", "ijpeg",
                         "m88ksim", "xlisp", "compress"}

    def test_profiles_ordered_by_size(self):
        sizes = [p.table1.x86_bytes for p in PROFILES]
        assert sizes == sorted(sizes, reverse=True)

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            profile("doom")

    def test_paper_reuse_consistency(self):
        # Table 1's reuse column equals total/unique (sanity on transcription).
        for p in PROFILES:
            t1 = p.table1
            assert t1.total_instructions / t1.unique_instructions == pytest.approx(
                t1.avg_reuse, abs=0.11)


class TestGenerator:
    def test_deterministic(self):
        p = profile("compress")
        a = ProgramGenerator(p, scale=0.5).generate()
        b = ProgramGenerator(p, scale=0.5).generate()
        assert [fn.insns for fn in a.functions] == [fn.insns for fn in b.functions]

    def test_different_seeds_differ(self):
        p = profile("compress")
        a = ProgramGenerator(p, scale=0.5, seed=1).generate()
        b = ProgramGenerator(p, scale=0.5, seed=2).generate()
        assert [fn.insns for fn in a.functions] != [fn.insns for fn in b.functions]

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            ProgramGenerator(profile("compress"), scale=0)

    def test_generated_programs_validate(self, small_programs):
        for program in small_programs.values():
            validate_program(program)

    def test_size_near_target(self, small_programs):
        for name, program in small_programs.items():
            target = profile(name).table1.total_instructions * SCALE
            # Tiny targets carry fixed per-function overhead, so give them
            # generous headroom; larger programs must land close.
            upper = max(2.0 * target, 600)
            assert 0.5 * target <= program.instruction_count <= upper

    def test_programs_terminate_and_produce_output(self, small_programs):
        for name, program in small_programs.items():
            result = run_program(program, fuel=8_000_000)
            assert result.halted, name
            assert result.output, f"{name} produced no output"

    def test_reuse_grows_with_program_size(self):
        # The paper's core observation: larger programs re-use instructions
        # more.  Compare a small and a larger instance of the same profile.
        p = profile("go")
        small = ProgramGenerator(p, scale=0.05).generate()
        large = ProgramGenerator(p, scale=0.5).generate()

        def reuse(program):
            rows, id_lists, _ = intern_rows(program)
            return sum(map(len, id_lists)) / len(rows)

        assert reuse(large) > reuse(small)

    def test_entry_is_first_function(self, small_programs):
        for program in small_programs.values():
            assert program.entry == 0
            assert program.functions[0].name == "main"

    def test_call_graph_is_acyclic(self, small_programs):
        for program in small_programs.values():
            for findex, fn in enumerate(program.functions):
                for insn in fn.insns:
                    if insn.is_call:
                        assert insn.target > findex


class TestCorpus:
    def test_corpus_subset(self):
        pairs = corpus(scale=SCALE, names=["compress"])
        assert len(pairs) == 1
        assert pairs[0][0].name == "compress"

    def test_corpus_caching(self):
        a = benchmark_program("compress", scale=SCALE)
        b = benchmark_program("compress", scale=SCALE)
        assert a is b

    def test_training_corpus_excludes(self):
        programs = training_corpus(scale=SCALE, exclude="compress")
        assert all(p.name != "compress" for p in programs)
        assert len(programs) == 8

    def teardown_method(self):
        clear_cache()


class TestTraces:
    def test_trace_length(self):
        spec = TraceSpec(function_count=100, calls_per_phase=1000, phases=3,
                         cold_sweep=False)
        assert len(generate_trace(spec)) == 3000

    def test_cold_sweep_touches_every_non_core_function(self):
        spec = TraceSpec(function_count=100, calls_per_phase=200, phases=2,
                         core_fraction=0.0, cold_sweep=True)
        trace = generate_trace(spec)
        # Sweeps guarantee every non-core function appears at least once.
        assert len(set(trace)) >= 95

    def test_trace_deterministic(self):
        spec = TraceSpec(function_count=50, calls_per_phase=500, seed=9)
        assert generate_trace(spec) == generate_trace(spec)

    def test_trace_indices_in_range(self):
        spec = TraceSpec(function_count=40, calls_per_phase=500)
        trace = generate_trace(spec)
        assert all(0 <= f < 40 for f in trace)

    def test_popularity_is_skewed(self):
        spec = TraceSpec(function_count=200, calls_per_phase=5000)
        stats = trace_statistics(generate_trace(spec))
        # Top 10% of functions should take far more than 10% of calls.
        assert stats["top10pct_share"] > 0.4

    def test_phases_shift_working_set(self):
        spec = TraceSpec(function_count=300, calls_per_phase=3000, phases=3,
                         core_fraction=0.0)
        trace = generate_trace(spec)
        phase1 = set(trace[:3000])
        phase2 = set(trace[3000:6000])
        overlap = len(phase1 & phase2) / max(1, len(phase1))
        assert overlap < 0.5  # mostly disjoint without the shared core

    def test_core_functions_span_phases(self):
        spec = TraceSpec(function_count=300, calls_per_phase=3000, phases=3,
                         core_fraction=0.5, seed=3)
        trace = generate_trace(spec)
        phase1 = set(trace[:3000])
        phase3 = set(trace[6000:])
        assert phase1 & phase3  # the hot core appears in every phase

    def test_too_few_functions_rejected(self):
        with pytest.raises(ValueError):
            TraceSpec(function_count=1)

    def test_bad_core_fraction_rejected(self):
        with pytest.raises(ValueError):
            TraceSpec(function_count=10, core_fraction=1.5)

    def test_statistics_empty_trace(self):
        stats = trace_statistics([])
        assert stats["calls"] == 0
