"""Tests for ``repro.perf.profile`` and the pipeline's phase instrumentation."""

import pytest

from repro import tools
from repro.core import compress, decompress
from repro.perf import NULL_PROFILE, PhaseProfile
from repro.perf.profile import ensure
from repro.workloads import benchmark_program


@pytest.fixture(scope="module")
def small_program():
    return benchmark_program("go", scale=0.02)


class TestPhaseProfile:
    def test_phase_accumulates(self):
        profile = PhaseProfile()
        with profile.phase("a"):
            pass
        with profile.phase("a"):
            pass
        with profile.phase("b"):
            pass
        assert set(profile.timings) == {"a", "b"}
        assert profile.counts["a"] == 2
        assert profile.counts["b"] == 1
        assert profile.total == pytest.approx(sum(profile.timings.values()))

    def test_record_direct(self):
        profile = PhaseProfile()
        profile.record("x", 0.25)
        profile.record("x", 0.25)
        assert profile.timings["x"] == pytest.approx(0.5)

    def test_phase_records_on_exception(self):
        profile = PhaseProfile()
        with pytest.raises(RuntimeError):
            with profile.phase("failing"):
                raise RuntimeError("boom")
        assert "failing" in profile.timings

    def test_format_lists_every_phase(self):
        profile = PhaseProfile()
        profile.record("alpha", 0.010)
        profile.record("beta", 0.030)
        report = profile.format(title="demo")
        assert report.startswith("demo:")
        assert "alpha" in report and "beta" in report
        assert "total" in report
        assert "%" in report

    def test_null_profile_measures_nothing(self):
        with NULL_PROFILE.phase("anything"):
            pass
        NULL_PROFILE.record("anything", 1.0)
        assert NULL_PROFILE.timings == {}

    def test_ensure(self):
        profile = PhaseProfile()
        assert ensure(profile) is profile
        assert ensure(None) is NULL_PROFILE


class TestPipelinePhases:
    def test_compress_phases(self, small_program):
        profile = PhaseProfile()
        compress(small_program, profile=profile)
        for phase in ("dictionary.base_entries", "dictionary.ngrams",
                      "dictionary.segmentation", "dictionary.rewrite",
                      "partition", "layout", "items", "serialize"):
            assert phase in profile.timings, f"missing phase {phase}"
        assert profile.total > 0

    def test_decompress_phases(self, small_program):
        data = compress(small_program).data
        profile = PhaseProfile()
        decompress(data, profile=profile)
        for phase in ("parse", "dictionary_phase", "copy_phase"):
            assert phase in profile.timings, f"missing phase {phase}"

    def test_profile_does_not_change_output(self, small_program):
        plain = compress(small_program)
        profiled = compress(small_program, profile=PhaseProfile())
        assert profiled.data == plain.data


class TestCLI:
    def test_compress_profile_flag(self, tmp_path, capsys):
        out = tmp_path / "go.ssd"
        rc = tools.main(["compress", "bench:go@0.02", "-o", str(out),
                         "--profile"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "compress phases" in captured.err
        assert "dictionary.ngrams" in captured.err
        assert out.stat().st_size > 0

    def test_decompress_profile_flag(self, tmp_path, capsys):
        container = tmp_path / "go.ssd"
        assert tools.main(["compress", "bench:go@0.02",
                           "-o", str(container)]) == 0
        asm = tmp_path / "go.asm"
        rc = tools.main(["decompress", str(container), "-o", str(asm),
                         "--profile"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "decompress phases" in captured.err
        assert "copy_phase" in captured.err
