"""Graceful JIT degradation: quarantine instead of crash, correct output."""

import pytest

from repro.core import compress, open_container
from repro.errors import BufferCapacityError, CorruptContainer
from repro.faults import AllocationFaults
from repro.isa import assemble
from repro.jit import ResilientRuntime, TranslationBuffer, Translator
from repro.vm import run_program

SOURCE = """
func main
    li r2, 6
    call double
    call triple
    trap 1
    ret
end
func double
    add r1, r2, r2
    ret
end
func triple
    add r3, r2, r2
    add r1, r3, r2
    ret
end
"""


@pytest.fixture(scope="module")
def container():
    return compress(assemble(SOURCE)).data


@pytest.fixture()
def expected_output():
    return run_program(assemble(SOURCE)).output


class TestHealthyPath:
    def test_no_quarantine_on_clean_container(self, container):
        runtime = ResilientRuntime(container).prepare()
        assert not runtime.degraded
        assert runtime.quarantined == []
        assert all(runtime.execution_mode(f) == "native"
                   for f in range(runtime.reader.function_count))

    def test_run_matches_interpreter(self, container, expected_output):
        assert ResilientRuntime(container).run().output == expected_output

    def test_accepts_open_reader(self, container):
        runtime = ResilientRuntime(open_container(container)).prepare()
        assert not runtime.degraded

    def test_translates_by_block_copy(self, container):
        assert isinstance(ResilientRuntime(container).translator, Translator)


class TestAllocationFaultQuarantine:
    def test_injected_failure_quarantines_only_that_function(self, container):
        faults = AllocationFaults(fail_findexes={1})
        buffer = TranslationBuffer(1 << 16, alloc_hook=faults)
        runtime = ResilientRuntime(container, buffer=buffer).prepare()
        assert faults.injected == 1
        assert runtime.degraded
        assert runtime.execution_mode(1) == "interpreter"
        assert runtime.execution_mode(0) == "native"
        assert runtime.execution_mode(2) == "native"
        [record] = runtime.quarantined
        assert record.findex == 1 and record.stage == "buffer"
        assert "injected allocation failure" in record.error

    def test_quarantined_program_still_runs_correctly(self, container,
                                                      expected_output):
        buffer = TranslationBuffer(
            1 << 16, alloc_hook=AllocationFaults(fail_findexes={1}))
        runtime = ResilientRuntime(container, buffer=buffer)
        result = runtime.run()
        assert runtime.degraded
        assert result.output == expected_output

    def test_all_functions_quarantined_still_runs(self, container,
                                                  expected_output):
        everything = AllocationFaults(fail_findexes={0, 1, 2})
        buffer = TranslationBuffer(1 << 16, alloc_hook=everything)
        runtime = ResilientRuntime(container, buffer=buffer)
        result = runtime.run()
        assert len(runtime.quarantined) == 3
        assert result.output == expected_output

    def test_oversized_function_quarantines_without_injection(self, container):
        # A 1-byte buffer cannot hold any function: every translation
        # fails with a real (non-injected) BufferCapacityError.
        runtime = ResilientRuntime(container,
                                   buffer=TranslationBuffer(1)).prepare()
        assert all(record.stage == "buffer" for record in runtime.quarantined)
        assert len(runtime.quarantined) == runtime.reader.function_count

    def test_rate_based_faults_are_seeded(self):
        a = AllocationFaults(seed=3, rate=0.5)
        b = AllocationFaults(seed=3, rate=0.5)
        pattern_a = [self_call(a, i) for i in range(50)]
        pattern_b = [self_call(b, i) for i in range(50)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)


def self_call(faults: AllocationFaults, findex: int) -> bool:
    try:
        faults(findex, 64)
    except BufferCapacityError:
        return True
    return False


class TestTranslateStageQuarantine:
    def test_translate_failure_quarantines(self, container, monkeypatch):
        runtime = ResilientRuntime(container)

        original = Translator.translate_function

        def failing(self, findex):
            if findex == 2:
                raise CorruptContainer("item stream fails copy phase")
            return original(self, findex)

        monkeypatch.setattr(Translator, "translate_function", failing)
        runtime.prepare()
        [record] = runtime.quarantined
        assert record.findex == 2 and record.stage == "translate"
        assert runtime.execution_mode(2) == "interpreter"

    def test_report_mentions_quarantine(self, container):
        buffer = TranslationBuffer(
            1 << 16, alloc_hook=AllocationFaults(fail_findexes={0}))
        runtime = ResilientRuntime(container, buffer=buffer).prepare()
        report = runtime.report()
        assert "1 quarantined" in report
        assert "function 0 [buffer]" in report
