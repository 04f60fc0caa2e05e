"""Tests for lazy incremental decompression (repro.core.lazy).

``LazyProgram`` is the one paging core, and ``RemoteProgram`` is a
``LazyProgram`` over a served container.  Every test class below runs
on a local program; its ``TestRemote*`` twin at the end of the module
runs the same tests on a ``RemoteProgram`` paging from a live server.
"""

import hashlib

import pytest

from repro.core import compress
from repro.core.lazy import LazyProgram, lazy_program
from repro.isa import assemble
from repro.serve import RemoteProgram, ServeClient, serve_in_thread
from repro.vm import run_program

SOURCE = """
func main
    li r2, 3
    call used
    trap 1
    ret
end
func used
    add r1, r2, r2
    ret
end
func never_called
    li r1, 999
    ret
end
func also_dead
    li r1, 998
    ret
end
"""


@pytest.fixture()
def make_lazy():
    """Container bytes -> a program that pages its functions lazily."""
    return lazy_program


@pytest.fixture()
def lazy(make_lazy):
    return make_lazy(compress(assemble(SOURCE)).data)


class TestLazyProgram:
    def test_nothing_materialized_up_front(self, lazy):
        assert lazy.decompressed_count == 0

    def test_runs_directly_in_interpreter(self, lazy):
        result = run_program(lazy)
        assert result.output == [6]

    def test_only_executed_functions_decompressed(self, lazy):
        run_program(lazy)
        assert lazy.decompressed_functions == {0, 1}
        assert lazy.decompressed_fraction == pytest.approx(0.5)

    def test_output_matches_eager_decompression(self, make_lazy):
        program = assemble(SOURCE)
        data = compress(program).data
        eager = run_program(program)
        lazy = make_lazy(data)
        assert run_program(lazy).output == eager.output

    def test_materialized_functions_cached(self, lazy):
        first = lazy.functions[1]
        second = lazy.functions[1]
        assert first is second

    def test_materialized_matches_original(self, lazy):
        program = assemble(SOURCE)
        for findex in range(len(program.functions)):
            assert lazy.functions[findex].insns == program.functions[findex].insns

    def test_len_and_iteration(self, lazy):
        assert len(lazy.functions) == 4
        names = [fn.name for fn in lazy.functions]
        assert names == ["main", "used", "never_called", "also_dead"]

    def test_negative_index(self, lazy):
        assert lazy.functions[-1].name == "also_dead"

    def test_out_of_range_rejected(self, lazy):
        with pytest.raises(IndexError):
            lazy.functions[99]

    def test_slicing_rejected(self, lazy):
        with pytest.raises(TypeError):
            lazy.functions[0:2]

    def test_prefetch(self, lazy):
        lazy.prefetch([2, 3])
        assert lazy.decompressed_functions == {2, 3}

    def test_metadata_exposed(self, lazy):
        assert lazy.entry == 0
        assert lazy.name == "asm"
        assert lazy.reader.function_count == 4


class TestPrefetch:
    def test_prefetch_already_materialized_is_idempotent(self, lazy):
        lazy.prefetch([1])
        first = lazy.functions[1]
        lazy.prefetch([1, 1])
        assert lazy.functions[1] is first
        assert lazy.decompressed_functions == {1}
        assert lazy.decompressed_count == 1

    def test_prefetch_out_of_range_raises(self, lazy):
        with pytest.raises(IndexError):
            lazy.prefetch([99])
        with pytest.raises(IndexError):
            lazy.prefetch([-5])

    def test_prefetch_partial_failure_keeps_earlier_fetches(self, lazy):
        # Indices are fetched in order; the bad one raises after the
        # good one has already landed.
        with pytest.raises(IndexError):
            lazy.prefetch([2, 99])
        assert lazy.decompressed_functions == {2}

    def test_prefetch_everything(self, lazy):
        lazy.prefetch(range(len(lazy.functions)))
        assert lazy.decompressed_fraction == 1.0

    def test_prefetch_empty_is_a_noop(self, lazy):
        lazy.prefetch([])
        assert lazy.decompressed_count == 0


class TestDecompressedFraction:
    def test_fraction_starts_at_zero(self, lazy):
        assert lazy.decompressed_fraction == 0.0

    def test_fraction_tracks_each_materialization(self, lazy):
        lazy.functions[0]
        assert lazy.decompressed_fraction == pytest.approx(0.25)
        lazy.functions[3]
        assert lazy.decompressed_fraction == pytest.approx(0.5)
        # Re-touching an already materialized function changes nothing.
        lazy.functions[0]
        assert lazy.decompressed_fraction == pytest.approx(0.5)

    def test_two_lazy_views_track_independently(self, make_lazy):
        data = compress(assemble(SOURCE)).data
        first = make_lazy(data)
        second = make_lazy(data)
        first.functions[0]
        assert first.decompressed_count == 1
        assert second.decompressed_count == 0


class TestLazyBenchmark:
    def test_benchmark_program_runs_lazily(self, make_lazy):
        from repro.workloads import benchmark_program, clear_cache

        program = benchmark_program("compress", scale=0.5)
        data = compress(program).data
        lazy = make_lazy(data)
        eager = run_program(program, fuel=3_000_000)
        result = run_program(lazy, fuel=3_000_000)
        assert result.output == eager.output
        # A phased driver never touches everything.
        assert 0 < lazy.decompressed_count <= len(program.functions)
        clear_cache()


@pytest.fixture(scope="module")
def server():
    with serve_in_thread() as handle:
        yield handle


class RemoteArm:
    """Re-runs the inherited tests on a ``RemoteProgram``."""

    @pytest.fixture()
    def make_lazy(self, server):
        with ServeClient(*server.address) as client:
            yield lambda data: RemoteProgram(client, data)


class TestRemoteProgram(RemoteArm, TestLazyProgram):
    def test_is_a_lazy_program_over_the_served_container(self, make_lazy):
        data = compress(assemble(SOURCE)).data
        remote = make_lazy(data)
        assert isinstance(remote, LazyProgram)
        assert remote.container_id == hashlib.sha256(data).hexdigest()
        assert remote.meta.function_names == [
            "main", "used", "never_called", "also_dead"]


class TestRemotePrefetch(RemoteArm, TestPrefetch):
    pass


class TestRemoteDecompressedFraction(RemoteArm, TestDecompressedFraction):
    pass


class TestRemoteBenchmark(RemoteArm, TestLazyBenchmark):
    pass
