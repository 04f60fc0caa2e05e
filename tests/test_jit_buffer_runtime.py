"""Tests for the translation buffer policy and the constrained runtime."""

import pytest

from repro.errors import BufferCapacityError
from repro.jit import (
    PERMANENT_SIZE_THRESHOLD,
    PureLRUBuffer,
    PureRoundRobinBuffer,
    RuntimeConfig,
    SSD_COSTS,
    TranslationBuffer,
    baseline_execution_cycles,
    simulate,
    sweep_buffer_sizes,
)
from repro.workloads import TraceSpec, generate_trace


class TestBufferPolicy:
    def test_miss_then_hit(self):
        buf = TranslationBuffer(capacity=10_000)
        assert buf.call(0, 1000) is False
        assert buf.call(0, 1000) is True
        assert buf.stats.hits == 1
        assert buf.stats.misses == 1

    def test_small_functions_go_permanent(self):
        buf = TranslationBuffer(capacity=10_000)
        buf.call(0, PERMANENT_SIZE_THRESHOLD - 1)
        assert 0 in buf.permanent

    def test_large_function_starts_in_round_robin(self):
        buf = TranslationBuffer(capacity=100_000)
        buf.call(0, 5000)
        assert 0 in buf.round_robin

    def test_churned_function_promoted_to_permanent(self):
        # Re-translate a large function until size * count exceeds the
        # round-robin area.
        buf = TranslationBuffer(capacity=10_000)
        size = 4000
        churn = [1, 2, 3]  # other functions that force evictions
        promoted = False
        for round_ in range(10):
            buf.call(0, size)
            if 0 in buf.permanent:
                promoted = True
                break
            for other in churn:
                buf.call(other, 3000)
        assert promoted

    def test_eviction_is_fifo(self):
        buf = TranslationBuffer(capacity=10_000)
        buf.call(0, 4000)
        buf.call(1, 4000)
        buf.call(2, 4000)  # evicts function 0
        assert not buf.resident(0)
        assert buf.resident(1)
        assert buf.resident(2)

    def test_function_larger_than_buffer_rejected(self):
        buf = TranslationBuffer(capacity=1000)
        with pytest.raises(BufferCapacityError):
            buf.call(0, 2000)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TranslationBuffer(capacity=0)

    def test_translated_bytes_accumulate(self):
        buf = TranslationBuffer(capacity=5000)
        buf.call(0, 3000)
        buf.call(1, 3000)  # evicts 0
        buf.call(0, 3000)  # retranslation
        assert buf.stats.translated_bytes == 9000

    def test_permanent_area_never_exceeds_limit(self):
        buf = TranslationBuffer(capacity=10_000, permanent_fraction_limit=0.5)
        for findex in range(100):
            buf.call(findex, 400)  # small -> permanent candidates
        assert buf.permanent_bytes <= 5000

    def test_pure_round_robin_never_promotes(self):
        buf = PureRoundRobinBuffer(capacity=10_000)
        buf.call(0, 100)
        assert 0 not in buf.permanent

    def test_lru_refreshes_recency(self):
        buf = PureLRUBuffer(capacity=7000)
        buf.call(0, 3000)
        buf.call(1, 3000)
        buf.call(0, 3000)  # hit: refresh 0
        buf.call(2, 3000)  # evicts 1, not 0
        assert buf.resident(0)
        assert not buf.resident(1)


class TestRuntime:
    SIZES = [600, 5000, 8000, 1200, 3000]

    def _trace(self):
        return [0, 1, 2, 3, 4, 1, 2, 1, 0, 4] * 50

    def test_unconstrained_buffer_translates_once(self):
        trace = self._trace()
        config = RuntimeConfig(buffer_bytes=10**7, dictionary_bytes=1000,
                               costs=SSD_COSTS)
        result = simulate(self.SIZES, trace, config)
        assert result.translated_bytes == sum(self.SIZES)
        assert result.misses == len(self.SIZES)

    def test_tight_buffer_retranslates(self):
        trace = self._trace()
        loose = simulate(self.SIZES, trace,
                         RuntimeConfig(buffer_bytes=10**7, dictionary_bytes=0,
                                       costs=SSD_COSTS))
        tight = simulate(self.SIZES, trace,
                         RuntimeConfig(buffer_bytes=11_000, dictionary_bytes=0,
                                       costs=SSD_COSTS))
        assert tight.translated_bytes > loose.translated_bytes
        assert tight.hit_rate < loose.hit_rate

    def test_dictionary_charged_against_buffer(self):
        trace = self._trace()
        with_dict = simulate(self.SIZES, trace,
                             RuntimeConfig(buffer_bytes=20_000,
                                           dictionary_bytes=9_000,
                                           costs=SSD_COSTS))
        without = simulate(self.SIZES, trace,
                           RuntimeConfig(buffer_bytes=20_000,
                                         dictionary_bytes=0,
                                         costs=SSD_COSTS))
        assert with_dict.translated_bytes >= without.translated_bytes

    def test_buffer_smaller_than_dictionary_rejected(self):
        with pytest.raises(BufferCapacityError):
            simulate(self.SIZES, self._trace(),
                     RuntimeConfig(buffer_bytes=1000, dictionary_bytes=2000,
                                   costs=SSD_COSTS))

    def test_overhead_positive_and_grows_when_tight(self):
        trace = self._trace()
        baseline = baseline_execution_cycles(self.SIZES, trace)
        loose = simulate(self.SIZES, trace,
                         RuntimeConfig(buffer_bytes=10**7, dictionary_bytes=0,
                                       costs=SSD_COSTS))
        tight = simulate(self.SIZES, trace,
                         RuntimeConfig(buffer_bytes=11_000, dictionary_bytes=0,
                                       costs=SSD_COSTS))
        assert loose.overhead_pct(baseline) >= 0
        assert tight.overhead_pct(baseline) > loose.overhead_pct(baseline)


class TestSweep:
    def test_sweep_shapes(self):
        # A Zipf trace over 200 functions: hit rate should rise and
        # retranslation fall as the buffer grows.
        sizes = [400 + (i * 97) % 4000 for i in range(200)]
        trace = generate_trace(TraceSpec(function_count=200,
                                         calls_per_phase=4000, phases=3,
                                         seed=11))
        x86_size = int(sum(sizes) * 1.0)
        points = sweep_buffer_sizes(sizes, trace, x86_size,
                                    ratios=[0.2, 0.35, 0.5],
                                    dictionary_bytes=x86_size // 20,
                                    costs=SSD_COSTS)
        hit_rates = [p.hit_rate_pct for p in points]
        translated = [p.megabytes_translated for p in points]
        overheads = [p.overhead_pct for p in points]
        assert hit_rates == sorted(hit_rates)
        assert translated == sorted(translated, reverse=True)
        assert overheads == sorted(overheads, reverse=True)


class TestDeprecatedAlias:
    def test_unknown_attribute_still_raises(self):
        import repro.jit

        with pytest.raises(AttributeError):
            repro.jit.NoSuchThing_
