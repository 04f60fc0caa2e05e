"""Benchmark: optimized compression kernels.

Guards this repo's perf work rather than a paper exhibit:

* the rewritten serial kernels (packed-key n-gram counting, slice-based
  LZ77 matching, hoisted copy-phase loop) must beat the recorded seed
  baseline (``BENCH_baseline.json``) by >= 1.3x on full-pipeline compress;
* micro-benchmarks keep the kernel/legacy comparison visible (the legacy
  reference implementations live here, frozen from the seed).

Results are appended to ``BENCH_pipeline_scaling.json`` for inspection.
"""

import json
import time
from pathlib import Path

import pytest

from repro.core import compress
from repro.core.dictionary import _count_ngrams
from repro.lz import lz77

HERE = Path(__file__).resolve().parent
BASELINE = json.loads((HERE / "BENCH_baseline.json").read_text())
RESULTS_PATH = HERE / "BENCH_pipeline_scaling.json"

#: The largest corpus program; matches the recorded baseline.
LARGEST = BASELINE["program"]


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _record(entry: dict) -> None:
    existing = (json.loads(RESULTS_PATH.read_text())
                if RESULTS_PATH.exists() else [])
    existing.append(entry)
    RESULTS_PATH.write_text(json.dumps(existing, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Legacy reference kernels (frozen copies of the seed implementations).
# ---------------------------------------------------------------------------

def _legacy_count_ngrams(id_lists, max_len):
    """Seed n-gram counter: one tuple allocation per window."""
    counts = {}
    for ids in id_lists:
        n = len(ids)
        for start in range(n):
            top = min(max_len, n - start)
            for length in range(2, top + 1):
                window = tuple(ids[start:start + length])
                counts[window] = counts.get(window, 0) + 1
    return counts


def _legacy_hash4(data, pos):
    return (data[pos] | (data[pos + 1] << 8) | (data[pos + 2] << 16)
            | (data[pos + 3] << 24)) * 2654435761 & 0xFFFFFFFF


def _legacy_lz_compress(data):
    """Seed LZ77 matcher: per-position candidate list copies, byte loops."""
    from repro.lz.varint import ByteWriter

    writer = ByteWriter()
    writer.write_uvarint(len(data))
    table = {}
    pos = 0
    literal_start = 0
    n = len(data)

    def flush_literals(end):
        if end > literal_start:
            writer.write_uvarint(0)
            writer.write_uvarint(end - literal_start)
            writer.write_bytes(data[literal_start:end])

    while pos + 4 <= n:
        key = _legacy_hash4(data, pos)
        candidates = table.get(key)
        best_len = 0
        best_dist = 0
        if candidates:
            for cand in candidates[-32:][::-1]:
                dist = pos - cand
                if dist > (1 << 16):
                    continue
                length = 0
                limit = n - pos
                while length < limit and data[cand + length] == data[pos + length]:
                    length += 1
                if length > best_len:
                    best_len = length
                    best_dist = dist
        if best_len >= 4:
            flush_literals(pos)
            writer.write_uvarint(best_len - 4 + 1)
            writer.write_uvarint(best_dist)
            end = pos + best_len
            step = 1 if best_len <= 32 else 4
            while pos < end and pos + 4 <= n:
                table.setdefault(_legacy_hash4(data, pos), []).append(pos)
                pos += step
            pos = end
            literal_start = pos
        else:
            table.setdefault(key, []).append(pos)
            pos += 1
    flush_literals(n)
    return writer.getvalue()


# ---------------------------------------------------------------------------
# Full-pipeline guards against the recorded seed baseline.
# ---------------------------------------------------------------------------

def test_serial_kernels_beat_seed_baseline(context):
    """The tentpole claim: serial rewrites alone give >= 1.3x compress."""
    program = context.program(LARGEST)
    assert program.instruction_count == BASELINE["instructions"]
    # Best-of-5 to shrug off transient machine load.
    elapsed = min(_timed(lambda: compress(program)) for _ in range(5))
    speedup = BASELINE["compress_s"] / elapsed
    _record({"test": "serial_vs_seed", "compress_s": round(elapsed, 3),
             "seed_compress_s": BASELINE["compress_s"],
             "speedup": round(speedup, 2)})
    assert speedup >= 1.3, (
        f"serial compress {elapsed:.3f}s is only {speedup:.2f}x over the "
        f"seed baseline {BASELINE['compress_s']:.3f}s (need >= 1.3x)")


# ---------------------------------------------------------------------------
# Kernel micro-benchmarks: new vs frozen legacy reference.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ngram_input(context):
    from repro.core.dictionary import build_dictionary
    program = context.program(LARGEST)
    result = build_dictionary(program)
    # Recover per-function id lists from the reference columns.
    id_lists = [[base_id for key in keys for base_id in result.window(key)]
                for keys in result.function_keys]
    assert [len(ids) for ids in id_lists] == [len(fn) for fn in program.functions]
    return id_lists, result.key_bits


def test_ngram_kernel_packed(benchmark, ngram_input):
    id_lists, key_bits = ngram_input
    counts = benchmark(_count_ngrams, id_lists, 4, key_bits)
    assert counts


def test_ngram_kernel_legacy_reference(benchmark, ngram_input):
    id_lists, _ = ngram_input
    counts = benchmark(_legacy_count_ngrams, id_lists, 4)
    assert counts


def test_ngram_kernels_agree(ngram_input):
    """Packed counts must be the legacy tuple counts under a bijection."""
    id_lists, key_bits = ngram_input
    legacy = _legacy_count_ngrams(id_lists, 4)
    packed = _count_ngrams(id_lists, 4, key_bits)
    assert len(legacy) == len(packed)
    marks = [1 << (length * key_bits) for length in range(5)]
    for window, count in legacy.items():
        key = marks[len(window)]
        for offset, base_id in enumerate(window):
            key |= base_id << (offset * key_bits)
        assert packed[key] == count


@pytest.fixture(scope="module")
def lz_input(context):
    # The byte-oriented-baseline workload (analysis.ratios): a whole
    # program's VM encoding — redundant, match-rich bytes.
    from repro.analysis.ratios import encode_program
    return encode_program(context.program(LARGEST))


def test_lz77_kernel_new(benchmark, lz_input):
    out = benchmark(lz77.compress, lz_input)
    assert lz77.decompress(out) == lz_input


def test_lz77_kernel_legacy_reference(benchmark, lz_input):
    out = benchmark(_legacy_lz_compress, lz_input)
    assert out == lz77.compress(lz_input)  # output unchanged by the rewrite
