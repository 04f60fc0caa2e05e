#!/usr/bin/env python
"""Pipeline-throughput regression guard.

Measures full-pipeline ``repro.core.compress`` and ``decompress``
wall-clock on the largest corpus program, writes the numbers (and
decompress's parse / dictionary-phase / copy-phase split) to
``benchmarks/BENCH_pipeline.json``, and exits non-zero if either
direction's throughput regressed more than ``--tolerance`` (default 20%)
against the recorded baseline in ``benchmarks/BENCH_baseline.json``.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py            # guard
    PYTHONPATH=src python benchmarks/check_regression.py --record   # re-baseline
    PYTHONPATH=src python benchmarks/check_regression.py --serve    # cluster gate
    PYTHONPATH=src python benchmarks/check_regression.py --skew     # skew gate
    PYTHONPATH=src python benchmarks/check_regression.py --delta    # update gate
    PYTHONPATH=src python benchmarks/check_regression.py --prefetch # layout gate

``--serve`` gates the cluster failover benchmark instead: it reads the
latest ``serve_cluster_failover`` entry from ``BENCH_serve.json``
(written by ``benchmarks/test_serve_bench.py``) and fails if losing one
shard cost more than ``--serve-degradation`` of healthy throughput —
the degraded/healthy ratio is machine-relative, so it gates graceful
degradation without a wall-clock baseline.

``--skew`` gates the traffic-skew benchmark: it reads the latest
``serve_skew`` entry from ``BENCH_serve.json`` (written by
``benchmarks/test_skew_bench.py``) and fails if Zipf-1.1 p99 latency
exceeded ``--skew-p99-ratio`` (default 2.0) times the uniform-traffic
p99, or if the hottest shard served more than ``--skew-load-ratio``
(default 1.5) times the mean per-shard load.  Both ratios are
machine-relative, so the gate needs no recorded baseline.

``--delta`` gates the delta-update wire cost: it reads the latest
``delta_update`` entry from ``BENCH_delta.json`` (written by
``benchmarks/test_delta_bench.py``) and fails if the median patch was
more than ``--delta-ratio`` (default 0.30) of a full container
transfer.  Sizes are machine-independent, so the gate needs no
recorded baseline.

``--prefetch`` gates the profile-guided layout benchmark: it reads the
latest ``serve_prefetch`` entry from ``BENCH_serve.json`` (written by
``benchmarks/test_prefetch_bench.py``) and fails unless the profiled
configuration (plan-ordered container + markov prefetch + ghost-list
admission) beat the plain-LRU/source-order baseline on the phase-shift
scenario: server-side GET_FUNCTION p99 within ``--prefetch-p99-ratio``
(default 1.0 — profiled must not be slower) and cache hit rate at least
``--prefetch-hit-gain`` higher (default 0.0).  Both comparisons happen
within one run, so the gate needs no recorded baseline.

Run it alongside the tier-1 suite when touching the compress or
decompress path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE_PATH = HERE / "BENCH_baseline.json"
RESULT_PATH = HERE / "BENCH_pipeline.json"
SERVE_RESULTS_PATH = HERE / "BENCH_serve.json"
DELTA_RESULTS_PATH = HERE / "BENCH_delta.json"


def check_serve_cluster(max_degradation: float) -> int:
    """Gate the cluster failover benchmark's degraded/healthy ratio.

    Returns 0 when losing one shard kept at least
    ``1 - max_degradation`` of healthy requests/s; 1 on a regression or
    when the benchmark has not been run yet.
    """
    if not SERVE_RESULTS_PATH.exists():
        print(f"{SERVE_RESULTS_PATH.name} missing; "
              "run benchmarks/test_serve_bench.py first")
        return 1
    entries = [entry for entry
               in json.loads(SERVE_RESULTS_PATH.read_text())
               if entry.get("benchmark") == "serve_cluster_failover"]
    if not entries:
        print("no serve_cluster_failover entry recorded; "
              "run benchmarks/test_serve_bench.py first")
        return 1
    latest = entries[-1]
    healthy = latest["healthy_requests_per_s"]
    degraded = latest["one_shard_dead_requests_per_s"]
    ratio = degraded / healthy if healthy else 0.0
    floor = 1.0 - max_degradation
    verdict = "pass" if ratio >= floor else "regression"
    print(f"cluster failover: healthy {healthy:,.0f} req/s "
          f"(p99 {latest['healthy_p99_ms']}ms), one shard dead "
          f"{degraded:,.0f} req/s (p99 {latest['one_shard_dead_p99_ms']}ms)"
          f" -> {ratio:.2f}x retained, floor {floor:.2f}x -> {verdict}")
    return 0 if verdict == "pass" else 1


def check_skew(max_p99_ratio: float, max_load_ratio: float) -> int:
    """Gate the skew benchmark's Zipf/uniform p99 and shard-load split.

    Returns 0 when Zipf-1.1 tail latency stayed within
    ``max_p99_ratio`` of the uniform-traffic tail AND the hottest
    shard's served-request count stayed within ``max_load_ratio`` of
    the per-shard mean; 1 on a regression or when the benchmark has
    not been run yet.
    """
    if not SERVE_RESULTS_PATH.exists():
        print(f"{SERVE_RESULTS_PATH.name} missing; "
              "run benchmarks/test_skew_bench.py first")
        return 1
    entries = [entry for entry
               in json.loads(SERVE_RESULTS_PATH.read_text())
               if entry.get("benchmark") == "serve_skew"]
    if not entries:
        print("no serve_skew entry recorded; "
              "run benchmarks/test_skew_bench.py first")
        return 1
    latest = entries[-1]
    uniform_p99 = latest["uniform_p99_ms"]
    zipf_p99 = latest["zipf_p99_ms"]
    p99_ratio = zipf_p99 / uniform_p99 if uniform_p99 else float("inf")
    load_ratio = latest["max_over_mean_shard_load"]
    p99_ok = p99_ratio <= max_p99_ratio
    load_ok = load_ratio <= max_load_ratio
    verdict = "pass" if p99_ok and load_ok else "regression"
    print(f"traffic skew: uniform p99 {uniform_p99}ms, zipf p99 "
          f"{zipf_p99}ms -> {p99_ratio:.2f}x (ceiling {max_p99_ratio:.1f}x,"
          f" {'pass' if p99_ok else 'regression'}); hottest shard "
          f"{load_ratio:.2f}x mean load (ceiling {max_load_ratio:.1f}x, "
          f"{'pass' if load_ok else 'regression'}); cache "
          f"{latest['cache_hits']} hits / {latest['cache_misses']} misses"
          f" -> {verdict}")
    return 0 if verdict == "pass" else 1


def check_delta(max_median_ratio: float) -> int:
    """Gate the delta-update benchmark's median patch/full ratio.

    Returns 0 when the median update patch across the corpus version
    pairs stayed at or below ``max_median_ratio`` of a full transfer;
    1 on a regression or when the benchmark has not been run yet.
    """
    if not DELTA_RESULTS_PATH.exists():
        print(f"{DELTA_RESULTS_PATH.name} missing; "
              "run benchmarks/test_delta_bench.py first")
        return 1
    entries = [entry for entry
               in json.loads(DELTA_RESULTS_PATH.read_text())
               if entry.get("benchmark") == "delta_update"]
    if not entries:
        print("no delta_update entry recorded; "
              "run benchmarks/test_delta_bench.py first")
        return 1
    latest = entries[-1]
    median = latest["median_ratio"]
    verdict = "pass" if median <= max_median_ratio else "regression"
    worst = max(latest["pairs"], key=lambda pair: pair["ratio"])
    print(f"delta update: {len(latest['pairs'])} version pairs at scale "
          f"{latest['scale']}, median patch {median:.1%} of a full "
          f"transfer (worst {worst['benchmark_name']} {worst['ratio']:.1%}),"
          f" ceiling {max_median_ratio:.0%} -> {verdict}")
    return 0 if verdict == "pass" else 1


def check_prefetch(max_p99_ratio: float, min_hit_gain: float) -> int:
    """Gate the prefetch benchmark's phase-shift scenario.

    Returns 0 when the profiled configuration (plan-ordered container +
    markov prefetch + ghost-list admission) beat the plain-LRU baseline
    across the phase shift: server-side GET_FUNCTION p99 at or below
    ``max_p99_ratio`` times baseline's, AND cache hit rate at least
    ``min_hit_gain`` above baseline's.  Both comparisons are within one
    run on one machine, so the gate needs no recorded baseline.
    Returns 1 on a regression or when the benchmark has not been run.
    """
    if not SERVE_RESULTS_PATH.exists():
        print(f"{SERVE_RESULTS_PATH.name} missing; "
              "run benchmarks/test_prefetch_bench.py first")
        return 1
    entries = [entry for entry
               in json.loads(SERVE_RESULTS_PATH.read_text())
               if entry.get("benchmark") == "serve_prefetch"]
    if not entries:
        print("no serve_prefetch entry recorded; "
              "run benchmarks/test_prefetch_bench.py first")
        return 1
    latest = entries[-1]
    shift = latest["scenarios"]["phase_shift"]
    base_p99 = shift["baseline"]["server_p99_ms"]
    prof_p99 = shift["profiled"]["server_p99_ms"]
    base_hit = shift["baseline"]["cache_hit_rate"]
    prof_hit = shift["profiled"]["cache_hit_rate"]
    p99_ratio = prof_p99 / base_p99 if base_p99 else float("inf")
    hit_gain = prof_hit - base_hit
    p99_ok = p99_ratio <= max_p99_ratio
    hit_ok = hit_gain >= min_hit_gain
    verdict = "pass" if p99_ok and hit_ok else "regression"
    print(f"prefetch phase-shift: server p99 baseline {base_p99}ms, "
          f"profiled {prof_p99}ms -> {p99_ratio:.2f}x (ceiling "
          f"{max_p99_ratio:.2f}x, {'pass' if p99_ok else 'regression'}); "
          f"hit rate {base_hit:.3f} -> {prof_hit:.3f} "
          f"({hit_gain:+.3f}, floor {min_hit_gain:+.3f}, "
          f"{'pass' if hit_ok else 'regression'}); prefetch "
          f"{shift['profiled']['prefetch_hits']} hits / "
          f"{shift['profiled']['prefetch_issued']} issued -> {verdict}")
    return 0 if verdict == "pass" else 1


def measure(program_name: str, scale: float, rounds: int) -> dict:
    """Best-of-``rounds`` compress and decompress times, plus decompress's
    phase split from its best profiled round.

    ``dictionary_phase_mb_s`` is the dictionary sections' bytes (common
    and per-segment base-entry and tree blobs) over ``dictionary_phase_s``.
    """
    from repro.core import compress, decompress, parse
    from repro.perf import PhaseProfile
    from repro.workloads import benchmark_program

    program = benchmark_program(program_name, scale=scale)
    compress_s = min(_timed(compress, program) for _ in range(rounds))
    container = compress(program)
    decompress_s = min(_timed(decompress, container.data) for _ in range(rounds))
    phases = []
    for _ in range(rounds):
        profile = PhaseProfile()
        decompress(container.data, profile=profile)
        phases.append(profile.timings)
    best = min(phases, key=lambda timings: sum(timings.values()))
    sections = parse(container.data)
    dictionary_bytes = (len(sections.common_base_blob)
                        + len(sections.common_tree_blob)
                        + sum(len(segment.base_blob) + len(segment.tree_blob)
                              for segment in sections.segments))
    return {
        "program": program_name,
        "scale": scale,
        "instructions": program.instruction_count,
        "container_bytes": container.size,
        "compress_s": compress_s,
        "decompress_s": decompress_s,
        "parse_s": best["parse"],
        "dictionary_phase_s": best["dictionary_phase"],
        "copy_phase_s": best["copy_phase"],
        "dictionary_phase_mb_s": round(
            dictionary_bytes / 1e6 / best["dictionary_phase"], 3),
    }


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program", default=None,
                        help="corpus program (default: baseline's)")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale (default: baseline's)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds; best is kept (default 3)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional throughput loss (default 0.20)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite BENCH_baseline.json from this run")
    parser.add_argument("--serve", action="store_true",
                        help="gate the cluster failover benchmark "
                             "(BENCH_serve.json) instead of the pipeline")
    parser.add_argument("--serve-degradation", type=float, default=0.6,
                        help="allowed fractional req/s loss with one "
                             "shard dead (default 0.6)")
    parser.add_argument("--skew", action="store_true",
                        help="gate the traffic-skew benchmark "
                             "(BENCH_serve.json) instead of the pipeline")
    parser.add_argument("--skew-p99-ratio", type=float, default=2.0,
                        help="allowed zipf/uniform p99 latency ratio "
                             "(default 2.0)")
    parser.add_argument("--skew-load-ratio", type=float, default=1.5,
                        help="allowed max/mean per-shard load ratio "
                             "(default 1.5)")
    parser.add_argument("--delta", action="store_true",
                        help="gate the delta-update wire-cost benchmark "
                             "(BENCH_delta.json) instead of the pipeline")
    parser.add_argument("--delta-ratio", type=float, default=0.30,
                        help="allowed median patch/full-transfer ratio "
                             "(default 0.30)")
    parser.add_argument("--prefetch", action="store_true",
                        help="gate the layout/prefetch benchmark "
                             "(BENCH_serve.json) instead of the pipeline")
    parser.add_argument("--prefetch-p99-ratio", type=float, default=1.0,
                        help="allowed profiled/baseline server p99 ratio "
                             "on the phase-shift scenario (default 1.0: "
                             "profiled must not be slower)")
    parser.add_argument("--prefetch-hit-gain", type=float, default=0.0,
                        help="required profiled-minus-baseline cache "
                             "hit-rate gain on the phase-shift scenario "
                             "(default 0.0: profiled must not be lower)")
    args = parser.parse_args(argv)

    if args.serve:
        return check_serve_cluster(args.serve_degradation)
    if args.skew:
        return check_skew(args.skew_p99_ratio, args.skew_load_ratio)
    if args.delta:
        return check_delta(args.delta_ratio)
    if args.prefetch:
        return check_prefetch(args.prefetch_p99_ratio,
                              args.prefetch_hit_gain)

    baseline = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    program = args.program or baseline.get("program", "word97")
    scale = args.scale if args.scale is not None else baseline.get("scale", 0.1)

    result = measure(program, scale, args.rounds)
    throughput = result["instructions"] / result["compress_s"]
    result["compress_insns_per_s"] = round(throughput, 1)
    decode_throughput = result["instructions"] / result["decompress_s"]
    result["decompress_insns_per_s"] = round(decode_throughput, 1)

    if args.record:
        recorded = dict(result)
        recorded["note"] = "Recorded by check_regression.py --record; best of %d runs." % args.rounds
        BASELINE_PATH.write_text(json.dumps(recorded, indent=2) + "\n")
        print(f"recorded baseline: compress {result['compress_s']:.3f}s "
              f"({throughput:,.0f} insns/s), decompress "
              f"{result['decompress_s']:.3f}s ({decode_throughput:,.0f} "
              f"insns/s) -> {BASELINE_PATH.name}")

    comparable = (baseline.get("program") == program
                  and baseline.get("scale") == scale)
    floor = 1.0 - args.tolerance
    verdicts = []
    for direction, measured in (("compress", throughput),
                                ("decompress", decode_throughput)):
        key = f"{direction}_s"
        if not (comparable and baseline.get(key)):
            print(f"{direction}: {result[key]:.3f}s "
                  f"({measured:,.0f} insns/s); no comparable baseline")
            continue
        base_throughput = baseline["instructions"] / baseline[key]
        ratio = measured / base_throughput
        result[f"baseline_{key}"] = baseline[key]
        result[f"{direction}_throughput_vs_baseline"] = round(ratio, 3)
        verdicts.append(ratio >= floor)
        print(f"{direction}: {result[key]:.3f}s vs baseline "
              f"{baseline[key]:.3f}s ({ratio:.2f}x throughput, "
              f"tolerance {floor:.2f}x) -> "
              f"{'pass' if verdicts[-1] else 'regression'}")
    if not verdicts:
        verdict = "no-baseline"
    else:
        verdict = "pass" if all(verdicts) else "regression"

    result["verdict"] = verdict
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {RESULT_PATH.name}")
    return 1 if verdict == "regression" else 0


if __name__ == "__main__":
    sys.exit(main())
