"""Sensitivity self-check: does the benchmark see a known slowdown?

Slows one layer by a known share of its own time and measures the
end-to-end metric that layer feeds, exactly as the benchmark does:

* ``repro.core.items.decode_item_planes`` -> ``decompress_s`` of
  pipeline_word97 (the ROADMAP asks that a 15% item-decode slowdown be
  caught);
* ``repro.serve.protocol.parse_ok_function`` on the client ->
  ``get_function_p50_ms`` of cluster_hot.

Arms are interleaved round by round so machine drift hits all of them
alike.  The test reports, per metric, each slowdown's effect and the
smallest slowdown that moves the median past the metric's bound in
BENCHMARK.json (written to ``.perfbench_out/sensitivity.json``), and
fails only if the largest slowdown goes unseen.  Run it with::

    python3 -m pytest perfbench/test_sensitivity.py -s
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.use_checkout_source()

#: extra time per call, as a share of the call's own time
SLOWDOWNS = (0.0, 0.15, 0.5, 1.0, 2.0, 4.0)


@contextmanager
def slowed(bindings: Sequence[tuple], share: float):
    """Make every call through ``(module, name)`` take ``1 + share``
    times as long, by spinning after the real call returns."""
    original = getattr(*bindings[0])

    def slow(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        end = time.perf_counter() + (time.perf_counter() - start) * share
        while time.perf_counter() < end:
            pass
        return result

    for module, name in bindings:
        setattr(module, name, slow if share else original)
    try:
        yield
    finally:
        for module, name in bindings:
            setattr(module, name, original)


def interleaved(measure, bindings, rounds: int) -> Dict[float, List[float]]:
    samples: Dict[float, List[float]] = {share: [] for share in SLOWDOWNS}
    for _ in range(rounds):
        for share in SLOWDOWNS:
            with slowed(bindings, share):
                samples[share].append(measure())
    return samples


def report(metric: str, samples: Dict[float, List[float]]) -> dict:
    bound = {m["name"]: m["bound"]
             for m in common.load_spec()["end_to_end"]}[metric]
    base = statistics.median(samples[0.0])
    moved = {share: statistics.median(values) / base - 1.0
             for share, values in samples.items()}
    caught = [share for share in SLOWDOWNS if share and moved[share] > bound]
    result = {"metric": metric, "bound": bound, "baseline": base,
              "moved_by": moved, "smallest_caught": min(caught, default=None),
              "caught_15pct": moved[0.15] > bound}
    print(f"\n{metric} (bound {bound:.0%}, baseline {base:.4g}):")
    for share in SLOWDOWNS[1:]:
        print(f"  layer +{share:.0%} -> {metric} {moved[share]:+.1%}"
              f"{'  caught' if moved[share] > bound else ''}")
    _save(metric, result)
    return result


def _save(metric: str, result: dict) -> None:
    path = common.OUT / "sensitivity.json"
    saved = json.loads(path.read_text()) if path.exists() else {}
    saved[metric] = result
    common.OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(saved, indent=2) + "\n")


def test_item_decode_slowdown_moves_decompress():
    from repro.core import compress, decompress, decompressor, items

    import pipeline

    program = pipeline.generate(pipeline.PROGRAM, pipeline.SCALE)
    data = compress(program).data
    pace = common.Pace()
    decompress(data)

    def measure() -> float:
        common.quiesce()
        return pace.timed(decompress, data)[1][0]

    samples = interleaved(measure, [(items, "decode_item_planes"),
                                    (decompressor, "decode_item_planes")],
                          rounds=5)
    result = report("decompress_s", samples)
    assert result["moved_by"][SLOWDOWNS[-1]] > result["bound"]


def test_client_parse_slowdown_moves_cluster_latency():
    from repro.serve import protocol

    import cluster_hot
    import serving
    from pipeline import generate, native_sizes

    ctx = common.Run(seed=0, seconds=2.0, trace=False)
    programs, references = ([generate(name, cluster_hot.SCALE)
                             for name in cluster_hot.corpus_names()]
                            for _ in range(2))
    setup_samples = {"setup_s": [], "compress_s": [], "decompress_s": [],
                     "jit_load_s": [], "put_ms": [],
                     "native_sizes": [native_sizes(r) for r in references]}
    try:
        _, port, _, ids, _ = cluster_hot._setup(ctx, 0, programs, references,
                                                {}, setup_samples)
        stream = cluster_hot.request_stream(
            ctx.seed, [len(ref.functions) for ref in references])
        serving.closed_loop(port, ids, references, stream,
                            cluster_hot.SETTLE_S)

        def measure() -> float:
            loop = serving.closed_loop(port, ids, references, stream,
                                       ctx.seconds, None, ctx.pace)
            assert not loop.failures, loop.failures[:3]
            return statistics.median(p for p, _ in loop.latencies) * 1e3

        samples = interleaved(measure, [(protocol, "parse_ok_function")],
                              rounds=3)
    finally:
        assert not ctx.processes.close()
    result = report("get_function_p50_ms", samples)
    assert result["moved_by"][SLOWDOWNS[-1]] > result["bound"]
