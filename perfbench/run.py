"""The repository benchmark: one workload, one run, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pipeline_word97 --seed 0 \
        --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans recorded around each
layer call, interleaved with untraced work, and prints every per-layer
metric (a layer the workload never reaches reads 0 and is listed in the
run record).  The last stdout line is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Before it come a table of the metrics and the run record (commit, source
digest, machine, seed, and each metric's sample count, median and
quartiles), which is also written to ``.perfbench_out/``.  Times are
paced: scaled by the machine's speed during the work, read from a fixed
reference job (see ``common.Pace``); the record keeps the wall times
beside them.  A wrong output
sets ``correct`` to false and exits 1; a run that cannot measure exits 2
without a result line.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

WORKLOADS = ("pipeline_word97", "cluster_hot", "serve_phase_shift")


def _on_sigterm(signum, frame):
    # Unwind through every ``finally`` so child servers are stopped.
    raise SystemExit(128 + signum)


def run_workload(name: str, ctx: common.Run) -> dict:
    if name == "pipeline_word97":
        import pipeline
        return pipeline.run(ctx)
    if name == "cluster_hot":
        import cluster_hot
        return cluster_hot.run(ctx)
    import phase_shift
    return phase_shift.run(ctx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)

    try:
        common.use_checkout_source()
        spec = common.load_spec()
    except (common.BenchError, OSError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    ctx = common.Run(seed=args.seed, seconds=args.seconds,
                     trace=bool(args.trace))
    metrics, oracle = ctx.metrics, ctx.oracle
    try:
        details = run_workload(args.workload, ctx)
    except common.BenchError as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 2
    finally:
        leaked = ctx.processes.close()
    if leaked:
        print(f"perfbench: processes outlived the run: {leaked}",
              file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in spec["end_to_end"]
               if m["name"] not in metrics]
    if missing:
        print(f"perfbench: {args.workload} measured no {missing}",
              file=sys.stderr)
        return 2
    not_reached = []
    for entry in wanted:
        if entry["name"] not in metrics:
            not_reached.append(entry["name"])
            metrics.add(entry["name"], entry["unit"], 0.0)
        elif metrics[entry["name"]]["unit"] != entry["unit"]:
            print(f"perfbench: {entry['name']} measured in "
                  f"{metrics[entry['name']]['unit']}, BENCHMARK.json says "
                  f"{entry['unit']}", file=sys.stderr)
            return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": common.commit(),
        "source_digest": common.source_digest(),
        **common.machine(),
        "wall_s": time.perf_counter() - started,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "error_rate": oracle.failed / max(1, oracle.attempted),
        "wrong": oracle.wrong,
        # Timings are scaled to a machine where a tick takes REFERENCE_S.
        "reference_s": {"scaled_to": common.REFERENCE_S,
                        **common.summary(ctx.pace.durations)},
        "details": details,
        "layers_not_reached": not_reached,
        "metrics": metrics.as_dict(),
    }
    common.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (common.OUT / f"record-{stem}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    if args.trace:
        ctx.spans.dump(common.OUT / f"spans-{stem}.json")

    for name in metrics.names():
        entry = metrics[name]
        print(f"{name:<40} {entry['value']:>14.6g} {entry['unit']:<6} "
              f"n={entry['samples']:<6} iqr={entry['iqr_share']:.3f}")
    print(json.dumps(record, sort_keys=True))
    correct = oracle.failed == 0 and oracle.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, oracle.attempted),
        "failed": oracle.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
