"""Repeat the benchmark and judge its figures against BENCHMARK.json.

Two checks, each over whole ``run.py`` processes::

    # spread: one run per seed; quartile distance / median per metric
    python3 perfbench/steady.py spread --workload cluster_hot --seeds 0-9

    # held-out seed: R runs on each of two seeds, alternating; does each
    # end-to-end median of the second stay within its bound of the first?
    python3 perfbench/steady.py held-out --workload cluster_hot \
        --seeds 0 7 --repeat 3

A spread above a metric's bound fails the check; one above a third of
it is reported as not steady.  Results are printed and written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import OUT, ROOT, load_spec  # noqa: E402


def parse_seeds(items: List[str]) -> List[int]:
    seeds: List[int] = []
    for item in items:
        low, _, high = item.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    """One benchmark process; its end-to-end values by metric name."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n"
                         f"{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong output")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(workload: str, seeds: List[int], seconds: int) -> dict:
    spec = load_spec()
    runs = []
    for seed in seeds:
        runs.append(run_once(workload, seed, seconds))
        print(f"  {workload} seed {seed}: " + " ".join(
            f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
    report = {}
    for metric in spec["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med
        report[metric["name"]] = {
            "median": med, "iqr_share": share, "bound": metric["bound"],
            "within_bound": share <= metric["bound"],
            "steady": share <= metric["bound"] / 3, "values": values}
    return report


def held_out(workload: str, seeds: List[int], repeat: int,
             seconds: int) -> dict:
    """Runs alternate between the seeds, so machine drift hits both."""
    spec = load_spec()
    runs: Dict[int, List[Dict[str, float]]] = {seed: [] for seed in seeds}
    for _ in range(repeat):
        for seed in seeds:
            runs[seed].append(run_once(workload, seed, seconds))
    medians = {seed: {name: statistics.median(run[name] for run in done)
                      for name in done[0]}
               for seed, done in runs.items()}
    for seed in seeds:
        print(f"  {workload} seed {seed}: " + " ".join(
            f"{k}={v:.4g}" for k, v in medians[seed].items()), flush=True)
    base = medians[seeds[0]]
    report = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        moved = max(abs(medians[seed][name] / base[name] - 1.0)
                    for seed in seeds[1:])
        report[name] = {"medians": {seed: medians[seed][name]
                                    for seed in seeds},
                        "moved_by": moved, "bound": metric["bound"],
                        "within_bound": moved <= metric["bound"]}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("check", choices=("spread", "held-out"))
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="seeds or ranges such as 0-9")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seconds", type=int,
                        default=load_spec()["run_seconds"])
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in args.workload:
        if args.check == "spread":
            report = spread(workload, seeds, args.seconds)
        else:
            report = held_out(workload, seeds, args.repeat, args.seconds)
        for name, entry in report.items():
            ok &= entry["within_bound"]
            figure = entry.get("iqr_share", entry.get("moved_by"))
            note = ("" if entry["within_bound"] else "  OUT OF BOUND")
            if args.check == "spread" and entry["within_bound"] \
                    and not entry["steady"]:
                note = "  above a third of the bound"
            print(f"{workload:<18} {name:<22} {figure:>8.4f} "
                  f"(bound {entry['bound']}){note}")
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"steady-{args.check}-{workload}.json").write_text(
            json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
