"""Command-line entry point: regenerate any paper exhibit.

Usage::

    ssd-repro table1 [--scale 1.0]
    ssd-repro table5 [--scale 0.25] [--no-brisc] [--no-overhead]
    ssd-repro table6
    ssd-repro figure3
    ssd-repro throughput
    ssd-repro ablations
    ssd-repro delta
    ssd-repro all [--scale 0.25] [--out results.txt]

``--scale 1.0`` reproduces the paper's program sizes (word97 = 1.4M
instructions; the full run takes several minutes).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from . import (
    ablations,
    delta,
    figure3,
    startup,
    table1,
    table5,
    table6,
    throughput,
)
from .common import ExperimentContext

EXHIBITS = {
    "table1": lambda ctx, args: table1.run(ctx),
    "table5": lambda ctx, args: table5.run(ctx, include_brisc=not args.no_brisc,
                                           include_overhead=not args.no_overhead),
    "table6": lambda ctx, args: table6.run(ctx),
    "figure3": lambda ctx, args: figure3.run(ctx),
    "throughput": lambda ctx, args: throughput.run(ctx),
    "startup": lambda ctx, args: startup.run(ctx),
    "ablations": lambda ctx, args: ablations.run(ctx),
    "delta": lambda ctx, args: delta.run(ctx),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssd-repro",
        description="Regenerate the tables and figures of 'Split-Stream "
                    "Dictionary Program Compression' (PLDI 2000).")
    parser.add_argument("exhibit", choices=list(EXHIBITS) + ["all"],
                        help="which exhibit to regenerate")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="benchmark size scale (1.0 = paper sizes; "
                             "default 0.25)")
    parser.add_argument("--no-brisc", action="store_true",
                        help="skip the (slow) BRISC comparison in table5")
    parser.add_argument("--no-overhead", action="store_true",
                        help="skip the execution-overhead columns in table5")
    parser.add_argument("--out", type=str, default=None,
                        help="also write output to this file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    context = ExperimentContext(scale=args.scale)
    names = list(EXHIBITS) if args.exhibit == "all" else [args.exhibit]
    chunks: List[str] = []
    for name in names:
        start = time.perf_counter()
        output = EXHIBITS[name](context, args)
        elapsed = time.perf_counter() - start
        chunks.append(output)
        chunks.append(f"[{name} completed in {elapsed:.1f}s]\n")
        print(chunks[-2])
        print(chunks[-1])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(chunks))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
