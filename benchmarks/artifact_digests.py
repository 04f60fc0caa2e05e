"""Print a SHA-256 digest of every byte artifact the LZ77 coder shapes.

A refactor of the codecs that must not change a single output byte is
checked by running this script on the old and the new tree and diffing
the output::

    PYTHONPATH=src python benchmarks/artifact_digests.py > new.txt

It covers the word97@0.1 container, the container of each side of every
``version_pairs(scale=0.05)`` pair (the nine corpus programs and their
next versions), and for every pair the patch between the two containers
and the standalone patch of the newer one.  Each patch is applied back
and compared with its target before its digest is printed.  The last
line digests all the lines above it.
"""

from __future__ import annotations

import hashlib

from repro.core import compress
from repro.delta import apply_patch, make_patch, patch_info
from repro.workloads import benchmark_program
from repro.workloads.versions import version_pairs


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_lines():
    yield f"container word97@0.1 {_digest(compress(benchmark_program('word97', 0.1)).data)}"
    for name, old, new in version_pairs(scale=0.05):
        base = compress(old).data
        target = compress(new).data
        yield f"container {name}@0.05 {_digest(base)}"
        yield f"container {name}@0.05+1 {_digest(target)}"
        for kind, origin in (("patch", base), ("standalone", b"")):
            patch = make_patch(origin, target)
            if apply_patch(origin, patch) != target:
                raise SystemExit(f"{kind} patch of {name} does not apply")
            mode = "SECTIONS" if patch_info(patch).mode else "RAW"
            yield f"{kind} {name}@0.05 {mode} {_digest(patch)}"


def main() -> None:
    lines = list(artifact_lines())
    for line in lines:
        print(line)
    print(f"all {len(lines)} {_digest(chr(10).join(lines).encode())}")


if __name__ == "__main__":
    main()
