"""Access-profile-guided layout planning and prediction.

This package makes access locality a first-class input to the rest of
the stack:

* :class:`AccessProfile` — per-function heat + successor edges
  distilled from a call trace (``repro.workloads.traces``), JIT
  runtime counters, or any ``(findex, ...)`` access log;
* :func:`build_plan` / :class:`LayoutPlan` — deterministic placement
  planning: hot functions front-packed, co-called functions co-located
  by greedy affinity clustering; the plan's advisory half (hot-set
  ranks + successor edges) ships in the container's profile-hint
  section (``repro.core.hints``, see docs/LAYOUT.md);
* :class:`MarkovPredictor` — the bounded next-access predictor the
  code server's prefetcher uses, seedable from those same hints.

``repro.core.compressor.compress(..., plan=...)`` consumes a
:class:`LayoutPlan`; decode output is byte-identical whatever the plan.
"""

from .markov import MarkovPredictor, predictor_from_hints
from .plan import (
    DEFAULT_HOT_FRACTION,
    DEFAULT_MAX_EDGES,
    AccessProfile,
    LayoutPlan,
    build_plan,
)

__all__ = [
    "DEFAULT_HOT_FRACTION",
    "DEFAULT_MAX_EDGES",
    "AccessProfile",
    "LayoutPlan",
    "MarkovPredictor",
    "build_plan",
    "predictor_from_hints",
]
