"""Per-phase wall-clock profiling, backed by ``repro.obs`` spans.

A :class:`PhaseProfile` accumulates named phase timings::

    profile = PhaseProfile()
    with profile.phase("dictionary"):
        ...
    print(profile.format())

Phases may repeat (times accumulate) and nest (each phase records its own
wall time; nesting is not subtracted — the phase names used by the
pipeline are chosen to be disjoint).  ``compress(..., profile=p)`` and
``decompress(..., profile=p)`` fill a caller-supplied profile; the ``ssd``
CLI's ``--profile`` flag prints one to stderr.

Since the observability refactor this class is an *adapter*: every
``phase()`` opens a span on the shared :data:`repro.obs.TRACER` (so
profiled phases appear in trace exports, parent-linked to whatever span
is ambient — e.g. the ``compress`` root span the CLI opens for
``--trace``), and the profile itself is just the span durations folded
into the legacy ``timings``/``counts`` view.  The ``format()`` output is
byte-identical to the pre-adapter implementation.

:data:`NULL_PROFILE` is a no-op stand-in so pipeline code can time phases
unconditionally without branching on ``profile is None``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from ..obs import TRACER


class PhaseProfile:
    """Accumulates wall-clock seconds per named phase, in first-seen order.

    The underlying record is a list of ``(name, seconds)`` events — one
    per finished span; ``timings``/``counts`` are folded views over it.
    """

    def __init__(self) -> None:
        self._events: List[Tuple[str, float]] = []

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block as an obs span; accumulate under ``name``."""
        node = None
        try:
            with TRACER.span(name) as node:
                yield
        finally:
            if node is not None and node.duration is not None:
                self._events.append((name, node.duration))

    def record(self, name: str, seconds: float) -> None:
        self._events.append((name, seconds))

    @property
    def timings(self) -> Dict[str, float]:
        folded: Dict[str, float] = {}
        for name, seconds in self._events:
            folded[name] = folded.get(name, 0.0) + seconds
        return folded

    @property
    def counts(self) -> Dict[str, int]:
        folded: Dict[str, int] = {}
        for name, _seconds in self._events:
            folded[name] = folded.get(name, 0) + 1
        return folded

    @property
    def total(self) -> float:
        return sum(seconds for _name, seconds in self._events)

    def as_dict(self) -> Dict[str, float]:
        return dict(self.timings)

    def format(self, title: str = "phase timings") -> str:
        """Aligned report: one line per phase with ms and share of total."""
        timings = self.timings
        lines = [f"{title}:"]
        total = self.total or 1.0
        width = max((len(name) for name in timings), default=0)
        for name, seconds in timings.items():
            lines.append(f"  {name:<{width}}  {seconds * 1e3:>9.2f} ms"
                         f"  {100.0 * seconds / total:>5.1f}%")
        lines.append(f"  {'total':<{width}}  {self.total * 1e3:>9.2f} ms")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseProfile({self.timings!r})"


class _NullProfile(PhaseProfile):
    """A profile that measures nothing (avoids timer overhead on hot paths)."""

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        yield

    def record(self, name: str, seconds: float) -> None:
        pass


#: Shared no-op profile for ``profile=None`` call sites.
NULL_PROFILE = _NullProfile()


def ensure(profile: Optional[PhaseProfile]) -> PhaseProfile:
    """Return ``profile`` or the shared no-op profile."""
    return profile if profile is not None else NULL_PROFILE
