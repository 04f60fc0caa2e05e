"""First-order markov next-access prediction.

The code server's prefetcher learns ``(container, findex) -> next``
transitions from its request stream — prediction lives where the access
stream is seen — and container profile hints (``repro.core.hints``)
seed the table so the very first replay of a profiled workload already
predicts.

The table is bounded both ways: at most ``max_states`` source states
(oldest-observed evicted first) and at most ``max_successors``
successors per state (lightest dropped), so an adversarial or
high-cardinality stream cannot grow it without bound.  All methods are
thread-safe, so the event loop and worker threads can share one table.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import Dict, Hashable, Iterable, List, Tuple

from ..obs import REGISTRY

_PREDICTIONS = REGISTRY.counter(
    "prefetch_predictions_total",
    "Next-access predictions produced by markov predictors.")
_SEEDED_EDGES = REGISTRY.counter(
    "prefetch_seeded_edges_total",
    "Successor edges seeded into predictors from container profile hints.")

DEFAULT_MAX_STATES = 4096
DEFAULT_MAX_SUCCESSORS = 8


class MarkovPredictor:
    """Bounded first-order transition table over hashable access keys."""

    def __init__(self, max_states: int = DEFAULT_MAX_STATES,
                 max_successors: int = DEFAULT_MAX_SUCCESSORS) -> None:
        if max_states <= 0 or max_successors <= 0:
            raise ValueError("max_states and max_successors must be positive")
        self._max_states = max_states
        self._max_successors = max_successors
        self._table: "OrderedDict[Hashable, Counter]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)

    def _successors(self, src: Hashable) -> Counter:
        successors = self._table.get(src)
        if successors is None:
            while len(self._table) >= self._max_states:
                self._table.popitem(last=False)
            successors = self._table[src] = Counter()
        return successors

    def observe(self, src: Hashable, dst: Hashable,
                weight: int = 1) -> None:
        """Record one observed ``src -> dst`` transition."""
        if src == dst or weight <= 0:
            return
        with self._lock:
            successors = self._successors(src)
            successors[dst] += weight
            if len(successors) > self._max_successors:
                for key, _ in successors.most_common()[self._max_successors:]:
                    del successors[key]

    def seed(self, edges: Iterable[Tuple[Hashable, Hashable, int]]) -> int:
        """Bulk-load weighted edges (container profile hints); returns
        the number of edges accepted."""
        seeded = 0
        for src, dst, weight in edges:
            self.observe(src, dst, weight=max(1, weight))
            seeded += 1
        if seeded:
            _SEEDED_EDGES.inc(seeded)
        return seeded

    def predict(self, src: Hashable, count: int = 2) -> List[Hashable]:
        """The up-to-``count`` most likely successors of ``src``,
        most likely first; empty when the state was never observed."""
        if count <= 0:
            return []
        with self._lock:
            successors = self._table.get(src)
            if not successors:
                return []
            ranked = [dst for dst, _ in successors.most_common(count)]
        _PREDICTIONS.inc(len(ranked))
        return ranked

    def predict_chain(self, src: Hashable, count: int = 2) -> List[Hashable]:
        """Walk the most-likely successor chain transitively, collecting
        up to ``count`` distinct keys.

        Where :meth:`predict` ranks the immediate successors of ``src``,
        this follows the prediction forward — successor of successor —
        so a prefetcher issuing the result gets ``count`` requests of
        lead time instead of one.  When the top successor loops back on
        something already collected, the walk falls through to the
        next-ranked sibling; it stops early at a dead end.
        """
        if count <= 0:
            return []
        out: List[Hashable] = []
        seen = {src}
        frontier = src
        with self._lock:
            while len(out) < count:
                successors = self._table.get(frontier)
                if not successors:
                    break
                advanced = False
                for dst, _ in successors.most_common():
                    if dst in seen:
                        continue
                    out.append(dst)
                    seen.add(dst)
                    frontier = dst
                    advanced = True
                    break
                if not advanced:
                    break
        if out:
            _PREDICTIONS.inc(len(out))
        return out

    def transitions(self, src: Hashable) -> Dict[Hashable, int]:
        """Snapshot of the successor weights for ``src`` (for tests
        and introspection)."""
        with self._lock:
            successors = self._table.get(src)
            return dict(successors) if successors else {}

    def clear(self) -> None:
        with self._lock:
            self._table.clear()


def predictor_from_hints(hot: Iterable[int],
                         edges: Iterable[Tuple[int, int, int]],
                         max_states: int = DEFAULT_MAX_STATES) -> "MarkovPredictor":
    """Build a predictor pre-seeded from a container's profile hints."""
    predictor = MarkovPredictor(max_states=max_states)
    predictor.seed(list(edges))
    # ``hot`` carries no ordering information beyond rank; chain the
    # ranks so a cold start at the hottest function still walks the
    # hot set in a sensible order when no edge says otherwise.
    ranked: List[int] = list(hot)
    chained = [(ranked[i], ranked[i + 1], 1) for i in range(len(ranked) - 1)]
    if chained:
        predictor.seed(chained)
    return predictor


__all__ = [
    "DEFAULT_MAX_STATES",
    "DEFAULT_MAX_SUCCESSORS",
    "MarkovPredictor",
    "predictor_from_hints",
]
