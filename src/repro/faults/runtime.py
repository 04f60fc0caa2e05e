"""Runtime fault injector: deterministic allocation failures.

:class:`AllocationFaults` plugs into
:class:`repro.jit.buffer.TranslationBuffer` via its ``alloc_hook`` and
deterministically fails allocations for chosen functions, driving the
JIT quarantine path without needing a buffer that is actually full.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Iterable, Optional

from ..errors import BufferCapacityError


class AllocationFaults:
    """Deterministic allocation-failure injector for the JIT buffer.

    Pass as ``TranslationBuffer(..., alloc_hook=AllocationFaults(...))``.
    Fails allocation for every function index in ``fail_findexes``, plus
    a seeded random ``rate`` fraction of all other requests.  ``injected``
    counts the failures actually delivered.
    """

    def __init__(self, fail_findexes: Iterable[int] = (),
                 seed: Optional[int] = None, rate: float = 0.0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.fail_findexes: FrozenSet[int] = frozenset(fail_findexes)
        self.rate = rate
        self._rng = random.Random(seed)
        self.injected = 0

    def __call__(self, findex: int, size: int) -> None:
        if findex in self.fail_findexes or \
                (self.rate > 0.0 and self._rng.random() < self.rate):
            self.injected += 1
            raise BufferCapacityError(
                f"injected allocation failure for function {findex} "
                f"({size} bytes requested)")
