"""Performance subsystem: per-phase profiling.

:class:`PhaseProfile` (:mod:`repro.perf.profile`) is a wall-clock phase
timer that ``compress``/``decompress`` (and the ``ssd`` CLI via
``--profile``) fill in so throughput claims can be decomposed into the
paper's phases (dictionary build vs copy phase, etc.).
"""

from .profile import NULL_PROFILE, PhaseProfile

__all__ = [
    "NULL_PROFILE",
    "PhaseProfile",
]
