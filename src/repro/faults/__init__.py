"""Deterministic fault injection for containers and runtime components.

The robustness layer's attack harness.  Three pieces:

* :mod:`repro.faults.injector` — seedable corruption of container bytes
  (bit flips, truncation, varint overflow, blob swaps, length-field
  lies), structure-aware via the container's section map, plus
  patch-aware corruptions of ``repro.delta`` artifacts (base-hash
  lies, diff truncation, patch-chain cycles);
* :mod:`repro.faults.harness` — sweep driver: generate N corruptions,
  attempt decode, classify every outcome against the ``repro.errors``
  taxonomy (anything else is a finding);
* :mod:`repro.faults.runtime` — deterministic allocation failures for
  the JIT translation buffer;
* :mod:`repro.faults.transport` — wire-level faults for ``repro.serve``
  (seeded drop/delay/truncate/corrupt of protocol frames) and a sweep
  asserting the server always answers or closes cleanly, never hangs;
* :mod:`repro.faults.chaos` — cluster chaos: seeded shard
  kill/hang/drain and wire flakes against a live
  ``repro.serve.cluster`` under concurrent client load, asserting zero
  client-visible failures above quorum and a clean ``E_UNAVAILABLE``
  below it.

Everything is seeded and reproducible: the same ``(container, seed,
case index)`` always produces the same corruption, so a CI failure is
replayable with ``ssd fuzz --seed``.
"""

from .chaos import CHAOS_KINDS, ChaosEvent, ChaosReport, chaos_sweep
from .injector import (
    KINDS,
    PATCH_KINDS,
    ContainerCorruptor,
    Corruption,
    PatchCorruptor,
)
from .harness import CaseOutcome, SweepReport, patch_sweep, sweep
from .runtime import AllocationFaults
from .transport import (
    TRANSPORT_KINDS,
    FlakyTransport,
    TransportCaseOutcome,
    TransportFault,
    TransportSweepReport,
    transport_sweep,
)

__all__ = [
    "AllocationFaults",
    "CHAOS_KINDS",
    "CaseOutcome",
    "ChaosEvent",
    "ChaosReport",
    "chaos_sweep",
    "ContainerCorruptor",
    "Corruption",
    "FlakyTransport",
    "KINDS",
    "PATCH_KINDS",
    "PatchCorruptor",
    "SweepReport",
    "TRANSPORT_KINDS",
    "TransportCaseOutcome",
    "TransportFault",
    "TransportSweepReport",
    "patch_sweep",
    "sweep",
    "transport_sweep",
]
