"""Content-addressed container store with verify-gated admission.

Containers are keyed by the SHA-256 of their bytes (the same fingerprint
``SSDReader.container_hash`` carries), so a PUT of bytes already present
is a no-op and clients can cache ids forever.  Admission runs the same
checks as ``ssd verify``: the structural + checksum walk
(:func:`repro.core.integrity_report`) must come back clean *and* phase-one
decompression must succeed, so nothing undecodable ever becomes
servable.  Version-1 containers (no CRCs) pass on structure alone, same
as the CLI.

With a ``root`` directory the store persists admitted containers as
``<id>.ssd`` and loads whatever ``*.ssd`` files it finds at startup
(corrupt files are skipped, not fatal — an operator can drop containers
into the spool directly).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core import (
    DEFAULT_LIMITS,
    DecodeLimits,
    SSDReader,
    integrity_report,
    open_container,
)
from ..errors import CorruptContainer, NoBaseError


class AdmissionError(CorruptContainer):
    """Container bytes failed the store's verify gate."""


#: computed patches kept per store (patch synthesis walks two containers;
#: a fleet updating to the same release asks for the same pair over and
#: over, so a small LRU absorbs the stampede)
PATCH_CACHE_ENTRIES = 64


def container_id_of(data: bytes) -> str:
    """The store's content address: lowercase hex SHA-256."""
    return hashlib.sha256(data).hexdigest()


class ContainerStore:
    """In-memory (optionally disk-backed) map of id -> container bytes."""

    def __init__(self, root: Optional[Path] = None,
                 limits: DecodeLimits = DEFAULT_LIMITS) -> None:
        self.root = Path(root) if root is not None else None
        self.limits = limits
        self._lock = threading.Lock()
        self._containers: Dict[str, bytes] = {}
        #: LRU of synthesized patches, keyed (base_id, target_id)
        self._patches: "OrderedDict[Tuple[str, str], bytes]" = OrderedDict()
        self.admitted = 0
        self.rejected = 0
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._load_root()

    def _load_root(self) -> None:
        for path in sorted(self.root.glob("*.ssd")):
            try:
                self.put(path.read_bytes(), persist=False)
            except CorruptContainer:
                continue  # operator-dropped junk must not kill startup

    # -- admission ----------------------------------------------------------

    def verify(self, data: bytes) -> SSDReader:
        """The admission gate: integrity walk + phase-one open.

        Returns the opened reader (callers typically cache it) or raises
        :class:`AdmissionError`; bytes that are not an SSD1/SSD2
        container (the retired ``SSD3`` envelope included) fail the walk.
        """
        report = integrity_report(data, limits=self.limits)
        if report.error is not None:
            raise AdmissionError(f"integrity walk failed: {report.error}")
        if report.corrupt_sections:
            names = ", ".join(span.name for span in report.corrupt_sections)
            raise AdmissionError(f"checksum-corrupt sections: {names}")
        try:
            return open_container(data, limits=self.limits)
        except CorruptContainer as exc:
            raise AdmissionError(f"decode failed: {exc}") from exc

    def put(self, data: bytes,
            persist: bool = True) -> Tuple[str, Optional[SSDReader]]:
        """Admit container bytes; returns ``(container_id, reader)``.

        ``reader`` is the one admission opened.  Idempotent: re-putting
        stored bytes decodes nothing and returns ``None`` for the reader,
        so a caller's cached reader for that id stays the one in use.
        """
        container_id = container_id_of(data)
        with self._lock:
            known = container_id in self._containers
        if known:
            return container_id, None
        try:
            reader = self.verify(data)
        except AdmissionError:
            with self._lock:
                self.rejected += 1
            raise
        with self._lock:
            self._containers[container_id] = data
            self.admitted += 1
        if persist and self.root is not None:
            (self.root / f"{container_id}.ssd").write_bytes(data)
        return container_id, reader

    # -- lookups ------------------------------------------------------------

    def get(self, container_id: str) -> bytes:
        with self._lock:
            try:
                return self._containers[container_id]
            except KeyError:
                raise KeyError(f"unknown container {container_id}") from None

    def make_delta(self, base_id: str, target_id: str) -> bytes:
        """A verified patch turning ``base_id``'s bytes into ``target_id``'s.

        The negotiation contract of GET_DELTA: an unknown *target* is a
        :class:`KeyError` (E_NOT_FOUND — the thing asked for does not
        exist), an unknown *base* is a :class:`~repro.errors.NoBaseError`
        (E_NO_BASE — the client should fall back to a full transfer).
        Synthesized patches are memoized in a small LRU.
        """
        key = (base_id, target_id)
        with self._lock:
            cached = self._patches.get(key)
            if cached is not None:
                self._patches.move_to_end(key)
                return cached
            target = self._containers.get(target_id)
            base = self._containers.get(base_id)
        if target is None:
            raise KeyError(f"unknown container {target_id}")
        if base is None:
            raise NoBaseError(f"base container {base_id} is not held here",
                              base_hash=base_id)
        from ..delta import make_patch
        patch = make_patch(base, target)
        with self._lock:
            self._patches[key] = patch
            self._patches.move_to_end(key)
            while len(self._patches) > PATCH_CACHE_ENTRIES:
                self._patches.popitem(last=False)
        return patch

    def __contains__(self, container_id: str) -> bool:
        with self._lock:
            return container_id in self._containers

    def __len__(self) -> int:
        with self._lock:
            return len(self._containers)

    def ids(self) -> List[str]:
        with self._lock:
            return sorted(self._containers)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(len(data) for data in self._containers.values())

    def stats(self) -> dict:
        with self._lock:
            return {
                "containers": len(self._containers),
                "total_bytes": sum(len(d) for d in self._containers.values()),
                "admitted": self.admitted,
                "rejected": self.rejected,
            }


__all__ = ["AdmissionError", "ContainerStore", "PATCH_CACHE_ENTRIES",
           "container_id_of"]
