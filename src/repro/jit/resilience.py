"""Graceful JIT degradation: quarantine broken functions, keep running.

The hardened decoder guarantees that corruption and resource exhaustion
surface as typed errors; this module decides what the *runtime* does
next.  A function whose native translation fails — its dictionary
entries will not lower, its item stream will not copy-translate, or the
translation buffer refuses the allocation — is **quarantined**: marked
as permanently interpreter-executed, with the failure recorded.  The
rest of the program keeps its native translations, and execution
proceeds through the VM interpreter (this repo's execution substrate;
native execution is modelled, not performed), so a program with a
quarantined function still computes the right answer as long as its VM
instruction stream decodes.

Stages, from coarsest to finest:

* ``dictionary`` — phase one failed for the whole segment table; every
  function quarantines at construction time;
* ``translate``  — this function's items/copy phase failed;
* ``buffer``     — translation succeeded but the buffer allocation
  failed (:class:`~repro.errors.BufferCapacityError`), e.g. a function
  larger than the whole buffer or an injected allocation fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

from ..core.decompressor import SSDReader, open_container
from ..core.lazy import LazyProgram
from ..errors import BufferCapacityError, ReproError
from ..obs import REGISTRY
from .buffer import TranslationBuffer
from .translator import TranslationResult, Translator

_QUARANTINES = REGISTRY.counter(
    "jit_quarantine_total",
    "Functions quarantined to the interpreter, by failure stage "
    "(stage=dictionary|translate|buffer).")


@dataclass(frozen=True)
class QuarantineRecord:
    """Why one function fell back to interpretation."""

    findex: int
    stage: str   # 'dictionary' | 'translate' | 'buffer'
    error: str


class ResilientRuntime:
    """A JIT runtime that degrades per-function instead of dying.

    ``source`` is either container bytes or an already-open
    :class:`SSDReader`; functions translate by block copy
    (:class:`Translator`).  ``buffer`` (optional) is the translation
    buffer native code must fit into; allocation failures quarantine
    rather than propagate.
    """

    def __init__(self, source: Union[bytes, bytearray, SSDReader],
                 buffer: Optional[TranslationBuffer] = None) -> None:
        if isinstance(source, (bytes, bytearray)):
            self.reader = open_container(bytes(source))
        else:
            self.reader = source
        self.buffer = buffer
        self.quarantine: Dict[int, QuarantineRecord] = {}
        self._translations: Dict[int, TranslationResult] = {}
        self.translator: Optional[Translator] = None
        try:
            self.translator = Translator(self.reader)
        except ReproError as exc:
            # Phase one is shared state: with no instruction tables, no
            # function can translate.  All of them interpret.
            for findex in range(self.reader.function_count):
                self.quarantine[findex] = QuarantineRecord(
                    findex=findex, stage="dictionary", error=str(exc))
                _QUARANTINES.inc(stage="dictionary")

    # -- translation --------------------------------------------------------

    def translate(self, findex: int) -> Optional[TranslationResult]:
        """Translate one function, or quarantine it and return None."""
        if findex in self.quarantine:
            return None
        cached = self._translations.get(findex)
        if cached is not None:
            if self.buffer is not None:
                self.buffer.call(findex, cached.size)
            return cached
        assert self.translator is not None  # else everything is quarantined
        try:
            result = self.translator.translate_function(findex)
        except ReproError as exc:
            self.quarantine[findex] = QuarantineRecord(
                findex=findex, stage="translate", error=str(exc))
            _QUARANTINES.inc(stage="translate")
            return None
        if self.buffer is not None:
            try:
                self.buffer.call(findex, result.size)
            except BufferCapacityError as exc:
                self.quarantine[findex] = QuarantineRecord(
                    findex=findex, stage="buffer", error=str(exc))
                _QUARANTINES.inc(stage="buffer")
                return None
        self._translations[findex] = result
        return result

    def prepare(self, findexes: Optional[Iterable[int]] = None) -> "ResilientRuntime":
        """Attempt translation for ``findexes`` (default: every function)."""
        if findexes is None:
            findexes = range(self.reader.function_count)
        for findex in findexes:
            self.translate(findex)
        return self

    # -- queries ------------------------------------------------------------

    def execution_mode(self, findex: int) -> str:
        """'native' for translated functions, 'interpreter' for quarantined."""
        return "interpreter" if findex in self.quarantine else "native"

    @property
    def degraded(self) -> bool:
        return bool(self.quarantine)

    @property
    def quarantined(self) -> List[QuarantineRecord]:
        return [self.quarantine[findex] for findex in sorted(self.quarantine)]

    def report(self) -> str:
        total = self.reader.function_count
        lines = [f"resilient runtime: {total - len(self.quarantine)}/{total} "
                 f"functions native, {len(self.quarantine)} quarantined"]
        for record in self.quarantined:
            lines.append(f"  function {record.findex} [{record.stage}]: "
                         f"{record.error}")
        return "\n".join(lines)

    # -- execution ----------------------------------------------------------

    def run(self, inputs: Optional[Iterable[int]] = None,
            fuel: int = 1_000_000):
        """Prepare all functions, then execute the program.

        Execution goes through the VM interpreter over a lazily
        decompressed program, which is exactly the quarantine fallback
        path — so the result is correct whether zero or all functions
        ended up quarantined, provided the VM item streams decode.
        """
        self.prepare()
        return run_lazy(self.reader, inputs=inputs, fuel=fuel)


def run_lazy(reader: SSDReader, inputs: Optional[Iterable[int]] = None,
             fuel: int = 1_000_000):
    """Interpret a compressed program directly (the degradation path)."""
    from ..vm import run_program  # late import: repro.vm imports repro.isa only

    return run_program(LazyProgram(reader), inputs=inputs, fuel=fuel)
