"""Phase-one decompression: container -> dictionaries -> program.

Section 2.2.4 splits decompression into a *dictionary decompression* phase
(reverse the base-entry and tree codecs, build the instruction table) and
a *copy phase* (Algorithm 3, in ``repro.core.copy_phase``).  This module
implements phase one plus full program reconstruction, which serves as the
compression-correctness oracle: ``decompress(compress(p))`` must equal
``p`` instruction-for-instruction.

Decompression is **incremental by design**: :meth:`SSDReader.function_instructions`
decodes a single function's item stream without touching the rest of the
program — the property ("basic-block granularity") that makes SSD
interpretable in the paper's sense.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import CorruptContainer, ReproError, as_corrupt
from ..isa import Function, Instruction, Program
from ..isa.instruction import SLOT_SETTERS
from ..obs import REGISTRY, TRACER
from ..perf.profile import PhaseProfile, ensure
from . import container
from . import hints as hints_codec
from .container import DEFAULT_LIMITS, DecodeLimits
from ..kernels import KIND_CALL, ItemPlanes
from .items import decode_item_planes, resolve_plane_targets
from .layout import DecompressionError, SegmentLayout, layouts_from_sections


_OPEN_RUNS = REGISTRY.counter(
    "container_open_total", "Containers parsed + phase-one decompressed.")
_DECOMPRESS_RUNS = REGISTRY.counter(
    "decompress_programs_total", "Full program reconstructions.")


@dataclass
class SSDReader:
    """A parsed container with its dictionaries decompressed (phase one).

    ``container_hash`` fingerprints the container bytes; the JIT layer uses
    it to memoize instruction tables (``repro.jit.build_tables``) so that
    re-translation after buffer eviction skips the dictionary phase.
    """

    sections: container.ContainerSections
    layouts: List[SegmentLayout]
    segment_of_function: List[int]
    container_hash: Optional[str] = None
    # Memo behind :meth:`function`.  Guarded by ``_fn_lock`` so one reader
    # can serve many threads/connections (repro.serve) without racing on
    # the dict; decode itself only reads the immutable layouts.
    _fn_cache: Dict[int, Function] = field(default_factory=dict, repr=False,
                                           compare=False)
    _fn_lock: threading.Lock = field(default_factory=threading.Lock,
                                     repr=False, compare=False)

    @property
    def function_count(self) -> int:
        return len(self.sections.function_names)

    @property
    def entry(self) -> int:
        return self.sections.entry

    @property
    def program_name(self) -> str:
        return self.sections.program_name

    @property
    def function_names(self) -> List[str]:
        return self.sections.function_names

    @property
    def profile_hints(self) -> Optional["hints_codec.ProfileHints"]:
        """Decoded profile hints, or ``None`` when the container carries
        none (or carries an undecodable blob — hints are advisory, so a
        bad one degrades rather than failing the reader)."""
        blob = self.sections.profile_hints_blob
        if not blob:
            return None
        try:
            decoded = hints_codec.decode_hints(blob)
        except CorruptContainer:
            return None
        return decoded if decoded else None

    def layout_for_function(self, findex: int) -> SegmentLayout:
        return self.layouts[self.segment_of_function[findex]]

    def item_planes(self, findex: int) -> ItemPlanes:
        """Decode one function's item stream into split planes."""
        return decode_item_planes(self.sections.item_streams[findex],
                                  self.layout_for_function(findex))

    def function_instructions(self, findex: int) -> List[Instruction]:
        """Incrementally decompress one function back to VM instructions.

        Runs over split planes: each item extends the output by its
        index's prefix from the layout's decode table, and only the
        trailing target-carrying instruction — if any — is cloned per item
        with the item's target.
        """
        layout = self.layout_for_function(findex)
        planes = self.item_planes(findex)
        targets = resolve_plane_targets(planes)
        table = layout.table
        new = object.__new__
        set_op, set_rd, set_rs1, set_rs2, set_imm, set_target = SLOT_SETTERS
        instructions: List[Instruction] = []
        extend = instructions.extend
        append = instructions.append
        for index, kind, value, target in zip(planes.indices, planes.kinds,
                                              planes.values, targets):
            prefix, tail, tail_is_branch = table[index]
            extend(prefix)
            if tail is None:
                continue
            if tail_is_branch:
                if target is None:
                    raise DecompressionError(
                        "branch item without a resolved target")
            elif kind != KIND_CALL:
                raise DecompressionError("call item without a callee index")
            else:
                target = value
            clone = new(Instruction)
            set_op(clone, tail.op)
            set_rd(clone, tail.rd)
            set_rs1(clone, tail.rs1)
            set_rs2(clone, tail.rs2)
            set_imm(clone, tail.imm)
            set_target(clone, target)
            append(clone)
        return instructions

    def function(self, findex: int) -> Function:
        """Decode function ``findex``, memoized and thread-safe.

        Concurrent callers for the same index all receive the *same*
        :class:`Function` object; the double-checked lock guarantees the
        memo dict is never mutated concurrently and each function is
        decoded at most once per reader.
        """
        if not 0 <= findex < self.function_count:
            raise IndexError(f"function index {findex} out of range "
                             f"(container has {self.function_count})")
        cached = self._fn_cache.get(findex)
        if cached is not None:
            return cached
        with self._fn_lock:
            cached = self._fn_cache.get(findex)
            if cached is None:
                cached = Function(
                    name=self.sections.function_names[findex],
                    insns=self.function_instructions(findex))
                self._fn_cache[findex] = cached
        return cached

    @property
    def cached_function_indices(self) -> List[int]:
        """Indices decoded (and memoized) so far, in sorted order."""
        return sorted(self._fn_cache)

    def program(self) -> Program:
        """Reconstruct the entire program.

        Goes through :meth:`function` so the ``_fn_cache`` memo is both
        consulted and populated: a full reconstruction after lazy paging
        (or vice versa) never decodes a function twice.
        """
        functions = [self.function(findex)
                     for findex in range(self.function_count)]
        return Program(name=self.sections.program_name, functions=functions,
                       entry=self.sections.entry)


def open_container(data: bytes,
                   profile: Optional[PhaseProfile] = None,
                   limits: DecodeLimits = DEFAULT_LIMITS) -> SSDReader:
    """Parse and phase-one-decompress a container.

    ``profile`` receives ``parse`` and ``dictionary_phase`` timings — the
    latter is the paper's phase one (base-entry and tree codecs reversed,
    index spaces rebuilt).

    This is a hostile-input boundary: any failure — structural, checksum,
    or resource — surfaces as a ``repro.errors`` type (all of which are
    ``ValueError``/``EOFError`` compatible); ``limits`` bounds what a
    malformed container can make the decoder allocate.
    """
    prof = ensure(profile)
    try:
        with TRACER.span("container.open", container_bytes=len(data)):
            with prof.phase("parse"):
                sections = container.parse(data, limits=limits)
            with prof.phase("dictionary_phase"):
                layouts = layouts_from_sections(sections.common_base_blob,
                                                sections.common_tree_blob,
                                                sections.segments,
                                                limits=limits)
    except ReproError:
        raise
    except (ValueError, EOFError) as exc:
        # Legacy decoders below this boundary may still raise bare
        # builtins; normalize so callers see exactly one taxonomy.
        raise as_corrupt(exc) from exc
    _OPEN_RUNS.inc()
    if sections.function_names and not layouts:
        raise DecompressionError(
            f"container has {len(sections.function_names)} functions "
            "but no segment dictionaries")
    segment_of_function: List[int] = [0] * len(sections.function_names)
    for sindex, segment in enumerate(sections.segments):
        for findex in range(segment.first_function,
                            segment.first_function + segment.function_count):
            if findex >= len(segment_of_function):
                raise DecompressionError(
                    f"segment {sindex} covers function {findex}, but the "
                    f"program has {len(segment_of_function)}")
            segment_of_function[findex] = sindex
    return SSDReader(sections=sections, layouts=layouts,
                     segment_of_function=segment_of_function,
                     container_hash=hashlib.sha256(data).hexdigest())


def decompress(data: bytes,
               profile: Optional[PhaseProfile] = None,
               limits: DecodeLimits = DEFAULT_LIMITS) -> Program:
    """One-call convenience: container bytes -> program.

    ``profile`` receives the phase-one timings of :func:`open_container`
    plus ``copy_phase`` — the per-function item expansion (the paper's
    Algorithm 3 analogue on the VM-instruction side).
    """
    with TRACER.span("decompress", container_bytes=len(data)):
        reader = open_container(data, profile=profile, limits=limits)
        with ensure(profile).phase("copy_phase"):
            try:
                program = reader.program()
            except ReproError:
                raise
            except (ValueError, EOFError) as exc:
                raise as_corrupt(exc) from exc
    _DECOMPRESS_RUNS.inc()
    return program
