"""The SSD compressor: program -> container bytes.

Orchestrates the pipeline::

    build_dictionary (Algorithm 1)
      -> plan_partition (section 2.1, for > 2^16 entries)
      -> order + encode base entries per dictionary (section 2.2.1)
      -> encode sequence forests (section 2.2.2)
      -> encode SSD items per function (Algorithm 2)
      -> serialize the container

The compressor also exposes the ``branch_targets="absolute"`` variant the
paper measured against (targets stored inside dictionary entries instead
of pc-relative in the item stream); SSD proper uses ``"relative"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..isa import Program
from ..obs import REGISTRY, TRACER
from ..perf.profile import PhaseProfile, ensure
from . import container, hints
from .dictionary import (
    MAX_SEQUENCE_LENGTH,
    SSDDictionary,
    build_dictionary,
    dictionary_statistics,
)
from .items import encode_items
from .layout import build_layouts
from .partition import DEFAULT_COMMON_BUDGET, plan_partition, partition_statistics


_COMPRESS_RUNS = REGISTRY.counter(
    "compress_programs_total", "Programs compressed end to end.")
_COMPRESS_OUTPUT = REGISTRY.counter(
    "compress_output_bytes_total", "Container bytes produced by compress().")
_COMPRESS_INPUT = REGISTRY.counter(
    "compress_input_instructions_total",
    "VM instructions fed into compress().")


@dataclass
class CompressedProgram:
    """Compressor output: the container bytes plus measurement hooks."""

    data: bytes
    dictionary_stats: Dict[str, float]
    partition_stats: Dict[str, float]
    section_sizes: Dict[str, int]

    @property
    def size(self) -> int:
        return len(self.data)


def _encode_item_streams(dictionary: SSDDictionary, plan,
                         layouts) -> List[bytes]:
    """Per-function item encoding (Algorithm 2)."""
    streams: List[bytes] = []
    for keys, targets, segment in zip(dictionary.function_keys,
                                      dictionary.function_targets,
                                      plan.segment_of_function):
        streams.append(encode_items(keys, targets, layouts[segment]))
    return streams


def compress(program: Program,
             codec: str = "lz",
             max_len: int = MAX_SEQUENCE_LENGTH,
             common_budget: int = DEFAULT_COMMON_BUDGET,
             branch_targets: str = "relative",
             match_mode: str = "greedy",
             profile: Optional[PhaseProfile] = None,
             layout_plan: Optional[hints.LayoutPlanLike] = None) -> CompressedProgram:
    """Compress ``program`` into an SSD container.

    Parameters
    ----------
    codec:
        Base-entry codec, ``"lz"`` (paper default) or ``"delta"``.
    max_len:
        Maximum sequence-entry length (paper: 4).
    common_budget:
        Index slots granted to the common dictionary when partitioning.
    branch_targets:
        ``"relative"`` (SSD proper) or ``"absolute"`` — the ablation where
        branch targets live in dictionary entries, making entries with
        different targets distinct.  Implemented by disabling the
        size-not-value matching rule's benefit: each distinct target value
        becomes a distinct base entry.
    match_mode:
        ``"greedy"`` (the paper's Algorithm 1) or ``"optimal"`` (an
        item-byte-minimizing dynamic program; see ``build_dictionary``).
    profile:
        Optional :class:`repro.perf.PhaseProfile`; receives wall-clock
        timings for every pipeline phase (``dictionary.*``, ``partition``,
        ``layout``, ``items``, ``serialize``).
    layout_plan:
        Optional :class:`repro.profile.LayoutPlan` (anything with
        ``order`` and ``hints()``).  Item streams are *placed* in plan
        order and the container carries the plan's profile-hint section;
        decode output is byte-identical to the unplanned container
        (``parse`` restores logical order — see docs/LAYOUT.md).
    """
    if branch_targets not in ("relative", "absolute"):
        raise ValueError(f"branch_targets must be relative/absolute, got {branch_targets!r}")
    prof = ensure(profile)
    with TRACER.span("compress", program=program.name):
        dictionary = build_dictionary(program, max_len=max_len,
                                      absolute_targets=branch_targets == "absolute",
                                      match_mode=match_mode,
                                      profile=profile)
        with prof.phase("partition"):
            plan = plan_partition(dictionary, common_budget=common_budget)
        with prof.phase("layout"):
            layouts, common_base_blob, common_tree_blob, segment_sections = build_layouts(
                dictionary, plan, codec=codec)

        with prof.phase("items"):
            item_streams = _encode_item_streams(dictionary, plan, layouts)

        with prof.phase("serialize"):
            sections = container.ContainerSections(
                program_name=program.name,
                entry=program.entry,
                function_names=[fn.name for fn in program.functions],
                common_base_blob=common_base_blob,
                common_tree_blob=common_tree_blob,
                segments=segment_sections,
                item_streams=item_streams,
            )
            if layout_plan is not None:
                sections.function_order = list(layout_plan.order)
                sections.profile_hints_blob = hints.encode_hints(
                    layout_plan.hints())
            data = container.serialize(sections)
    _COMPRESS_RUNS.inc()
    _COMPRESS_OUTPUT.inc(len(data))
    _COMPRESS_INPUT.inc(program.instruction_count)
    return CompressedProgram(
        data=data,
        dictionary_stats=dictionary_statistics(dictionary),
        partition_stats=partition_statistics(plan),
        section_sizes=sections.section_sizes(),
    )
