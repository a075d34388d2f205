"""JCC-erratum detection (paper §4.2, footnote 1).

As a mitigation for the Jump Conditional Code erratum, Skylake-family CPUs
do not cache (in the DSB) 32-byte regions containing a jump that crosses
or ends on a 32-byte boundary.  Affected loops fall back to the legacy
decode pipeline, so their front-end bound is max(Predec, Dec).

Blocks are assumed to start at a 32-byte-aligned address (the measurement
harness of the BHive substrate places them there).

:func:`affected_by_jcc_erratum` projects a block onto the byte spans of
its jumps (:func:`branch_spans`) and runs the kernel
:func:`spans_affected` on them; the columnar core builds the spans from
per-form rows.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.isa.block import BasicBlock
from repro.uarch.config import MicroArchConfig
from repro.uops.blockinfo import AnalyzedInstruction

_REGION = 32

#: The byte offsets ``(first, last)`` of one jump within its block.
Span = Tuple[int, int]


def branch_spans(block: BasicBlock,
                 analyzed: Sequence[AnalyzedInstruction],
                 ) -> Tuple[Span, ...]:
    """The :data:`Span` of every jump of *block* (the projection
    :func:`affected_by_jcc_erratum` feeds to :func:`spans_affected`).

    A jump "instruction" includes macro-fused pairs: the fused flag
    producer and branch form a single jump for the purposes of the
    mitigation, so the span of a fused branch starts at its producer.
    """
    offsets = block.instruction_offsets()
    spans = []
    for entry in analyzed:
        if not entry.instr.is_branch:
            continue
        start = offsets[entry.index - 1 if entry.fused_into_prev
                        else entry.index]
        spans.append((start, offsets[entry.index] + entry.instr.length - 1))
    return tuple(spans)


def spans_affected(spans: Sequence[Span]) -> bool:
    """True when a jump crosses or ends on a 32-byte boundary (the
    kernel of :func:`affected_by_jcc_erratum`)."""
    for start, end in spans:
        if start // _REGION != end // _REGION or (end + 1) % _REGION == 0:
            return True
    return False


def affected_by_jcc_erratum(block: BasicBlock, cfg: MicroArchConfig,
                            analyzed: Sequence[AnalyzedInstruction],
                            ) -> bool:
    """True when the JCC-erratum mitigation forces legacy decoding."""
    if not cfg.jcc_erratum:
        return False
    return spans_affected(branch_spans(block, analyzed))
