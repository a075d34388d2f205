"""The predecoder throughput bound (paper §4.3).

The predecoder fetches aligned 16-byte blocks and finds instruction
boundaries, predecoding up to five instructions per cycle.  Crossing a
16-byte boundary can cost an extra cycle depending on where the nominal
opcode lies, and length-changing prefixes (LCP) cost three cycles each,
partially hidden behind the predecode of the previous block.

:func:`predec_bound` projects a block onto its :data:`Layout` and runs
the kernel :func:`predec_cycles` on it; the columnar core builds the
same layout from per-form rows and runs the same kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Tuple

from repro.core.components import ThroughputMode
from repro.isa.block import BasicBlock
from repro.uarch.config import MicroArchConfig

_BLOCK = 16


def _unroll_factor(length: int, mode: ThroughputMode) -> int:
    """Iterations after which the predecoder's behaviour repeats.

    Under unrolling, copies of the block tile the 16-byte grid with period
    lcm(l, 16)/l; a loop restarts at the same address every iteration.
    """
    if mode is ThroughputMode.LOOP:
        return 1
    return math.lcm(length, _BLOCK) // length


#: The predecoder's view of a block, one column per fact: for each
#: instruction, the offset into the block of its first nominal-opcode
#: byte, the offset of its last byte, and whether it has an LCP.
Layout = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[bool, ...]]


def block_layout(block: BasicBlock) -> Layout:
    """The :data:`Layout` of *block* (the projection
    :func:`predec_bound` feeds to :func:`predec_cycles`)."""
    opcode_bytes = []
    last_bytes = []
    offset = 0
    for instr in block:
        opcode_bytes.append(offset + instr.opcode_offset)
        offset += instr.length
        last_bytes.append(offset - 1)
    return (tuple(opcode_bytes), tuple(last_bytes),
            tuple(instr.has_lcp for instr in block))


def predec_cycles(layout: Layout, length: int, cfg: MicroArchConfig,
                  mode: ThroughputMode) -> Fraction:
    """The Predec bound of a block of *length* bytes laid out as
    *layout* (the kernel of :func:`predec_bound`).

    Over the copies of the block that make its behaviour repeat, and
    following the paper's notation, the 16-byte block *b* predecodes
    L(b) + O(b) instruction instances: L(b) whose last byte is in *b*,
    O(b) whose first nominal-opcode byte is in *b* but whose last byte
    is not.  LCP(b) instances with a length-changing prefix have their
    nominal opcode in *b*; each costs three cycles, partly hidden
    behind the predecode of the previous block.
    """
    width = cfg.predecode_width
    unroll = _unroll_factor(length, mode)
    events = [0] * -(-(unroll * length) // _BLOCK)  # L(b) + O(b)
    lcps: Dict[int, int] = {}  # LCP(b), for the blocks where it is > 0
    for copy in range(unroll):
        base = copy * length
        for opcode_byte, last_byte, lcp in zip(*layout):
            opcode_block = (base + opcode_byte) // _BLOCK
            last_block = (base + last_byte) // _BLOCK
            events[last_block] += 1
            if opcode_block != last_block:
                events[opcode_block] += 1
            if lcp:
                lcps[opcode_block] = lcps.get(opcode_block, 0) + 1

    cycles_nlcp = [-(-count // width) for count in events]
    total = sum(cycles_nlcp)
    for b, count in lcps.items():
        prev = cycles_nlcp[b - 1]  # b == 0 wraps to block n-1 (steady state)
        total += max(0, 3 * count - max(0, prev - 1))
    return Fraction(total, unroll)


def predec_bound(block: BasicBlock, cfg: MicroArchConfig,
                 mode: ThroughputMode) -> Fraction:
    """The Predec throughput bound in cycles per iteration."""
    return predec_cycles(block_layout(block), block.num_bytes, cfg, mode)


def simple_predec_cycles(length: int) -> Fraction:
    """SimplePredec of a block of *length* bytes: one 16-byte block per
    cycle (paper §4.3)."""
    return Fraction(length, _BLOCK)


def simple_predec_bound(block: BasicBlock, cfg: MicroArchConfig,
                        mode: ThroughputMode) -> Fraction:
    """SimplePredec: one 16-byte block per cycle (paper §4.3)."""
    del cfg, mode
    return simple_predec_cycles(block.num_bytes)
