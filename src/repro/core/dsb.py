"""The DSB (µop cache) delivery bound (paper §4.5)."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.uarch.config import MicroArchConfig
from repro.uops.blockinfo import MacroOp


def dsb_cycles(n_fused: int, block_length: int,
               cfg: MicroArchConfig) -> Fraction:
    """The DSB bound of *n_fused* fused-domain µops in a block of
    *block_length* bytes (the kernel of :func:`dsb_bound`)."""
    w = cfg.dsb_width
    if block_length < 32:
        return Fraction(-(-n_fused // w))
    return Fraction(n_fused, w)


def dsb_bound(ops: Sequence[MacroOp], block_length: int,
              cfg: MicroArchConfig) -> Fraction:
    """Cycles per iteration when µops stream from the DSB.

    For blocks shorter than 32 bytes the branch at the end of the block
    prevents loading further µops from the same 32-byte region in the same
    cycle, so the delivery cost is rounded up to whole cycles.
    """
    return dsb_cycles(sum(op.info.fused_uops for op in ops), block_length,
                      cfg)
