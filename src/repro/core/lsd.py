"""The loop-stream-detector bound (paper §4.6)."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from repro.uarch.config import MicroArchConfig
from repro.uops.blockinfo import MacroOp


def lsd_fits_uops(n_fused: int, cfg: MicroArchConfig) -> bool:
    """True when a loop of *n_fused* µops fits into the IDQ (the kernel
    of :func:`lsd_fits`)."""
    return cfg.lsd_enabled and n_fused <= cfg.idq_size


def lsd_fits(ops: Sequence[MacroOp], cfg: MicroArchConfig) -> bool:
    """True when the loop's µops fit into the IDQ (LSD applicability)."""
    return lsd_fits_uops(sum(op.info.fused_uops for op in ops), cfg)


def lsd_unroll_count(n_uops: int, cfg: MicroArchConfig) -> int:
    """How many times the LSD unrolls a loop of *n_uops* µops.

    On microarchitectures with LSD unrolling (ICL and later), small loops
    are unrolled so that close to a full issue group can be streamed per
    cycle.  The rule used here — unroll until two issue groups' worth of
    µops are in flight, bounded by the IDQ capacity — approximates the
    behaviour reverse-engineered in the uiCA paper (see DESIGN.md).
    """
    if not cfg.lsd_unrolls or n_uops == 0:
        return 1
    target = math.ceil(2 * cfg.issue_width / n_uops)
    capacity = max(1, cfg.idq_size // n_uops)
    return max(1, min(target, capacity))


def lsd_cycles(n_fused: int, cfg: MicroArchConfig) -> Fraction:
    """The LSD bound of a loop of *n_fused* µops (the kernel of
    :func:`lsd_bound`)."""
    unroll = lsd_unroll_count(n_fused, cfg)
    return Fraction(-(-(n_fused * unroll) // cfg.issue_width), unroll)


def lsd_bound(ops: Sequence[MacroOp], cfg: MicroArchConfig) -> Fraction:
    """Cycles per iteration when µops stream from the LSD.

    The last µop of an iteration and the first µop of the next cannot be
    streamed in the same cycle, hence the ceiling; LSD unrolling amortizes
    that ceiling over several logical iterations.
    """
    return lsd_cycles(sum(op.info.fused_uops for op in ops), cfg)
