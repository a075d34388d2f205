"""The decoder throughput bound (paper §4.4, Algorithm 1).

The decoding unit has one complex decoder (instructions with up to four
µops) and n-1 simple decoders (single-µop instructions only); the complex
decoder always handles the first instruction fetched in a cycle.  The
bound is obtained by simulating the allocation of instructions to decoders
until the first instruction of the block lands on the same decoder a
second time — at that point the allocation is periodic and the steady-state
cost per iteration is known.

:func:`dec_bound` projects the macro-op stream onto :data:`DecOp` tuples
and runs the kernel :func:`dec_cycles` on them; the columnar core
builds the same tuples from per-form rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from repro.uarch.config import MicroArchConfig
from repro.uops.blockinfo import MacroOp

#: Algorithm 1's view of one macro-op: (requires the complex decoder,
#: simple decoders available beside it, macro-fusible, branch).
DecOp = Tuple[bool, int, bool, bool]


def decoder_ops(ops: Sequence[MacroOp]) -> Tuple[DecOp, ...]:
    """The :data:`DecOp` of every macro-op (the projection
    :func:`dec_bound` feeds to :func:`dec_cycles`)."""
    return tuple((op.info.requires_complex_decoder,
                  op.info.n_available_simple_decoders,
                  op.is_macro_fusible, op.is_branch) for op in ops)


def dec_cycles(dec_ops: Sequence[DecOp], cfg: MicroArchConfig) -> Fraction:
    """Algorithm 1 on the macro-op stream *dec_ops* (the kernel of
    :func:`dec_bound`); its first element is the block's first
    instruction."""
    n_decoders = cfg.n_decoders
    last_decoder = n_decoders - 1
    fusible_blocked = not cfg.macro_fusible_on_last_decoder
    cur_dec = n_decoders - 1
    n_available_simple = 0
    complex_in_iteration: List[int] = [0]  # index 0 unused
    first_instr_on_dec = [-1] * n_decoders
    iteration = 0

    # Termination: the first instruction lands on one of n_decoders
    # decoders each iteration, so a repeat occurs within n_decoders + 1
    # iterations by pigeonhole.
    while True:
        iteration += 1
        complex_in_iteration.append(0)
        first = True
        for requires_complex, n_available, fusible, branch in dec_ops:
            if requires_complex:
                cur_dec = 0
                n_available_simple = n_available
            else:
                blocked_on_last = (cur_dec + 1 == last_decoder
                                   and fusible and fusible_blocked)
                if n_available_simple == 0 or blocked_on_last:
                    cur_dec = 0
                    n_available_simple = last_decoder
                else:
                    cur_dec += 1
                    n_available_simple -= 1
            if branch:
                n_available_simple = 0
            if cur_dec == 0:
                complex_in_iteration[iteration] += 1
            if first:
                first = False
                previous = first_instr_on_dec[cur_dec]
                if previous >= 0:
                    unroll = iteration - previous
                    cycles = sum(complex_in_iteration[previous:iteration])
                    return Fraction(cycles, unroll)
                first_instr_on_dec[cur_dec] = iteration


def dec_bound(ops: Sequence[MacroOp], cfg: MicroArchConfig) -> Fraction:
    """The Dec throughput bound in cycles per iteration (Algorithm 1).

    *ops* is the macro-op stream: macro-fused pairs count as a single
    instruction, exactly as the decoders see them after the IQ.
    """
    return dec_cycles(decoder_ops(ops), cfg)


def simple_dec_cycles(dec_ops: Sequence[DecOp],
                      cfg: MicroArchConfig) -> Fraction:
    """SimpleDec of the macro-op stream *dec_ops* (the kernel of
    :func:`simple_dec_bound`)."""
    n = len(dec_ops)
    c = sum(1 for requires_complex, _, _, _ in dec_ops if requires_complex)
    return max(Fraction(n, cfg.n_decoders), Fraction(c))


def simple_dec_bound(ops: Sequence[MacroOp],
                     cfg: MicroArchConfig) -> Fraction:
    """SimpleDec = max(n/d, c): instruction count over decoder count, or
    the number of complex-decoder instructions (paper §4.4)."""
    return simple_dec_cycles(decoder_ops(ops), cfg)
