"""The issue-width bound (paper §4.7)."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.uarch.config import MicroArchConfig
from repro.uops.blockinfo import MacroOp


def issue_cycles(n_issued: int, cfg: MicroArchConfig) -> Fraction:
    """*n_issued* µops over the issue width (the kernel of
    :func:`issue_bound`)."""
    return Fraction(n_issued, cfg.issue_width)


def issue_bound(ops: Sequence[MacroOp], cfg: MicroArchConfig) -> Fraction:
    """Issued µops (fused-domain, after unlamination) over issue width."""
    return issue_cycles(sum(op.info.issued_uops for op in ops), cfg)
