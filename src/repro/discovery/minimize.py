"""Witness minimization: greedy instruction dropping.

A deviating block found by a campaign usually contains instructions
that have nothing to do with the deviation.  :func:`minimize_lines`
shrinks the block body while the deviation persists — the delta-debugging
step AnICA performs before generalizing a discovery:

* in each round, every single-instruction drop of the current body is
  evaluated **as one batch** (so the measurement pool and the
  engine's caches apply);
* the first (lowest-index) drop that keeps the interestingness score at
  or above the threshold is accepted, and the round repeats on the
  shorter body;
* when no single drop preserves the deviation, the body is 1-minimal:
  every remaining instruction is necessary.

The procedure is deterministic: candidate order is positional, and the
scores it consumes are pure functions of the evaluated blocks.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

#: Evaluates a batch of block bodies, returning one interestingness
#: score per body (see :mod:`repro.discovery.interestingness`).
ScoreBatch = Callable[[List[Tuple[str, ...]]], List[float]]


def minimize_lines(lines: Sequence[str], evaluate: ScoreBatch,
                   threshold: float) -> Tuple[Tuple[str, ...], int]:
    """Greedily drop instructions while the deviation persists.

    Args:
        lines: the deviating block body (assembly lines).
        evaluate: batch scorer for candidate bodies (same µarch, mode,
            and tool set that found the deviation).
        threshold: the campaign's interestingness threshold; a drop is
            kept only while the score stays at or above it.

    Returns:
        ``(minimized_lines, trials)`` — the 1-minimal body and how many
        candidate bodies were evaluated on the way.
    """
    current: Tuple[str, ...] = tuple(lines)
    trials = 0
    while len(current) > 1:
        candidates = [current[:i] + current[i + 1:]
                      for i in range(len(current))]
        scores = evaluate(candidates)
        if len(scores) != len(candidates):
            raise ValueError("evaluate() must score every candidate")
        trials += len(candidates)
        for candidate, score in zip(candidates, scores):
            if score >= threshold:
                current = candidate
                break
        else:
            break  # 1-minimal: every instruction is load-bearing
    return current, trials
