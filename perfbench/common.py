"""Shared helpers of the benchmark: paths, percentiles, memory, blocks.

Everything here reads or writes only inside the checkout the benchmark
runs from (its parent directory).
"""

from __future__ import annotations

import gc
import math
import os
import re
import resource
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch output of traced runs (span dumps), inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: The µarchs every workload draws from, round-robin.  ICL has an LSD and
#: no JCC erratum, SKL has the erratum and no LSD, so between them every
#: loop-mode front end (legacy, DSB, LSD) is exercised.
UARCHS = ("SKL", "ICL")
MODES = ("loop", "unrolled")
#: Round-robin order of (µarch, mode) configurations.
CONFIGS: Tuple[Tuple[str, str], ...] = tuple(
    (uarch, mode) for uarch in UARCHS for mode in MODES)


def require_source() -> None:
    """Exit with code 2 unless the program's source is in the checkout."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank *pct* percentile of *n*."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0) if values else 0.0


def rss_kb() -> int:
    """Current resident set of this process, in KiB."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of *ys* over *xs* (0.0 for <2 points)."""
    n = len(xs)
    if n < 2:
        return 0.0
    mx = sum(xs) / n
    my = sum(ys) / n
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


_SIGN = re.compile(r"[+-](?=\d)")
_NUMBER = re.compile(r"(?<![\w])\d+")


def shape_key(uarch: str, block) -> Tuple[str, ...]:
    """A key equal for any two blocks the columnar core could share a
    compiled signature for, on one µarch.

    A signature is the per-instruction (form bytes, displacement is
    zero) sequence, so blocks that differ only in immediate or
    displacement *values* share it.  The key masks every number in the
    assembly text (signs included), keeping register names, mnemonics,
    and whether a memory operand has a displacement at all.  It is
    coarser than the signature (equal signatures always give equal
    keys), so deduplicating on it leaves only never-seen signatures.
    """
    return (uarch,) + tuple(
        _NUMBER.sub("N", _SIGN.sub("+", instr.text()))
        for instr in block)


class Clock:
    """Accumulates timed seconds; the run measures until ``done``."""

    def __init__(self, seconds: float):
        self.budget = float(seconds)
        self.timed = 0.0

    def add(self, seconds: float) -> None:
        self.timed += seconds

    @property
    def done(self) -> bool:
        return self.timed >= self.budget


def now() -> float:
    return time.perf_counter()


#: Iterations of the probe loop (about a millisecond of work).
PROBE_ITERATIONS = 20000
#: A group is quiet when its probe took at most this many times the
#: run's 10th-percentile probe.
QUIET_FACTOR = 1.1


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The machine's other tenants slow this process down in phases of a
    few seconds; the probe, run between timed groups and outside them,
    shows which groups ran in such a phase.  It reads the thread's CPU
    time, which a slower CPU stretches but waiting for the interpreter
    lock held by another thread of this process does not.
    """
    start = time.thread_time()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.thread_time() - start


class Groups:
    """Timed calls in groups, each followed by a :func:`probe`.

    Metrics use only the quiet groups: those timed while the probe ran
    at close to its best speed in this run.  A change to the program
    moves every group alike, so filtering out disturbed groups makes
    runs comparable without hiding regressions.  A workload that keeps
    every CPU busy itself (the service) disturbs the probe too; it
    keeps all groups (*filtered* false).
    """

    def __init__(self, blocks_per_call: int = 1, filtered: bool = True):
        self.blocks_per_call = blocks_per_call
        self.filtered = filtered
        self.latencies: List[List[float]] = []
        self.tags: List[Sequence[str]] = []
        self.probes: List[float] = []

    def add(self, latencies: Sequence[float],
            tags: Sequence[str] = ()) -> None:
        self.latencies.append(list(latencies))
        self.tags.append(tags)
        self.probes.append(probe())

    @property
    def calls(self) -> int:
        return sum(len(group) for group in self.latencies)

    def _quiet(self) -> List[int]:
        if not self.filtered:
            return list(range(len(self.probes)))
        if not self.probes:
            return []
        limit = QUIET_FACTOR * percentile(self.probes, 10.0)
        return [i for i, p in enumerate(self.probes) if p <= limit]

    def note(self) -> str:
        return f"quiet groups: {len(self._quiet())} of {len(self.probes)}"

    def quiet_latencies(self, tag: Optional[str] = None) -> List[float]:
        out: List[float] = []
        for i in self._quiet():
            if tag is None:
                out.extend(self.latencies[i])
            else:
                out.extend(latency for latency, each
                           in zip(self.latencies[i], self.tags[i])
                           if each == tag)
        return out

    @property
    def blocks_per_s(self) -> float:
        """Blocks over seconds, summed over the quiet groups.

        Sums, not a median of group rates: the blocks of one group vary
        in cost, which a per-group rate would carry into the estimate.
        """
        quiet = self._quiet()
        spent = sum(sum(self.latencies[i]) for i in quiet)
        calls = sum(len(self.latencies[i]) for i in quiet)
        return calls * self.blocks_per_call / spent if spent else 0.0


def tail_stats(samples_s: Sequence[float], pct: float,
               scale: float) -> Dict[str, float]:
    """Median and *pct* tail of *samples_s*, in units of ``1/scale`` s."""
    return {"p50": median(samples_s) * scale,
            "tail": percentile(samples_s, pct) * scale,
            "n": len(samples_s),
            "beyond": beyond(len(samples_s), pct)}


#: Set-ups per run of :func:`timed_setups`.
SETUP_REPS = 9


class Setups:
    """The timed set-ups of one run, each between two :func:`probe` calls.

    *prepare* runs before each set-up, outside the timed part (the
    engine workloads drop the process-wide tables there, so a set-up
    starts cold without timing the release of what the run built).  A
    full collection runs there too, so every set-up starts from the same
    collector state however much the run has allocated.

    ``setup_s`` is the median of the quiet set-ups: those whose slower
    probe is within :data:`QUIET_FACTOR` of the set-ups' 10th-percentile
    probe.  The engine workloads spread their set-ups through the run,
    so the quiet ones are those made in the fastest phase the run met.
    """

    def __init__(self, setup, prepare=None):
        self.setup = setup
        self.prepare = prepare
        self.times: List[float] = []
        self.probes: List[float] = []

    def run(self):
        if self.prepare is not None:
            self.prepare()
        gc.collect()
        before = probe()
        start = now()
        result = self.setup()
        self.times.append(now() - start)
        self.probes.append(max(before, probe()))
        return result

    def _quiet(self) -> List[float]:
        limit = QUIET_FACTOR * percentile(self.probes, 10.0)
        return [t for t, p in zip(self.times, self.probes) if p <= limit]

    def seconds(self) -> float:
        """Median seconds of the quiet set-ups."""
        return median(self._quiet())

    def note(self) -> str:
        return f"quiet set-ups: {len(self._quiet())} of {len(self.times)}"


def timed_setups(setup, teardown=None) -> Tuple[float, object]:
    """Run *setup* :data:`SETUP_REPS` times in a row (see :class:`Setups`).

    Returns the median seconds of the quiet set-ups and the last
    set-up's result; *teardown* releases every other result, outside the
    timed part.  Each result is dropped before the next set-up runs, so
    no two are alive at once and the process's peak RSS is not set by
    their overlap.
    """
    setups = Setups(setup)
    result: Optional[object] = None
    for rep in range(SETUP_REPS):
        if rep and teardown is not None:
            teardown(result)
        result = None
        result = setups.run()
    return setups.seconds(), result
