"""The measurement harness (BHive-profiler substitute).

The original evaluation measures each benchmark on real CPUs with the
BHive profiler and rounds the result to two decimal digits.  This module
provides the drop-in substitute: steady-state throughput measured on the
oracle simulator, rounded the same way, with a per-(block, µarch, mode)
cache because every predictor comparison reuses the same measurements.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.components import ThroughputMode
from repro.isa.block import BasicBlock
from repro.sim.backend import SimOptions
from repro.sim.simulator import Simulator
from repro.uarch.config import MicroArchConfig
from repro.uops.database import UopsDatabase


@dataclass(frozen=True)
class Measurement:
    """One measured benchmark."""

    block: BasicBlock
    mode: ThroughputMode
    cycles: float


#: Process-wide measurements, keyed by (block bytes, µarch, mode).
_CACHE: Dict[Tuple[bytes, str, str], float] = {}
#: Most entries :data:`_CACHE` holds (as many as the Ports memo); past
#: it, the oldest insertion goes first.
_CACHE_MAX = 65536
#: Serializes the cache's insertions, evictions and clears; lookups take
#: no lock (a dict read is atomic).
_CACHE_LOCK = threading.Lock()


def measure(block: BasicBlock, cfg: MicroArchConfig,
            mode: ThroughputMode,
            db: Optional[UopsDatabase] = None,
            use_cache: bool = True) -> float:
    """Measured steady-state cycles/iteration, rounded to 2 decimals."""
    if use_cache:
        cached = cached_measurement(block, cfg, mode)
        if cached is not None:
            return cached
    simulator = Simulator(cfg, SimOptions(), db)
    cycles = round(simulator.throughput(block, mode), 2)
    if use_cache:
        store_measurement(block, cfg, mode, cycles)
    return cycles


def measure_suite(blocks: Sequence[BasicBlock], cfg: MicroArchConfig,
                  mode: ThroughputMode,
                  db: Optional[UopsDatabase] = None) -> List[Measurement]:
    """Measure a whole suite, sharing the uops database."""
    db = db or UopsDatabase(cfg)
    return [Measurement(block, mode, measure(block, cfg, mode, db))
            for block in blocks]


def cached_measurement(block: BasicBlock, cfg: MicroArchConfig,
                       mode: ThroughputMode) -> Optional[float]:
    """The cached measurement of *block*, or None when not yet measured."""
    return _CACHE.get((block.raw, cfg.abbrev, mode.value))


def store_measurement(block: BasicBlock, cfg: MicroArchConfig,
                      mode: ThroughputMode, cycles: float) -> None:
    """Insert a measurement (also one from ``measure_many``'s worker
    pool) into the process-wide cache."""
    with _CACHE_LOCK:
        while len(_CACHE) >= _CACHE_MAX:
            del _CACHE[next(iter(_CACHE))]
        _CACHE[(block.raw, cfg.abbrev, mode.value)] = cycles


def clear_cache() -> None:
    """Drop all cached measurements (for tests)."""
    with _CACHE_LOCK:
        _CACHE.clear()
