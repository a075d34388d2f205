"""The measurement harness (BHive-profiler substitute).

The original evaluation measures each benchmark on real CPUs with the
BHive profiler and rounds the result to two decimal digits.  This module
provides the drop-in substitute: steady-state throughput measured on the
oracle simulator, rounded the same way, with a per-(block, µarch, mode)
cache because every predictor comparison reuses the same measurements.

:func:`measure_many` is the one worker pool.  A simulation costs tens
of milliseconds per block, so a batch of measurements fans out over a
``multiprocessing`` pool.  Following AnICA's ``PredictorManager``
design, tasks are compact, cheaply picklable payloads — ``(µarch name,
index, raw block bytes, mode, injected fault)`` — and every worker
process owns its private :class:`~repro.uops.database.UopsDatabase`.
Results are merged by index, so pooled and serial measurements are
identical.

The pool is best-effort (see ``docs/ROBUSTNESS.md``): each result must
arrive within ``task_timeout`` seconds of the previous one, and a pool
that misses that deadline (a dead or hung worker) or raises is
abandoned.  Every measurement it failed to deliver is computed serially
in-process, which never changes results.  The
:mod:`repro.robustness.faults` harness can deterministically inject
worker kills, hangs, and exceptions into the pool (site
``engine.measure``) to prove this in tier-1 tests.

Suite evaluation picks the worker count from :func:`set_default_workers`
(the CLI's ``--workers``); ``None`` measures serially, ``0`` uses one
worker per CPU.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.components import ThroughputMode
from repro.isa.block import BasicBlock
from repro.robustness.faults import DEFAULT_FAULTED_TIMEOUT, \
    _pool_context, act_in_worker, active_plan
from repro.sim.backend import SimOptions
from repro.sim.simulator import Simulator
from repro.uarch import uarch_by_name
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
    """Insert a measurement (also one from :func:`measure_many`'s worker
    pool) into the process-wide cache."""
    with _CACHE_LOCK:
        while len(_CACHE) >= _CACHE_MAX:
            del _CACHE[next(iter(_CACHE))]
        _CACHE[(block.raw, cfg.abbrev, mode.value)] = cycles


def clear_cache() -> None:
    """Drop all cached measurements (for tests)."""
    with _CACHE_LOCK:
        _CACHE.clear()


# ---------------------------------------------------------------------------
# The measurement pool
# ---------------------------------------------------------------------------

#: Fault-injection site of pooled measurements (``REPRO_FAULTS`` specs
#: name it).
MEASURE_SITE = "engine.measure"

_DEFAULT_WORKERS: Optional[int] = None


def default_workers() -> Optional[int]:
    """The process-wide measurement worker count (None means serial)."""
    return _DEFAULT_WORKERS


def set_default_workers(n_workers: Optional[int]) -> None:
    """Set the measurement worker count of suite evaluations."""
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = n_workers


def registered(cfg: MicroArchConfig) -> bool:
    """Whether *cfg* is the registry's µarch of its name, so a worker
    can rebuild it from the name alone."""
    try:
        return uarch_by_name(cfg.abbrev) == cfg
    except KeyError:
        return False


#: Per-process databases for measurement tasks (one per µarch).
_WORKER_DBS: Dict[str, UopsDatabase] = {}


def _measure_task(task) -> Tuple[int, float]:
    """Run the oracle simulator on one compact payload in a worker."""
    abbrev, index, raw, mode_value, fault = task
    if fault is not None:
        act_in_worker(fault, MEASURE_SITE)
    db = _WORKER_DBS.get(abbrev)
    if db is None:
        db = UopsDatabase(uarch_by_name(abbrev))
        _WORKER_DBS[abbrev] = db
    block = BasicBlock.from_bytes(raw)
    return index, measure(block, db.cfg, ThroughputMode(mode_value), db)


def measure_many(cfg: MicroArchConfig, blocks: Sequence[BasicBlock],
                 mode: ThroughputMode, *, n_workers: int,
                 task_timeout: Optional[float] = None) -> List[float]:
    """Oracle-simulator measurements of a batch, over a worker pool.

    One compact ``(index, raw bytes)`` task per block, per-worker
    databases, and a deterministic merge by index.  The process-wide
    cache is consulted first and refilled with the workers' results, so
    repeated suite evaluations stay free regardless of which path
    measured them.

    Fault tolerance: the pool path is best-effort.  If the pool waits
    longer than *task_timeout* for its next result (default: forever;
    10 s under an active fault plan) or raises, every measurement it
    failed to deliver is computed serially in-process — serial and
    pooled measurements are identical by construction, so recovery
    never changes results.

    Raises:
        ValueError: *n_workers* is negative, or *cfg* is not a
            registered µarch (workers rebuild it by name).
    """
    if n_workers < 0:
        raise ValueError("n_workers must be >= 0 (0 = one per CPU)")
    blocks = list(blocks)
    if not blocks:
        return []
    if not registered(cfg):
        raise ValueError(
            f"parallel measurement requires a registered µarch; "
            f"{cfg.abbrev!r} does not match the registry")
    if n_workers == 0:
        n_workers = os.cpu_count() or 1

    plan = active_plan()
    if task_timeout is None and plan is not None:
        task_timeout = DEFAULT_FAULTED_TIMEOUT

    results: List[Optional[float]] = [
        cached_measurement(block, cfg, mode) for block in blocks]
    tasks = []
    for index, block in enumerate(blocks):
        if results[index] is not None:
            continue
        fault = plan.check(MEASURE_SITE) if plan is not None else None
        tasks.append((cfg.abbrev, index, block.raw, mode.value,
                      fault.encode() if fault is not None else None))
    if tasks:
        pool = _pool_context().Pool(n_workers)
        try:
            # One task per item: only then is the iterator an
            # IMapUnorderedIterator, whose next() takes a timeout.
            iterator = pool.imap_unordered(_measure_task, tasks)
            for _ in range(len(tasks)):
                try:
                    index, cycles = iterator.next(task_timeout)
                except Exception:
                    # Timeout, dead worker, injected exception — stop
                    # trusting the pool; the serial fallback below
                    # computes whatever is still missing.
                    break
                results[index] = cycles
                store_measurement(blocks[index], cfg, mode, cycles)
        finally:
            pool.terminate()
            pool.join()
    if any(value is None for value in results):
        db = UopsDatabase(cfg)
        for index, value in enumerate(results):
            if value is None:
                cycles = measure(blocks[index], cfg, mode, db)
                results[index] = cycles
                store_measurement(blocks[index], cfg, mode, cycles)
    return results  # type: ignore[return-value]
