"""The batch prediction engine: serial predictions, pooled measurements.

:class:`Engine` makes whole-suite evaluation the first-class fast path.
It resolves one prediction core per engine — the columnar core
(:class:`~repro.engine.columnar.ColumnarCore`, the default) or the
Facile object model, which routes every prediction through a shared
:class:`~repro.engine.cache.AnalysisCache` — and calls it directly, in
input order.  A Facile prediction costs well under a millisecond, less
than shipping the block to another process would, so predictions never
leave the calling process.

:func:`measure_many` is the one worker pool.  The oracle simulator costs
tens of milliseconds per block, so its measurements fan out over a
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

Suite evaluation picks the measurement worker count from
:func:`set_default_workers` (the CLI's ``--workers``); ``None`` measures
serially, ``0`` uses one worker per CPU.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.components import Component, ThroughputMode
from repro.core.model import Facile, Prediction
from repro.engine.cache import AnalysisCache
from repro.engine.columnar import ColumnarCore, resolve_core
from repro.isa.block import BasicBlock
from repro.robustness.errors import PredictorError
from repro.robustness.faults import act_in_worker, active_plan
from repro.uarch import uarch_by_name
from repro.uarch.config import MicroArchConfig
from repro.uops.database import UopsDatabase

#: Both throughput notions, in evaluation order.
ALL_MODES = (ThroughputMode.UNROLLED, ThroughputMode.LOOP)

#: Fault-injection site of pooled oracle measurements.
MEASURE_SITE = "engine.measure"

#: Per-task deadline applied when a fault plan is active but no
#: explicit ``task_timeout`` was configured: injection without a
#: deadline could hang forever, which is exactly what the harness
#: exists to rule out.
DEFAULT_FAULTED_TIMEOUT = 10.0

#: A batch entry: a prediction, or a typed failure slot.
PredictResult = Union[Prediction, PredictorError]

_DEFAULT_WORKERS: Optional[int] = None


def default_workers() -> Optional[int]:
    """The process-wide measurement worker count (None means serial)."""
    return _DEFAULT_WORKERS


def set_default_workers(n_workers: Optional[int]) -> None:
    """Set the measurement worker count of suite evaluations."""
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = n_workers


# ---------------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------------

#: Per-process databases for measurement tasks (one per µarch).
_WORKER_DBS: Dict[str, UopsDatabase] = {}


def _measure_task(task) -> Tuple[int, float]:
    """Run the oracle simulator on one compact payload in a worker."""
    from repro.sim.measure import measure

    abbrev, index, raw, mode_value, fault = task
    if fault is not None:
        act_in_worker(fault, MEASURE_SITE)
    db = _WORKER_DBS.get(abbrev)
    if db is None:
        db = UopsDatabase(uarch_by_name(abbrev))
        _WORKER_DBS[abbrev] = db
    block = BasicBlock.from_bytes(raw)
    return index, measure(block, db.cfg, ThroughputMode(mode_value), db)


def _pool_context():
    """Prefer fork (cheap, shares the imported package); fall back to the
    platform default where fork is unavailable."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class Engine:
    """Batch prediction engine for one Facile variant on one µarch.

    Args:
        cfg: the target microarchitecture.
        db / cache: optionally shared database and analysis cache.
        simple_predec / simple_dec / components / exclude: the Facile
            variant, as in :class:`~repro.core.model.Facile`.
        core: the prediction core — ``"columnar"`` (the compiled fast
            path, :class:`~repro.engine.columnar.ColumnarCore`) or
            ``"object"`` (the Facile object-model reference).  Both are
            bit-for-bit identical; ``None`` resolves via
            ``REPRO_ENGINE_CORE``, default ``columnar``.  Only the
            object core populates ``self.cache`` (the analysis cache);
            the columnar core keeps its own counters
            (``self.columnar.stats()``).

    The engine itself is not thread-safe; concurrent callers should go
    through :class:`repro.engine.MicroBatcher`, which funnels all
    traffic into one dispatcher thread.
    """

    def __init__(self, cfg: MicroArchConfig, *,
                 db: Optional[UopsDatabase] = None,
                 cache: Optional[AnalysisCache] = None,
                 simple_predec: bool = False,
                 simple_dec: bool = False,
                 components: Optional[Iterable[Component]] = None,
                 exclude: Iterable[Component] = (),
                 core: Optional[str] = None):
        self.cfg = cfg
        self.core = resolve_core(core)
        self.db = db or UopsDatabase(cfg)
        self.cache = cache if cache is not None \
            else AnalysisCache.shared(self.db)
        self.model = Facile(
            cfg, db=self.db, cache=self.cache,
            simple_predec=simple_predec, simple_dec=simple_dec,
            components=components, exclude=exclude)
        if self.core == "columnar":
            self.columnar: Optional[ColumnarCore] = ColumnarCore(
                cfg, db=self.db,
                simple_predec=simple_predec, simple_dec=simple_dec,
                components=components, exclude=exclude)
            self.predictor = self.columnar
        else:
            self.columnar = None
            self.predictor = self.model

    def predict(self, block: BasicBlock, mode: ThroughputMode) -> Prediction:
        """Predict one block."""
        return self.predictor.predict(block, mode)

    def predict_many(self, blocks: Sequence[BasicBlock],
                     mode: ThroughputMode, *,
                     on_error: str = "raise") -> List[PredictResult]:
        """Predict a whole batch, preserving input order.

        Args:
            on_error: ``"raise"`` (default) propagates the first
                failing block's exception; ``"record"`` degrades each
                failing block's result slot to a :class:`PredictorError`
                and keeps every other slot intact.
        """
        if on_error not in ("raise", "record"):
            raise ValueError("on_error must be 'raise' or 'record'")
        if on_error == "raise":
            return self.predictor.predict_many(blocks, mode)
        results: List[PredictResult] = []
        for index, block in enumerate(blocks):
            try:
                results.append(self.predictor.predict(block, mode))
            except Exception as exc:
                results.append(PredictorError(
                    kind="exception",
                    detail=f"{type(exc).__name__}: {exc}",
                    attempts=1, index=index))
        return results

    def predict_suite(self, suite, modes: Optional[Sequence[ThroughputMode]]
                      = None) -> Dict[ThroughputMode, List[Prediction]]:
        """Predict every benchmark of a suite under each mode.

        The suite's benchmarks provide ``block(loop)`` variants (BHiveU /
        BHiveL), matching how the evaluation layer consumes them.
        """
        modes = list(modes) if modes is not None else list(ALL_MODES)
        out: Dict[ThroughputMode, List[Prediction]] = {}
        for mode in modes:
            loop = mode is ThroughputMode.LOOP
            out[mode] = self.predict_many(
                [bench.block(loop) for bench in suite], mode)
        return out


def measure_many(cfg: MicroArchConfig, blocks: Sequence[BasicBlock],
                 mode: ThroughputMode, *, n_workers: int,
                 task_timeout: Optional[float] = None) -> List[float]:
    """Oracle-simulator measurements of a batch, over a worker pool.

    The measurement side of suite evaluation is by far its slowest part
    (cycle-level simulation), so it fans out as one compact
    ``(index, raw bytes)`` task per block, with per-worker databases
    and a deterministic merge by index.

    The process-wide measurement cache of :mod:`repro.sim.measure` is
    consulted first and refilled with the workers' results, so repeated
    suite evaluations stay free regardless of which path measured them.

    Fault tolerance: the pool path is best-effort.  If the pool waits
    longer than *task_timeout* for its next result (default: forever;
    10 s under an active fault plan) or raises, every measurement it
    failed to deliver is computed serially in-process — serial and
    pooled measurements are identical by construction, so recovery
    never changes results.
    """
    from repro.sim.measure import cached_measurement, measure, \
        store_measurement

    if n_workers < 0:
        raise ValueError("n_workers must be >= 0 (0 = one per CPU)")
    blocks = list(blocks)
    if not blocks:
        return []
    if uarch_by_name(cfg.abbrev) != cfg:
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
