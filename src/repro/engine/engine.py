"""The batch prediction engine (caching + batching + parallelism).

:class:`Engine` makes whole-suite evaluation the first-class fast path:

* the **serial fast path** routes every prediction through a shared
  :class:`~repro.engine.cache.AnalysisCache`, so repeated evaluation of a
  suite (ablation sweeps, counterfactuals, figure regeneration) derives
  each block's analysis once;
* the **opt-in parallel path** fans a batch out over a
  ``multiprocessing`` pool.  Following AnICA's ``PredictorManager``
  design, tasks are compact, cheaply picklable payloads — the model
  *specification* plus ``(index, raw block bytes)`` — and every worker
  process owns its private :class:`~repro.uops.database.UopsDatabase`
  and analysis cache.  Results are merged deterministically by index,
  so serial and parallel runs return identical prediction lists.

Workers rebuild blocks with ``BasicBlock.from_bytes``; because the
analysis cache keys on the raw byte signature, a round-tripped block is
analyzed identically to the original, which keeps parallel predictions
byte-identical to the serial path.

The parallel path is **fault-tolerant** (see ``docs/ROBUSTNESS.md``):
chunks are dispatched with per-task deadlines, a chunk that produces no
result within its deadline is treated as lost (dead or hung worker), the
pool is respawned and the chunk's tasks are requeued — individually, so
an innocent chunk-mate of a poisonous task cannot be starved.  Retries
are bounded (``max_task_retries``); a task that exhausts them resolves
to a typed :class:`~repro.robustness.errors.PredictorError` in its
result slot (``on_error="record"``) or raises
:class:`~repro.robustness.errors.EngineTaskError` (the default).  Tasks
that failed with a crash or an exception get one final in-process
attempt, which keeps recovered results byte-identical to a serial run.
The :mod:`repro.robustness.faults` harness can deterministically inject
worker kills, hangs, and exceptions into this path (site
``engine.task``) to prove all of the above in tier-1 tests.

Select the worker count with ``n_workers``:

* ``None`` — use the process-wide default (``set_default_workers`` /
  the ``REPRO_ENGINE_WORKERS`` environment variable; serial if unset);
* ``0`` — one worker per CPU;
* ``k > 0`` — exactly *k* workers.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.components import Component, ThroughputMode
from repro.core.model import Facile, Prediction
from repro.engine.cache import AnalysisCache
from repro.engine.columnar import ColumnarCore, resolve_core
from repro.isa.block import BasicBlock
from repro.obs import metrics
from repro.robustness.errors import EngineTaskError, PredictorError
from repro.robustness.faults import act_in_worker, active_plan
from repro.uarch import uarch_by_name
from repro.uarch.config import MicroArchConfig
from repro.uops.database import UopsDatabase

#: Both throughput notions, in evaluation order.
ALL_MODES = (ThroughputMode.UNROLLED, ThroughputMode.LOOP)

# Recovery events as process-wide counters (docs/OBSERVABILITY.md).
# Only the cold recovery paths touch these — never per-block work, so
# the columnar hot path stays uninstrumented.
_POOL_RESPAWNS = metrics.counter(
    "facile_engine_pool_respawns_total",
    metrics.METRIC_CATALOG["facile_engine_pool_respawns_total"][1])
_TASKS_RETRIED = metrics.counter(
    "facile_engine_tasks_retried_total",
    metrics.METRIC_CATALOG["facile_engine_tasks_retried_total"][1])

#: Fault-injection site of the parallel dispatch (one draw per task).
TASK_SITE = "engine.task"
#: Fault-injection site of parallel oracle measurements.
MEASURE_SITE = "engine.measure"

#: Per-task deadline applied when a fault plan is active but no
#: explicit ``task_timeout`` was configured: injection without a
#: deadline could hang forever, which is exactly what the harness
#: exists to rule out.
DEFAULT_FAULTED_TIMEOUT = 10.0

#: A merged batch entry: a prediction, or a typed failure slot.
PredictResult = Union[Prediction, PredictorError]


def _env_workers() -> Optional[int]:
    raw = os.environ.get("REPRO_ENGINE_WORKERS", "").strip().lower()
    if raw in ("", "none", "serial"):
        return None
    try:
        workers = int(raw)
    except ValueError:
        workers = -1
    if workers < 0:
        # Runs at import time: fall back to serial rather than crash
        # every command, including those that never use workers.
        import warnings
        warnings.warn(
            f"ignoring invalid REPRO_ENGINE_WORKERS={raw!r} "
            "(expected an int >= 0, 'none', or 'serial'); running serial")
        return None
    return workers


_DEFAULT_WORKERS: Optional[int] = _env_workers()


def default_workers() -> Optional[int]:
    """The process-wide default worker count (None means serial)."""
    return _DEFAULT_WORKERS


def set_default_workers(n_workers: Optional[int]) -> None:
    """Set the default worker count used by engines created afterwards."""
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = n_workers


@dataclass(frozen=True)
class ModelSpec:
    """A picklable description of a Facile variant.

    This is what travels to worker processes instead of a live model:
    rebuilding the model from the spec inside the worker (with the
    worker's own database and cache) is cheap, while pickling a model
    would drag the whole µarch configuration and caches along.

    Components are stored by value (strings) to keep the payload small
    and stable under pickling.  ``core`` names the prediction core the
    worker should build (``"object"`` = the Facile object model,
    ``"columnar"`` = :class:`~repro.engine.columnar.ColumnarCore`);
    both cores produce bit-for-bit identical predictions.
    """

    uarch: str
    simple_predec: bool = False
    simple_dec: bool = False
    components: Optional[Tuple[str, ...]] = None
    exclude: Tuple[str, ...] = ()
    core: str = "object"

    def build(self, db: Optional[UopsDatabase] = None,
              cache: Optional[AnalysisCache] = None) -> Facile:
        """Instantiate the described model (the object-model reference)."""
        cfg = uarch_by_name(self.uarch)
        components = (None if self.components is None
                      else {Component(v) for v in self.components})
        return Facile(cfg, db=db, cache=cache,
                      simple_predec=self.simple_predec,
                      simple_dec=self.simple_dec,
                      components=components,
                      exclude={Component(v) for v in self.exclude})

    def build_predictor(self, db: Optional[UopsDatabase] = None,
                        cache: Optional[AnalysisCache] = None):
        """Instantiate the described prediction core (per ``core``)."""
        if self.core != "columnar":
            return self.build(db=db, cache=cache)
        cfg = uarch_by_name(self.uarch)
        components = (None if self.components is None
                      else {Component(v) for v in self.components})
        return ColumnarCore(cfg, db=db,
                            simple_predec=self.simple_predec,
                            simple_dec=self.simple_dec,
                            components=components,
                            exclude={Component(v) for v in self.exclude})


# ---------------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------------

#: Per-process predictor memo: each worker builds one predictor (Facile
#: or ColumnarCore per the spec, with its own database and caches) per
#: distinct spec and reuses it for the whole batch.
_WORKER_MODELS: Dict[ModelSpec, object] = {}

#: Per-process databases for measurement tasks (one per µarch).
_WORKER_DBS: Dict[str, UopsDatabase] = {}

#: A predict payload: spec, batch index, raw bytes, mode, encoded fault.
_Task = Tuple[ModelSpec, int, bytes, str, Optional[Tuple[str, float]]]

#: A chunk result entry: (index, ok, prediction-or-error-text).
_ChunkEntry = Tuple[int, bool, object]


def _predict_chunk(tasks: Sequence[_Task]) -> List[_ChunkEntry]:
    """Predict a chunk of compact payloads inside a worker process.

    Each task is isolated: an exception (injected or real) becomes a
    per-task error entry instead of poisoning the chunk.  A
    ``worker_kill`` fault exits the process without returning — the
    parent sees a lost chunk, which is the point.
    """
    out: List[_ChunkEntry] = []
    for spec, index, raw, mode_value, fault in tasks:
        try:
            if fault is not None:
                act_in_worker(fault, TASK_SITE)
            model = _WORKER_MODELS.get(spec)
            if model is None:
                model = spec.build_predictor()
                _WORKER_MODELS[spec] = model
            block = BasicBlock.from_bytes(raw)
            out.append(
                (index, True, model.predict(block,
                                            ThroughputMode(mode_value))))
        except Exception as exc:
            out.append((index, False, f"{type(exc).__name__}: {exc}"))
    return out


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
        cfg: the target microarchitecture (must be a registered one when
            the parallel path is used, so workers can rebuild it by name).
        db / cache: optionally shared database and analysis cache.
        n_workers: parallelism (see module docstring).
        chunksize: payloads per pool task on the parallel path.
        task_timeout: per-task deadline in seconds on the parallel path
            (``None`` = wait forever, unless a fault plan is active, in
            which case :data:`DEFAULT_FAULTED_TIMEOUT` applies).  A
            chunk that misses its deadline is treated as lost to a dead
            or hung worker: the pool is respawned and the tasks are
            requeued.
        max_task_retries: how many times a lost or failed task is
            redispatched before its slot degrades to a
            :class:`PredictorError` (``on_error="record"``) or raises
            :class:`EngineTaskError` (``on_error="raise"``).
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

    The engine can be used as a context manager; ``close()`` shuts the
    worker pool down.

    The engine itself is not thread-safe; concurrent callers should go
    through :class:`repro.engine.MicroBatcher`, which funnels all
    traffic into one dispatcher thread.
    """

    def __init__(self, cfg: MicroArchConfig, *,
                 db: Optional[UopsDatabase] = None,
                 cache: Optional[AnalysisCache] = None,
                 n_workers: Optional[int] = None,
                 chunksize: int = 16,
                 task_timeout: Optional[float] = None,
                 max_task_retries: int = 2,
                 simple_predec: bool = False,
                 simple_dec: bool = False,
                 components: Optional[Iterable[Component]] = None,
                 exclude: Iterable[Component] = (),
                 core: Optional[str] = None):
        self.cfg = cfg
        self.core = resolve_core(core)
        self.spec = ModelSpec(
            uarch=cfg.abbrev,
            simple_predec=simple_predec,
            simple_dec=simple_dec,
            components=(None if components is None
                        else tuple(sorted(c.value for c in components))),
            exclude=tuple(sorted(c.value for c in exclude)),
            core=self.core,
        )
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
        self.n_workers = (n_workers if n_workers is not None
                          else default_workers())
        if self.n_workers is not None and self.n_workers < 0:
            raise ValueError(
                "n_workers must be >= 0 (0 = one per CPU, None = serial)")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be > 0 seconds or None")
        if max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        self.chunksize = max(1, chunksize)
        self.task_timeout = task_timeout
        self.max_task_retries = max_task_retries
        # Recovery counters.
        self.tasks_retried = 0
        self.pool_respawns = 0
        self.tasks_failed = 0
        self._pool = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc_value, trace) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Shut the worker pool down and mark the engine closed.

        Idempotent: a second ``close()`` (or ``__del__`` after an
        explicit close) is a no-op.  A closed engine still serves the
        serial path, but will refuse to spawn a fresh pool — respawn
        recovery goes through :meth:`_shutdown_pool` precisely so it
        does not resurrect pools on engines the owner already closed.
        """
        self._shutdown_pool()
        self._closed = True

    def _shutdown_pool(self) -> None:
        """Terminate the pool if one is live (leaves ``closed`` alone)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    @property
    def parallel(self) -> bool:
        """Whether batches will be fanned out over a worker pool."""
        return self.n_workers is not None

    def _ensure_pool(self):
        if self._closed:
            raise RuntimeError(
                "Engine is closed; create a new Engine for parallel work")
        if self._pool is None:
            n = self.n_workers
            if n == 0:
                n = os.cpu_count() or 1
            if uarch_by_name(self.cfg.abbrev) != self.cfg:
                raise ValueError(
                    f"parallel prediction requires a registered µarch; "
                    f"{self.cfg.abbrev!r} does not match the registry")
            self._pool = _pool_context().Pool(n)
        return self._pool

    def _respawn_pool(self) -> None:
        """Kill the pool (hung workers included) for a fresh one."""
        self.pool_respawns += 1
        _POOL_RESPAWNS.inc()
        self._shutdown_pool()

    def _effective_timeout(self) -> Optional[float]:
        if self.task_timeout is not None:
            return self.task_timeout
        return (DEFAULT_FAULTED_TIMEOUT if active_plan() is not None
                else None)

    # -- prediction ----------------------------------------------------

    def predict(self, block: BasicBlock, mode: ThroughputMode) -> Prediction:
        """Predict one block (always in-process, cached)."""
        return self.predictor.predict(block, mode)

    def predict_many(self, blocks: Sequence[BasicBlock],
                     mode: ThroughputMode, *,
                     on_error: str = "raise") -> List[PredictResult]:
        """Predict a whole batch, preserving input order.

        Serial unless the engine was configured with workers; both paths
        return identical predictions (the parallel merge is by index,
        and recovered tasks are re-predicted in-process when the pool
        cannot produce them).

        Args:
            on_error: ``"raise"`` (default) propagates a task's final
                failure as :class:`EngineTaskError` (serial path: the
                original exception); ``"record"`` degrades the failing
                task's result slot to a :class:`PredictorError` and
                keeps every other slot intact.
        """
        if on_error not in ("raise", "record"):
            raise ValueError("on_error must be 'raise' or 'record'")
        blocks = list(blocks)
        if not blocks:
            return []
        if not self.parallel or len(blocks) == 1:
            if on_error == "raise":
                return self.predictor.predict_many(blocks, mode)
            results: List[PredictResult] = []
            for index, block in enumerate(blocks):
                try:
                    results.append(self.predictor.predict(block, mode))
                except Exception as exc:
                    self.tasks_failed += 1
                    results.append(PredictorError(
                        kind="exception",
                        detail=f"{type(exc).__name__}: {exc}",
                        attempts=1, index=index))
            return results
        return self._predict_parallel(blocks, mode, on_error)

    # -- the fault-tolerant parallel path ------------------------------

    def _predict_parallel(self, blocks: Sequence[BasicBlock],
                          mode: ThroughputMode,
                          on_error: str) -> List[PredictResult]:
        plan = active_plan()
        payloads: List[List] = []
        for index, block in enumerate(blocks):
            fault = plan.check(TASK_SITE) if plan is not None else None
            payloads.append([self.spec, index, block.raw, mode.value,
                             fault.encode() if fault is not None
                             else None])
        results: List[Optional[PredictResult]] = [None] * len(blocks)
        attempts = [0] * len(blocks)
        pending = list(range(len(blocks)))
        first_round = True
        while pending:
            timeout = self._effective_timeout()
            pool = self._ensure_pool()
            # First round: normal chunking.  Retry rounds: one task per
            # chunk, so blame is precise and an innocent chunk-mate of
            # a hung task cannot burn through its own retry budget.
            size = self.chunksize if first_round else 1
            chunks = [pending[i:i + size]
                      for i in range(0, len(pending), size)]
            handles = [
                (chunk, pool.apply_async(
                    _predict_chunk,
                    ([tuple(payloads[j]) for j in chunk],)))
                for chunk in chunks
            ]
            requeue: List[int] = []
            respawn = False
            for chunk, handle in handles:
                budget = (None if timeout is None
                          else timeout * len(chunk))
                try:
                    entries = handle.get(budget)
                except multiprocessing.TimeoutError:
                    respawn = True
                    self._absorb_lost_chunk(
                        chunk, "timeout", "no result within "
                        f"{budget:.1f}s (dead or hung worker)",
                        blocks, mode, on_error, attempts, requeue,
                        results, payloads)
                    continue
                except Exception as exc:
                    # The pool itself failed (broken pipe, worker
                    # crashed while unpickling, ...).
                    respawn = True
                    self._absorb_lost_chunk(
                        chunk, "worker_crash",
                        f"{type(exc).__name__}: {exc}",
                        blocks, mode, on_error, attempts, requeue,
                        results, payloads)
                    continue
                for index, ok, payload in entries:
                    attempts[index] += 1
                    if ok:
                        results[index] = payload
                    else:
                        self._absorb_task_failure(
                            index, "exception", str(payload), blocks,
                            mode, on_error, attempts, requeue, results,
                            payloads)
            if respawn:
                self._respawn_pool()
            pending = requeue
            first_round = False
        return results  # type: ignore[return-value]

    def _absorb_lost_chunk(self, chunk, kind, detail, blocks, mode,
                           on_error, attempts, requeue, results,
                           payloads) -> None:
        """Every task of a lost chunk: count the attempt, then requeue
        or finalize."""
        for index in chunk:
            attempts[index] += 1
            self._absorb_task_failure(
                index, kind, detail, blocks, mode, on_error, attempts,
                requeue, results, payloads)

    def _absorb_task_failure(self, index, kind, detail, blocks, mode,
                             on_error, attempts, requeue, results,
                             payloads) -> None:
        """One task failed once (attempt already counted): requeue it
        (fault cleared) while retries remain, else finalize its slot."""
        if attempts[index] <= self.max_task_retries:
            payloads[index][4] = None  # injected faults fire once
            self.tasks_retried += 1
            _TASKS_RETRIED.inc()
            requeue.append(index)
            return
        if kind != "timeout":
            # Crashes and exceptions get one final in-process attempt:
            # a transient worker death must not surface as a failure
            # when the block itself is fine — this is what keeps
            # recovered batches byte-identical to serial runs.  (A
            # *timed-out* task is excluded: re-running code that just
            # hung a worker could hang the parent.)
            try:
                results[index] = self.predictor.predict(blocks[index], mode)
                return
            except Exception as exc:
                kind = "exception"
                detail = f"{type(exc).__name__}: {exc}"
                if on_error == "raise":
                    raise
        self.tasks_failed += 1
        error = PredictorError(kind=kind, detail=detail,
                               attempts=attempts[index], index=index)
        if on_error == "raise":
            raise EngineTaskError(error)
        results[index] = error

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
                 chunksize: int = 4,
                 task_timeout: Optional[float] = None) -> List[float]:
    """Oracle-simulator measurements of a batch, over a worker pool.

    The measurement side of suite evaluation is by far its slowest part
    (cycle-level simulation); this fans it out the same way as
    :meth:`Engine.predict_many` — compact ``(index, raw bytes)``
    payloads, per-worker databases, deterministic merge by index.

    The process-wide measurement cache of :mod:`repro.sim.measure` is
    consulted first and refilled with the workers' results, so repeated
    suite evaluations stay free regardless of which path measured them.

    Fault tolerance: the pool path is best-effort.  If the pool dies,
    hangs past *task_timeout* (default: forever; 10 s under an active
    fault plan), or raises, every measurement it failed to deliver is
    computed serially in-process — serial and parallel measurements are
    identical by construction, so recovery never changes results.
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
            iterator = pool.imap_unordered(_measure_task, tasks,
                                           chunksize=max(1, chunksize))
            for _ in range(len(tasks)):
                try:
                    index, cycles = (iterator.next(task_timeout)
                                     if task_timeout is not None
                                     else next(iterator))
                except StopIteration:  # pragma: no cover - defensive
                    break
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
