"""Per-µarch worker-process shards behind the async service front-end.

The asyncio front-end (:mod:`repro.service.server`) never decodes or
predicts on its event loop.  It turns each block into bytes, answers
what it can from its response-fragment cache, and sends only the
misses to the µarch's :class:`ShardEngine`: a proxy whose dedicated
**worker process** owns one :class:`~repro.engine.columnar.ColumnarCore`.
A miss crosses the process boundary as a :data:`Payload` — ``(raw
block bytes, counterfactuals)`` — and comes back as one
:data:`Result` per payload (:func:`predict_fragments`):

* the serialized fragment, the exact ``json_bytes(prediction_to_dict(
  ...))`` bytes the object model's prediction serializes to, built in
  the worker from the raw bytes and the compiled entry's instruction
  count;
* an :class:`UndecodableBlock` carrying the text
  ``BasicBlock.from_bytes`` raises for those bytes (the front end
  answers it with the per-index ``undecodable`` 400);
* a :class:`PredictionFailed` for a block that decodes but cannot be
  predicted on the µarch (the front end answers that request's opaque
  500, and only that request's).

Decoding happens once, in the worker, and only for forms the core has
not seen: on a warm form trie the core walks the bytes straight to a
compiled entry.  The same function serves every backend — the worker,
the in-process fallback, and ``facile serve --no-shard``
(:class:`LocalShard`) — so all three answer the same bytes.

Fault tolerance: a dead or hung worker fails the in-flight request
with :class:`ShardCrash`, the proxy respawns the process and retries
once with faults cleared, and if the respawn also fails it falls back
to a lazily-built in-process :class:`LocalShard` — same bytes, reduced
isolation.  The deterministic fault harness reaches the shard via the
:data:`SHARD_SITE` site (``REPRO_FAULTS`` clauses matching
``service.shard``); drawn faults are shipped to the worker and acted
out there (``worker_kill`` exits the worker, ``slow`` sleeps).
"""

from __future__ import annotations

import itertools
import queue
import threading
from concurrent.futures import Future, TimeoutError as FutureTimeout
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.components import ThroughputMode
from repro.engine.columnar import ColumnarCore
from repro.isa.block import BasicBlock
from repro.obs import log
from repro.obs.trace import Span
from repro.robustness.faults import DEFAULT_FAULTED_TIMEOUT, \
    _pool_context, act_in_worker, active_plan
from repro.service.serialize import json_bytes, prediction_payload
from repro.uarch import uarch_by_name

#: The shard's fault-injection site (``REPRO_FAULTS`` pattern target).
SHARD_SITE = "service.shard"

#: How long the proxy waits for a graceful worker shutdown before
#: escalating to ``terminate()``.
SHUTDOWN_GRACE = 2.0


class ShardCrash(RuntimeError):
    """The shard worker died (or hung) before answering a request."""


class UndecodableBlock(Exception):
    """A block's bytes do not decode; the message is the text
    ``BasicBlock.from_bytes`` raises for them."""


class PredictionFailed(Exception):
    """A block decodes but cannot be predicted on the shard's µarch."""


#: One miss sent to a shard: (raw block bytes, counterfactuals).
Payload = Tuple[bytes, bool]
#: A shard's answer to one payload: a serialized fragment or a failure.
Result = Union[bytes, UndecodableBlock, PredictionFailed]


def predict_fragments(core: ColumnarCore, payloads: Sequence[Payload],
                      mode: ThroughputMode) -> List[Result]:
    """Predict and serialize each payload on *core*; never raises.

    A block whose prediction fails is decoded once more to tell the two
    failures apart: bytes that ``BasicBlock.from_bytes`` rejects are
    :class:`UndecodableBlock` with its message, anything else is
    :class:`PredictionFailed`.  Only failures pay that decode.
    """
    uarch = core.cfg.abbrev
    results: List[Result] = []
    for raw, counterfactuals in payloads:
        try:
            prediction, n_instructions = core.predict_raw_counted(raw,
                                                                  mode)
            results.append(json_bytes(prediction_payload(
                prediction, raw, n_instructions, uarch,
                counterfactuals=counterfactuals)))
        except Exception as exc:  # noqa: BLE001 - classified per block
            # The core keeps this exception for the block's next lookup;
            # drop its traceback so it does not pin this window's frames.
            exc.__traceback__ = None
            try:
                BasicBlock.from_bytes(raw)
            except Exception as decode_error:  # noqa: BLE001
                results.append(UndecodableBlock(str(decode_error)))
            else:
                results.append(PredictionFailed(
                    f"{type(exc).__name__}: {exc}"))
    return results


class LocalShard:
    """The shard's work in the calling process: one µarch's
    :class:`ColumnarCore` behind :func:`predict_fragments`.

    What the worker process runs, and also the ``--no-shard`` backend
    and :class:`ShardEngine`'s fallback.
    """

    def __init__(self, uarch: str):
        self.core = ColumnarCore(uarch_by_name(uarch))
        self._logger = log.get_logger("shard")

    def predict_many(self, payloads: Sequence[Payload],
                     mode: ThroughputMode,
                     traces: Optional[Sequence[Optional[str]]] = None
                     ) -> List[Result]:
        """:func:`predict_fragments`; at debug level, first logs one
        ``predict_batch`` line with the requests' trace ids, so a
        client-visible ``meta.trace`` can be joined with the process
        that computed it."""
        if traces is not None and log.level_enabled("debug"):
            self._logger.debug(
                "predict_batch", uarch=self.core.cfg.abbrev,
                mode=mode.value, n_blocks=len(payloads),
                traces=sorted({t for t in traces if t}))
        return predict_fragments(self.core, payloads, mode)

    def stats(self) -> Dict[str, int]:
        """The core's lookup counters and table sizes."""
        return self.core.stats()


def _shard_main(abbrev: str, request_queue, result_queue) -> None:
    """Worker-process entry point: serve requests until shutdown.

    Messages in: ``("predict", id, mode, payloads, faults, traces)``,
    ``("stats", id)``, ``("shutdown",)``.  Messages out:
    ``(id, ok, answer)``: a predict answer is the list of per-payload
    :data:`Result` values; a request that failed as a whole (an
    injected fault) carries ``"ExcType: message"`` text instead (full
    tracebacks stay in the worker; the front-end answers an opaque
    500).
    """
    # Re-read REPRO_LOG: on fork the child inherits module state parsed
    # before the parent's environment may have changed.
    log.refresh_level()
    shard = LocalShard(abbrev)
    while True:
        message = request_queue.get()
        if message[0] == "shutdown":
            break
        if message[0] == "stats":
            result_queue.put((message[1], True, shard.stats()))
            continue
        _, request_id, mode_value, payloads, faults, traces = message
        try:
            for fault in faults:
                if fault is not None:
                    act_in_worker(fault, SHARD_SITE)
            results = shard.predict_many(payloads,
                                         ThroughputMode(mode_value),
                                         traces)
            result_queue.put((request_id, True, results))
        except Exception as exc:  # noqa: BLE001 - shipped as text
            result_queue.put((request_id, False,
                              f"{type(exc).__name__}: {exc}"))


class _WorkerHandle:
    """One worker-process generation: process, queues, pending futures.

    Bundling per-generation state keeps a late reader thread of a dead
    generation from ever touching the futures of its successor.
    """

    def __init__(self, context, abbrev: str):
        self.request_queue = context.Queue()
        self.result_queue = context.Queue()
        self.pending: Dict[int, Future] = {}
        self.lock = threading.Lock()
        self.process = context.Process(
            target=_shard_main,
            args=(abbrev, self.request_queue, self.result_queue),
            name=f"facile-shard-{abbrev}", daemon=True)
        self.process.start()
        self.reader = threading.Thread(
            target=self._read_loop, name=f"facile-shard-{abbrev}-reader",
            daemon=True)
        self.reader.start()

    def register(self, request_id: int) -> Future:
        future: Future = Future()
        with self.lock:
            self.pending[request_id] = future
        return future

    def forget(self, request_id: int) -> None:
        with self.lock:
            self.pending.pop(request_id, None)

    def _resolve(self, request_id: int, ok: bool, payload) -> None:
        with self.lock:
            future = self.pending.pop(request_id, None)
        if future is None:
            return
        if ok:
            future.set_result(payload)
        else:
            future.set_exception(RuntimeError(payload))

    def _read_loop(self) -> None:
        while True:
            try:
                request_id, ok, payload = self.result_queue.get(
                    timeout=0.1)
            except queue.Empty:
                if not self.process.is_alive():
                    self._drain_then_fail()
                    return
                with self.lock:
                    idle = not self.pending
                if idle and getattr(self, "finished", False):
                    return
                continue
            except (EOFError, OSError):
                self._drain_then_fail()
                return
            self._resolve(request_id, ok, payload)

    def _drain_then_fail(self) -> None:
        # The worker died: deliver whatever it managed to flush, then
        # fail every still-pending future so callers can recover.
        while True:
            try:
                request_id, ok, payload = self.result_queue.get_nowait()
            except (queue.Empty, EOFError, OSError):
                break
            self._resolve(request_id, ok, payload)
        with self.lock:
            pending = list(self.pending.values())
            self.pending.clear()
        crash = ShardCrash("shard worker process died")
        for future in pending:
            if not future.done():
                future.set_exception(crash)

    def stop(self) -> None:
        self.finished = True
        try:
            self.request_queue.put(("shutdown",))
        except (ValueError, OSError):
            pass
        self.process.join(timeout=SHUTDOWN_GRACE)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=SHUTDOWN_GRACE)


class ShardEngine:
    """Proxy for one µarch's worker-process shard.

    Exposes the one method the :class:`~repro.engine.batching.
    MicroBatcher` dispatcher needs — :meth:`predict_many` — plus
    :meth:`stats` (a control-message round trip) and :meth:`close`.
    ``predict_many`` is intended to be called from one dispatcher
    thread; ``stats`` may be called concurrently from others.
    """

    def __init__(self, uarch: str):
        self.uarch = uarch
        self.respawns = 0
        self.fallback_used = 0
        self._request_ids = itertools.count()
        self._context = _pool_context()
        self._closed = False
        self._fallback: Optional[LocalShard] = None
        self._worker = _WorkerHandle(self._context, uarch)

    # -- prediction ----------------------------------------------------

    def predict_many(self, payloads: Sequence[Payload],
                     mode: ThroughputMode,
                     traces: Optional[Sequence[Optional[str]]] = None
                     ) -> List[Result]:
        """:func:`predict_fragments` in the worker, one result per payload.

        A crashed/hung worker triggers one respawn-and-retry (faults
        cleared, so recovery converges); if the fresh worker fails too,
        the request is served by an in-process fallback
        :class:`LocalShard`.

        *traces* (optional, one per payload) are per-request trace ids
        shipped in the IPC message so the worker can log them; they
        never affect the answers.
        """
        if self._closed:
            raise RuntimeError("ShardEngine is closed")
        plan = active_plan()
        faults: List[Optional[Tuple[str, float]]] = []
        for _ in payloads:
            fault = plan.check(SHARD_SITE) if plan is not None else None
            faults.append(fault.encode() if fault is not None else None)
        try:
            return self._roundtrip(payloads, mode, faults, traces)
        except ShardCrash:
            self._respawn()
            try:
                return self._roundtrip(payloads, mode,
                                       [None] * len(payloads), traces)
            except ShardCrash:
                self.fallback_used += len(payloads)
                if self._fallback is None:
                    self._fallback = LocalShard(self.uarch)
                return self._fallback.predict_many(payloads, mode, traces)

    def _roundtrip(self, payloads: Sequence[Payload],
                   mode: ThroughputMode,
                   faults: List[Optional[Tuple[str, float]]],
                   traces: Optional[Sequence[Optional[str]]] = None
                   ) -> List[Result]:
        worker = self._worker
        request_id = next(self._request_ids)
        future = worker.register(request_id)
        try:
            worker.request_queue.put(
                ("predict", request_id, mode.value, list(payloads),
                 faults,
                 list(traces) if traces is not None
                 else [None] * len(payloads)))
        except (ValueError, OSError) as exc:
            worker.forget(request_id)
            raise ShardCrash(f"shard request queue unusable: {exc}")
        try:
            with Span("shard.roundtrip"):
                return future.result(
                    timeout=self._timeout_for(len(payloads)))
        except FutureTimeout:
            worker.forget(request_id)
            raise ShardCrash("shard worker did not answer in time")
        # RuntimeError from the worker (a request that failed as a
        # whole, not a crash) propagates to the batcher unchanged.

    def _timeout_for(self, n_blocks: int) -> Optional[float]:
        """Bounded waits only under an active fault plan.

        Without injected faults a slow answer is just a big batch on a
        busy box — the reader thread catches real deaths, so the wait
        is unbounded.  With a plan active, a ``timeout`` fault can hang
        the worker; scale the faulted budget by batch size.
        """
        if active_plan() is None:
            return None
        return DEFAULT_FAULTED_TIMEOUT * max(1.0, n_blocks / 16.0)

    def _respawn(self) -> None:
        if self._closed:
            raise ShardCrash("ShardEngine closed during recovery")
        self.respawns += 1
        old = self._worker
        old.finished = True
        if old.process.is_alive():
            old.process.terminate()
            old.process.join(timeout=SHUTDOWN_GRACE)
        self._worker = _WorkerHandle(self._context, self.uarch)

    # -- reporting -----------------------------------------------------

    @property
    def alive(self) -> bool:
        return (not self._closed) and self._worker.process.is_alive()

    def stats(self, timeout: float = 5.0) -> Dict[str, int]:
        """The worker core's counters (``{}`` if unreachable)."""
        if self._closed:
            return {}
        worker = self._worker
        request_id = next(self._request_ids)
        future = worker.register(request_id)
        try:
            worker.request_queue.put(("stats", request_id))
            payload = future.result(timeout=timeout)
        except Exception:  # noqa: BLE001 - stats are best-effort
            worker.forget(request_id)
            return {}
        return payload

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "ShardEngine":
        return self

    def __exit__(self, exc_type, exc_value, trace) -> None:
        self.close()

    def close(self) -> None:
        """Stop the worker process (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._worker.stop()
        self._fallback = None
