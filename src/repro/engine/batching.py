"""Backlog micro-batching onto a backend's ``predict_many``.

The prediction service accepts requests from many concurrent clients,
but prediction's fast path is a *batch* call: one thread walking a list
of blocks through one core's caches.  :class:`MicroBatcher` bridges the
two worlds:

* client threads :meth:`submit` single ``(payload, mode)`` requests and
  receive a :class:`concurrent.futures.Future`;
* one dispatcher thread takes whatever is queued, up to ``max_batch``
  requests, the moment it is free — a request that finds it idle is
  dispatched at once, and requests that arrive while a window is in the
  backend go out together in the next one — groups the window by mode,
  and resolves each group with one ``backend.predict_many`` call, one
  result per payload.

The batcher never looks inside a payload: its backends, the service's
shards, take ``(raw bytes, counterfactuals)`` pairs and answer
serialized fragments (:mod:`repro.service.shard`).  Because the
dispatcher is the only thread that touches the backend, its
(unsynchronized) caches are never accessed concurrently, and the
results handed back are exactly what a serial ``predict_many`` over
the same payloads would return — batching changes latency and
throughput, never results.

Overload behavior (see ``docs/ROBUSTNESS.md``):

* the queue is **bounded** when ``max_queue`` is set: a submit that
  would exceed it raises :class:`QueueFullError` immediately (the
  service turns this into ``429`` + ``Retry-After``) instead of letting
  latency grow without bound;
* requests may carry a **deadline** (a ``time.monotonic`` timestamp).
  A request whose deadline passed while it queued is dropped at
  dispatch time — its future fails with :class:`DeadlineExceeded`
  (HTTP 504) and, crucially, no engine time is spent on work nobody is
  waiting for anymore.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.components import ThroughputMode
from repro.obs import metrics
from repro.obs.trace import Span
from repro.robustness.errors import DeadlineExceeded, QueueFullError

#: Default bound on requests per dispatch window.
DEFAULT_MAX_BATCH = 64

#: One queued request: payload, mode, future, optional deadline, and the
#: trace id of the originating request (``None`` outside the service).
_Entry = Tuple[object, ThroughputMode, Future, Optional[float],
               Optional[str]]

_WINDOW_SIZE = metrics.catalogued("facile_batch_window_size",
                                  buckets=metrics.SIZE_BUCKETS)


class MicroBatcher:
    """Merge concurrent single-block requests into backend batch calls.

    Args:
        engine: any object with a ``predict_many(payloads, mode,
            traces=...)`` method returning one result per payload (a
            service shard: :class:`~repro.service.shard.ShardEngine` or
            :class:`~repro.service.shard.LocalShard`).
        max_batch: maximum requests per dispatch window (>= 1).
        max_queue: bound on queued (not yet dispatched) requests;
            ``None`` keeps the queue unbounded (the pre-robustness
            behavior).  Submits beyond the bound shed load by raising
            :class:`QueueFullError`.
        obs_label: when set (the service passes its µarch abbrev),
            dispatched window sizes are observed into the
            ``facile_batch_window_size`` histogram and each engine call
            is timed as a ``batcher.dispatch`` span.  ``None`` (the
            default) keeps the batcher entirely unobserved — library
            and test use adds no metrics work.

    Use as a context manager or call :meth:`close`; submitting to a
    closed batcher raises :class:`RuntimeError`, while requests already
    queued at close time are still dispatched (graceful drain) so no
    client is left hanging.
    """

    def __init__(self, engine, *, max_batch: int = DEFAULT_MAX_BATCH,
                 max_queue: Optional[int] = None,
                 obs_label: Optional[str] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 or None")
        self.engine = engine
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.obs_label = obs_label
        self._lock = threading.Lock()
        self._pending_cond = threading.Condition(self._lock)
        self._pending: List[_Entry] = []
        self._closed = False
        # Lifetime statistics (surfaced at the service's /stats).
        self.requests = 0
        self.batches = 0
        self.batched_requests = 0
        self.max_batch_seen = 0
        self.shed = 0
        self.deadline_drops = 0
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-microbatcher",
            daemon=True)
        self._dispatcher.start()

    # -- client side ---------------------------------------------------

    def submit(self, payload: object, mode: ThroughputMode,
               deadline: Optional[float] = None,
               trace: Optional[str] = None) -> Future:
        """Enqueue one request; resolves to the backend's result for
        *payload*.

        Args:
            deadline: optional ``time.monotonic`` timestamp; if it
                passes before the request is dispatched, the future
                fails with :class:`DeadlineExceeded` instead of
                occupying the engine.
            trace: optional trace id of the originating request, carried
                to the backend.
        """
        futures = self._submit_all([(payload, mode, deadline, trace)])
        return futures[0]

    def submit_many(self, payloads: Sequence[object],
                    mode: ThroughputMode,
                    deadline: Optional[float] = None,
                    trace: Optional[str] = None) -> List[Future]:
        """Enqueue many requests atomically; one future per payload.

        Admission is all-or-nothing against ``max_queue`` (the whole
        group is shed with :class:`QueueFullError` rather than
        half-enqueued).  This is the non-blocking sibling of
        :meth:`predict_many`, used by the async service front-end to
        await batched predictions without tying up a thread per bulk.
        """
        return self._submit_all([(payload, mode, deadline, trace)
                                 for payload in payloads])

    def _submit_all(self, requests: Sequence[Tuple[object,
                                                   ThroughputMode,
                                                   Optional[float],
                                                   Optional[str]]]
                    ) -> List[Future]:
        """Admit *requests* atomically: either the queue takes them
        all, or none and :class:`QueueFullError` — a bulk request is
        never half-enqueued when the service sheds it with a 429."""
        with self._pending_cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            if (self.max_queue is not None
                    and len(self._pending) + len(requests)
                    > self.max_queue):
                self.shed += len(requests)
                raise QueueFullError(
                    f"admission queue full ({len(self._pending)} queued, "
                    f"bound {self.max_queue}); retry later")
            futures: List[Future] = []
            for payload, mode, deadline, trace in requests:
                future: Future = Future()
                self._pending.append((payload, mode, future, deadline,
                                      trace))
                futures.append(future)
            self.requests += len(requests)
            self._pending_cond.notify()
            return futures

    def predict_many(self, payloads: Sequence[object],
                     mode: ThroughputMode,
                     timeout: Optional[float] = None,
                     deadline: Optional[float] = None) -> List[object]:
        """Submit a bulk request and wait for all of its results.

        Each payload rides the shared batching queue individually, so
        bulk requests from different clients merge into common windows;
        admission is all-or-nothing against ``max_queue``.  Results
        preserve input order.
        """
        futures = self._submit_all(
            [(payload, mode, deadline, None) for payload in payloads])
        return [future.result(timeout=timeout) for future in futures]

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, exc_type, exc_value, trace) -> None:
        self.close()

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting requests, drain the queue, stop dispatching.

        Requests enqueued before the close are still dispatched; new
        :meth:`submit` calls raise immediately.
        """
        with self._pending_cond:
            if self._closed:
                return
            self._closed = True
            self._pending_cond.notify_all()
        self._dispatcher.join(timeout=timeout)

    # -- dispatcher side -----------------------------------------------

    def _take_window(self) -> List[_Entry]:
        """Block until a request is queued, then claim the backlog (up
        to ``max_batch`` requests) as the next window.

        Returns an empty list exactly once, when the batcher closes.
        """
        with self._pending_cond:
            while not self._pending and not self._closed:
                self._pending_cond.wait()
            window = self._pending[:self.max_batch]
            del self._pending[:len(window)]
            return window

    def _dispatch_loop(self) -> None:
        # _take_window keeps handing out windows after close() until
        # the queue is drained (submit() already refuses new entries),
        # so an empty window means: drained and closed — exit.
        while True:
            window = self._take_window()
            if not window:
                break
            self._dispatch(window)

    def _dispatch(self, window: List[_Entry]) -> None:
        """Resolve one window with one engine call per mode group."""
        if not window:  # a window that closed empty: nothing to do
            return
        # Shed requests that expired while queued: nobody is waiting
        # for them anymore, so they must not occupy the engine.
        now = time.monotonic()
        live: List[_Entry] = []
        for entry in window:
            deadline = entry[3]
            if deadline is not None and now >= deadline:
                self.deadline_drops += 1
                future = entry[2]
                if not future.done():
                    future.set_exception(DeadlineExceeded(
                        "deadline passed while queued for dispatch"))
            else:
                live.append(entry)
        if not live:
            return
        self.batches += 1
        self.batched_requests += len(live)
        self.max_batch_seen = max(self.max_batch_seen, len(live))
        if self.obs_label is not None:
            _WINDOW_SIZE.observe(len(live), uarch=self.obs_label)
        groups: Dict[ThroughputMode,
                     List[Tuple[object, Future, Optional[str]]]] = {}
        for payload, mode, future, _, trace in live:
            groups.setdefault(mode, []).append((payload, future, trace))
        for mode, entries in groups.items():
            payloads = [payload for payload, _, _ in entries]
            traces = [trace for _, _, trace in entries]
            try:
                with (Span("batcher.dispatch") if self.obs_label is not None
                      else nullcontext()):
                    results = self.engine.predict_many(
                        payloads, mode, traces=traces)
            except Exception as exc:  # pragma: no cover - engine failure
                for _, future, _ in entries:
                    if not future.done():
                        future.set_exception(exc)
                continue
            for (_, future, _), result in zip(entries, results):
                if not future.done():
                    future.set_result(result)

    # -- introspection -------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently queued (admitted, not yet dispatched)."""
        with self._lock:
            return len(self._pending)

    @property
    def saturated(self) -> bool:
        """Whether the bounded queue is currently at capacity."""
        if self.max_queue is None:
            return False
        return self.queue_depth >= self.max_queue

    @property
    def mean_batch_size(self) -> float:
        """Average requests per dispatched window (0.0 before traffic)."""
        return (self.batched_requests / self.batches
                if self.batches else 0.0)

    def stats(self) -> Dict[str, float]:
        """A JSON-ready snapshot of the batching counters."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "max_batch": self.max_batch,
            "max_batch_seen": self.max_batch_seen,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "max_queue": self.max_queue,
            "shed": self.shed,
            "deadline_drops": self.deadline_drops,
        }
