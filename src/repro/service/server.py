"""``facile serve``: the long-lived HTTP prediction service.

:class:`PredictionService` is an ``asyncio`` front-end over per-µarch
worker-process shards.  The event loop owns only cheap work — HTTP
parsing, turning each block into bytes, response-fragment cache
lookups keyed on those bytes, byte assembly — and never decodes a
block.  Only fragment misses cross into the µarch's
:class:`~repro.service.shard.ShardEngine` worker process, as ``(raw
bytes, counterfactuals)`` payloads through the
:class:`~repro.engine.batching.MicroBatcher`: a miss goes out as soon
as the shard is free, and misses that queue while it is busy go out
together, in one pass over that process's
:class:`~repro.engine.columnar.ColumnarCore`, which decodes, predicts
and serializes them.

The routes:

==========================  ==============================================
``GET  /v1/health``         liveness + loaded µarchs
``GET  /v1/stats``          request counters, cache/batcher/shard stats
``GET  /v1/metrics``        Prometheus text exposition of the registry
``POST /v1/predict``        one block → full interpretable prediction
``POST /v1/predict/bulk``   many blocks → predictions, order-preserving
``POST /v1/compare``        one block → Facile vs. the baseline analogs
==========================  ==============================================

Every JSON response, error or not, is one envelope — ``{"error": ...,
"meta": {...}, "result": ...}`` — with one structured error schema
(:data:`repro.service.serialize.ERROR_CODES`).

Responses are canonical JSON (:func:`repro.service.serialize.json_bytes`)
— equal payloads are equal bytes, so neither micro-batching nor the
response-fragment cache can ever change what a client observes.

Endpoint reference with schemas: ``docs/SERVICE.md``.
"""

from __future__ import annotations

import asyncio
import math
import socket
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from collections import OrderedDict
from http import HTTPStatus

from repro.core.components import ThroughputMode
from repro.engine.batching import DEFAULT_MAX_BATCH, MicroBatcher
from repro.obs import log as obslog
from repro.obs import metrics
from repro.obs.trace import TRACE_HEADER, new_trace_id
from repro.robustness.breaker import CircuitBreaker, OPEN
from repro.robustness.errors import CircuitOpenError, DeadlineExceeded, \
    QueueFullError
from repro.robustness.faults import active_plan, maybe_inject
from repro.service import serialize
from repro.service.serialize import API_VERSION, RequestError, json_bytes
from repro.service.shard import LocalShard, Payload, PredictionFailed, \
    Result, ShardEngine, UndecodableBlock
from repro.uarch import ALL_UARCHS, uarch_by_name

#: Baselines offered by ``POST /v1/compare`` when the request does not
#: name predictors explicitly.  The learned analogs (Ithemal, DiffTune,
#: learning-bl) are opt-in: their first use trains a model, which would
#: turn an unsuspecting comparison request into a multi-second call.
DEFAULT_COMPARE_PREDICTORS = (
    "Facile", "uiCA", "llvm-mca-15", "CQA", "IACA 3.0", "OSACA",
)

#: Hard cap on blocks per bulk request (larger requests get a 413).
DEFAULT_MAX_BULK = 4096

#: Hard cap on request body size in bytes (larger requests get a 413).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Default bound on each µarch's admission queue (queued, undispatched
#: blocks).  Beyond it the service sheds load with 429 + ``Retry-After``
#: instead of queueing without bound.
DEFAULT_MAX_QUEUE = 4096

#: Default circuit-breaker tuning for the ``/v1/compare`` baselines:
#: skip a predictor after this many consecutive failures, probe it
#: again after the cooldown.
DEFAULT_BREAKER_FAILURES = 3
DEFAULT_BREAKER_COOLDOWN = 30.0

#: Default capacity of the per-µarch response-fragment cache (entries;
#: ``0`` disables it).  A fragment is one block's serialized prediction
#: payload, so steady-state traffic over a warm working set is answered
#: on the event loop without a shard round trip.
DEFAULT_RESPONSE_CACHE = 65536

#: Upper bound on header lines per request, repeated names included
#: (cheap DoS hygiene).
MAX_HEADER_COUNT = 100

#: The served route tables.  ``scripts/check_docs.py`` checks every
#: entry against ``docs/SERVICE.md`` in both directions.
ROUTES: Dict[str, Tuple[str, ...]] = {
    "GET": ("/v1/health", "/v1/metrics", "/v1/stats"),
    "POST": ("/v1/compare", "/v1/predict", "/v1/predict/bulk"),
}

#: Content type of the ``/v1/metrics`` exposition body.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# Request-level metrics (docs/OBSERVABILITY.md).  Module-level so the
# hot path is a dict lookup + locked add, no registry traversal.
_REQUESTS = metrics.catalogued("facile_requests_total")
_REQUEST_ERRORS = metrics.catalogued("facile_request_errors_total")
_REQUEST_DURATION = metrics.catalogued("facile_request_duration_ms")
_SLOW_REQUESTS = metrics.catalogued("facile_slow_requests_total")

#: Route → core handler method name (every route but ``/v1/metrics``).
_CORE_HANDLERS = {
    "/v1/health": "_core_health",
    "/v1/stats": "_core_stats",
    "/v1/predict": "_core_predict",
    "/v1/predict/bulk": "_core_bulk",
    "/v1/compare": "_core_compare",
}

#: Status code -> reason phrase (``http.client.responses`` without
#: importing the HTTP client).
_REASONS = {status.value: status.phrase for status in HTTPStatus}


def bulk_result_bytes(uarch: str, mode_value: str,
                      fragments: Sequence[bytes]) -> bytes:
    """The bulk payload assembled from pre-serialized fragments.

    Under sorted-key canonical JSON the bulk payload's keys order as
    ``mode`` < ``n_blocks`` < ``predictions`` < ``uarch``, so splicing
    the fragment list between two serialized stubs produces exactly the
    bytes of serializing the whole dict (asserted byte-for-byte in
    ``tests/service/test_v1_api.py``) without re-encoding any cached
    prediction.
    """
    head = json_bytes({"mode": mode_value, "n_blocks": len(fragments)})
    tail = json_bytes({"uarch": uarch})
    return (head[:-1] + b',"predictions":[' + b",".join(fragments)
            + b"]," + tail[1:])


class _ResponseCache:
    """LRU of serialized per-block prediction payloads.

    Keyed by ``(mode, block bytes, counterfactuals)`` — the full
    identity of one prediction payload within a µarch runtime, known
    without decoding the block.  Thread safe (the warm-up path stores
    from outside the event loop).
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, bytes]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> Optional[bytes]:
        with self._lock:
            blob = self._entries.get(key)
            if blob is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return blob

    def put(self, key: tuple, blob: bytes) -> None:
        if self.max_entries <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            while len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = blob

    def stats(self) -> Dict[str, object]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "max_entries": self.max_entries,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
            }


class _UarchRuntime:
    """Everything the service holds per loaded µarch."""

    def __init__(self, abbrev: str, *, max_batch: int,
                 max_queue: Optional[int],
                 breaker_failures: int, breaker_cooldown: float,
                 use_shard: bool, response_cache_entries: int):
        self.cfg = uarch_by_name(abbrev)
        self.shard = ShardEngine(abbrev) if use_shard else None
        self.backend = (self.shard if self.shard is not None
                        else LocalShard(abbrev))
        self.batcher = MicroBatcher(self.backend, max_batch=max_batch,
                                    max_queue=max_queue,
                                    obs_label=abbrev)
        self.response_cache = _ResponseCache(response_cache_entries)
        # The comparison predictors run on the front-end side (they are
        # in-process analogs, not engine work); they get a private
        # database (hence a private analysis cache) plus a lock, so
        # they can never race each other.
        self.compare_lock = threading.Lock()
        self._predictors: Dict[str, object] = {}
        # One circuit breaker per baseline predictor: a broken tool is
        # skipped (a typed entry in the response) instead of failing
        # every /compare that names it.
        self.breaker_failures = breaker_failures
        self.breaker_cooldown = breaker_cooldown
        self.breakers: Dict[str, CircuitBreaker] = {}

    def predictor(self, name: str):
        """The (memoized, guarded) baseline predictor *name*.

        Wrapped in :class:`~repro.baselines.GuardedPredictor`: transient
        failures are retried inside the request, persistent ones open
        the runtime's per-predictor breaker.
        """
        from repro.baselines import GuardedPredictor, all_predictors, \
            predictor_names
        if name not in self._predictors:
            if name not in predictor_names():
                raise RequestError(
                    f"unknown predictor {name!r} "
                    f"(available: {', '.join(predictor_names())})",
                    status=404)
            predictor, = all_predictors(self.cfg, names=[name])
            predictor.prepare()
            self._predictors[name] = GuardedPredictor(
                predictor, breaker=self.breaker(name))
        return self._predictors[name]

    def breaker(self, name: str) -> CircuitBreaker:
        """The circuit breaker guarding predictor *name*."""
        if name not in self.breakers:
            self.breakers[name] = CircuitBreaker(
                name, failure_threshold=self.breaker_failures,
                cooldown=self.breaker_cooldown)
        return self.breakers[name]

    def open_breakers(self) -> List[str]:
        """Names of predictors whose breaker is currently open."""
        return sorted(name for name, breaker in self.breakers.items()
                      if breaker.state == OPEN)

    def telemetry(self) -> Dict[str, object]:
        """This µarch's ``/v1/stats`` entry (may block on a shard query)."""
        entry: Dict[str, object] = {
            "cache": self.backend.stats(),
            "batcher": self.batcher.stats(),
            "response_cache": self.response_cache.stats(),
            "breakers": {name: breaker.stats()
                         for name, breaker
                         in sorted(self.breakers.items())},
        }
        if self.shard is not None:
            entry["shard"] = {
                "respawns": self.shard.respawns,
                "alive": self.shard.alive,
                "fallback_used": self.shard.fallback_used,
            }
        return entry

    def close(self) -> None:
        self.batcher.close()
        if self.shard is not None:
            self.shard.close()


class PredictionService:
    """The embeddable prediction server behind ``facile serve``.

    Args:
        uarch: default µarch for requests that do not name one.
        host / port: bind address; port 0 picks an ephemeral port
            (read it back from :attr:`port` — this is how the tests and
            the bench load generator run hermetically).  The socket is
            bound at construction, so address errors fail fast.
        max_batch: the most requests one dispatch window carries (see
            :class:`~repro.engine.batching.MicroBatcher`).
        max_bulk: maximum blocks accepted in one bulk request.
        max_queue: bound on each µarch's admission queue; beyond it the
            service sheds with ``429`` + ``Retry-After``.  ``None``
            disables shedding (unbounded queue).
        breaker_failures / breaker_cooldown: circuit-breaker tuning for
            the ``/v1/compare`` baselines (consecutive failures to open;
            seconds until a half-open probe).
        shard: run each µarch in its own worker process (the default).
            ``False`` predicts in-process on the µarch's dispatcher
            thread (:class:`~repro.service.shard.LocalShard`), useful
            for debugging or fork-hostile environments.
        response_cache_blocks: per-µarch response-fragment cache
            capacity (``0`` disables it).

    Usable as a context manager::

        with PredictionService(uarch="SKL", port=0) as service:
            client = ServiceClient(port=service.port)
            client.predict("4801d8")
    """

    def __init__(self, uarch: str = "SKL", *, host: str = "127.0.0.1",
                 port: int = 0,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_bulk: int = DEFAULT_MAX_BULK,
                 max_queue: Optional[int] = DEFAULT_MAX_QUEUE,
                 breaker_failures: int = DEFAULT_BREAKER_FAILURES,
                 breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
                 shard: bool = True,
                 response_cache_blocks: int = DEFAULT_RESPONSE_CACHE):
        # Fail fast at construction: these would otherwise surface as a
        # 500 on the first request (runtimes are built lazily).
        uarch_by_name(uarch)
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_bulk < 1:
            raise ValueError("max_bulk must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 or None")
        if breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be >= 0")
        if response_cache_blocks < 0:
            raise ValueError("response_cache_blocks must be >= 0")
        self.default_uarch = uarch
        self.max_batch = max_batch
        self.max_bulk = max_bulk
        self.max_queue = max_queue
        self.breaker_failures = breaker_failures
        self.breaker_cooldown = breaker_cooldown
        self.use_shard = shard
        self.response_cache_blocks = response_cache_blocks
        self.known_uarchs: List[str] = [cfg.abbrev for cfg in ALL_UARCHS]
        self._runtimes: Dict[str, _UarchRuntime] = {}
        self._runtimes_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._requests_by_endpoint: Dict[str, int] = {}
        self._errors = 0
        self._started_at = time.monotonic()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._loop_done = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._log = obslog.get_logger("serve")
        # Pull-stats collector: component counters the hot paths keep
        # for themselves (response cache, batcher, shard proxies) enter
        # the registry only when a scrape asks (docs/OBSERVABILITY.md).
        metrics.REGISTRY.register_collector(self._collect_metrics)
        # Bind eagerly: `.port` is known before start() and bad
        # addresses raise OSError here, not inside a server thread.
        self._sock = socket.create_server((host, port), backlog=128)

    # -- lifecycle -----------------------------------------------------

    @property
    def host(self) -> str:
        return self._sock.getsockname()[0]

    @property
    def port(self) -> int:
        """The bound port (resolved even when constructed with port 0)."""
        return self._sock.getsockname()[1]

    def start(self) -> "PredictionService":
        """Serve in a background thread (returns once the loop is up)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run_loop, name="facile-serve", daemon=True)
            self._thread.start()
            self._ready.wait()
            if self._startup_error is not None:
                raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``facile serve`` loop)."""
        self._run_loop()
        if self._startup_error is not None:
            raise self._startup_error

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            server = loop.run_until_complete(asyncio.start_server(
                self._handle_client, sock=self._sock))
        except Exception as exc:  # pragma: no cover - defensive
            self._startup_error = exc
            self._ready.set()
            loop.close()
            self._loop_done.set()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
            try:
                loop.run_until_complete(loop.shutdown_default_executor())
            except (RuntimeError, AttributeError):  # pragma: no cover
                pass
            loop.close()
            self._loop = None
            self._loop_done.set()

    def close(self) -> None:
        """Stop serving and shut down batchers, shards, and the socket."""
        metrics.REGISTRY.unregister_collector(self._collect_metrics)
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:
                pass
            self._loop_done.wait(timeout=10.0)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self._sock.close()
        except OSError:
            pass
        with self._runtimes_lock:
            runtimes = list(self._runtimes.values())
            self._runtimes.clear()
        for runtime in runtimes:
            runtime.close()

    def __enter__(self) -> "PredictionService":
        return self.start()

    def __exit__(self, exc_type, exc_value, trace) -> None:
        self.close()

    # -- runtimes ------------------------------------------------------

    def runtime(self, uarch: str) -> _UarchRuntime:
        """The shard+batcher pair for *uarch*, created on first use."""
        with self._runtimes_lock:
            runtime = self._runtimes.get(uarch)
            if runtime is None:
                runtime = _UarchRuntime(
                    uarch, max_batch=self.max_batch,
                    max_queue=self.max_queue,
                    breaker_failures=self.breaker_failures,
                    breaker_cooldown=self.breaker_cooldown,
                    use_shard=self.use_shard,
                    response_cache_entries=self.response_cache_blocks)
                self._runtimes[uarch] = runtime
            return runtime

    def warm(self, hexes: Sequence[str], *, uarch: Optional[str] = None,
             modes: Sequence[str] = ("loop", "unrolled")) -> int:
        """Pre-answer *hexes*, filling the shard core and the
        response-fragment cache.

        Runs the corpus through the batcher (no HTTP involved, so this
        works before :meth:`start`), in slices the admission queue
        takes whole.  Returns the number of (block, mode) pairs warmed.
        A block that is not hex, does not decode, or cannot be
        predicted raises ``ValueError`` — a warm corpus is operator
        input, not client traffic.
        """
        uarch = uarch or self.default_uarch
        raws = list(dict.fromkeys(
            raw for raw in map(bytes.fromhex, hexes) if raw))
        if not raws:
            return 0
        runtime = self.runtime(uarch)
        step = self.max_queue or len(raws)
        for mode_value in modes:
            mode = ThroughputMode(mode_value)
            for start in range(0, len(raws), step):
                chunk = raws[start:start + step]
                results = runtime.batcher.predict_many(
                    [(raw, False) for raw in chunk], mode)
                for raw, result in zip(chunk, results):
                    if not isinstance(result, bytes):
                        raise ValueError(f"block {raw.hex()}: {result}")
                    runtime.response_cache.put((mode.value, raw, False),
                                               result)
        return len(raws) * len(modes)

    # -- bookkeeping ---------------------------------------------------

    def _count(self, endpoint: str, error: bool = False) -> None:
        with self._stats_lock:
            self._requests_by_endpoint[endpoint] = \
                self._requests_by_endpoint.get(endpoint, 0) + 1
            if error:
                self._errors += 1
        _REQUESTS.inc(endpoint=endpoint)
        if error:
            _REQUEST_ERRORS.inc(endpoint=endpoint)

    def _observe_request(self, route: str, started: float,
                         trace: str) -> None:
        """Record one routed request's wall time (and the slow log)."""
        duration_ms = (time.perf_counter() - started) * 1000.0
        _REQUEST_DURATION.observe(duration_ms, route=route)
        if duration_ms >= obslog.slow_threshold_ms():
            _SLOW_REQUESTS.inc(route=route)
            self._log.warning("slow_request", route=route,
                              ms=round(duration_ms, 3), trace=trace)

    def _collect_metrics(self) -> List[metrics.Family]:
        """Scrape-time families for per-runtime component counters."""
        catalog = metrics.METRIC_CATALOG
        families = [metrics.Family(
            "facile_service_uptime_seconds", metrics.GAUGE,
            catalog["facile_service_uptime_seconds"][1],
            [({}, round(time.monotonic() - self._started_at, 3))])]
        with self._runtimes_lock:
            runtimes = dict(self._runtimes)
        per_uarch: Dict[str, List[Tuple[Dict[str, str], float]]] = {
            "facile_response_cache_hits_total": [],
            "facile_response_cache_misses_total": [],
            "facile_analysis_cache_hits_total": [],
            "facile_analysis_cache_misses_total": [],
            "facile_batcher_requests_total": [],
            "facile_batcher_batches_total": [],
            "facile_batcher_shed_total": [],
            "facile_batcher_deadline_drops_total": [],
            "facile_shard_respawns_total": [],
            "facile_shard_fallback_total": [],
        }
        for abbrev, runtime in sorted(runtimes.items()):
            labels = {"uarch": abbrev}
            response = runtime.response_cache
            per_uarch["facile_response_cache_hits_total"].append(
                (labels, response.hits))
            per_uarch["facile_response_cache_misses_total"].append(
                (labels, response.misses))
            batcher = runtime.batcher
            per_uarch["facile_batcher_requests_total"].append(
                (labels, batcher.requests))
            per_uarch["facile_batcher_batches_total"].append(
                (labels, batcher.batches))
            per_uarch["facile_batcher_shed_total"].append(
                (labels, batcher.shed))
            per_uarch["facile_batcher_deadline_drops_total"].append(
                (labels, batcher.deadline_drops))
            if runtime.shard is not None:
                per_uarch["facile_shard_respawns_total"].append(
                    (labels, runtime.shard.respawns))
                per_uarch["facile_shard_fallback_total"].append(
                    (labels, runtime.shard.fallback_used))
            cache = runtime.backend.stats()
            if cache:
                per_uarch["facile_analysis_cache_hits_total"].append(
                    (labels, cache["sig_hits"]))
                per_uarch["facile_analysis_cache_misses_total"].append(
                    (labels, cache["misses"]))
        for name, samples in per_uarch.items():
            if samples:
                families.append(metrics.Family(
                    name, metrics.COUNTER, catalog[name][1], samples))
        return families

    def metrics_exposition(self) -> str:
        """The ``/v1/metrics`` body: registry + catalog exposition.

        May block briefly on a shard stats round trip, so the endpoint
        runs it in the executor, never on the event loop.
        """
        return metrics.exposition()

    # -- endpoint payloads ---------------------------------------------

    def health_payload(self) -> Dict:
        with self._runtimes_lock:
            runtimes = dict(self._runtimes)
        # "degraded" (still HTTP 200 — the service *is* live) means a
        # baseline breaker is open or an admission queue is saturated:
        # a monitor should look, clients should expect skips / 429s.
        reasons: List[str] = []
        open_breakers: Dict[str, List[str]] = {}
        shed_total = 0
        for abbrev, runtime in sorted(runtimes.items()):
            opened = runtime.open_breakers()
            if opened:
                open_breakers[abbrev] = opened
                reasons.append(
                    f"{abbrev}: open breakers: {', '.join(opened)}")
            shed_total += runtime.batcher.shed
            if runtime.batcher.saturated:
                reasons.append(f"{abbrev}: admission queue saturated")
        return {
            "status": "degraded" if reasons else "ok",
            "service": "facile",
            "api_versions": [API_VERSION],
            "core": "columnar",
            "default_uarch": self.default_uarch,
            "uarchs_available": self.known_uarchs,
            "uarchs_loaded": sorted(runtimes),
            "uptime_sec": round(time.monotonic() - self._started_at, 3),
            "open_breakers": open_breakers,
            "shed_total": shed_total,
            "degraded_reasons": reasons,
        }

    def stats_payload(self) -> Dict:
        with self._runtimes_lock:
            runtimes = dict(self._runtimes)
        with self._stats_lock:
            by_endpoint = dict(self._requests_by_endpoint)
            errors = self._errors
        uarchs = {abbrev: runtime.telemetry()
                  for abbrev, runtime in runtimes.items()}
        # Aggregated incident counters, surfaced at the top level so a
        # monitor never has to dig through nested shard payloads.
        counters = {"shard_respawns": 0, "shard_fallback": 0,
                    "breaker_opens": 0}
        for entry in uarchs.values():
            shard_info = entry.get("shard")
            if shard_info is not None:
                counters["shard_respawns"] += shard_info["respawns"]
                counters["shard_fallback"] += shard_info["fallback_used"]
            for breaker_stats in entry["breakers"].values():
                counters["breaker_opens"] += \
                    breaker_stats.get("times_opened", 0)
        return {
            "uptime_sec": round(time.monotonic() - self._started_at, 3),
            "requests": {
                "total": sum(by_endpoint.values()),
                "by_endpoint": by_endpoint,
                "errors": errors,
            },
            "counters": counters,
            "uarchs": uarchs,
        }

    @staticmethod
    def _parse_deadline(body: Dict):
        """``(deadline, wait)`` from the request's ``timeout_ms``.

        *deadline* is the ``time.monotonic`` timestamp the batcher
        sheds queued work at; *wait* bounds how long the handler
        awaits the future (the deadline budget plus one second of
        dispatch slack, so in-flight engine work gets a beat to finish
        before the handler gives up).  Both ``None`` without a budget.
        """
        timeout_ms = serialize.parse_timeout_ms(body)
        if timeout_ms is None:
            return None, None
        budget = timeout_ms / 1000.0
        return time.monotonic() + budget, budget + 1.0

    @staticmethod
    def _shed_to_http(exc: Exception) -> RequestError:
        """Map batcher overload signals onto their HTTP vocabulary."""
        if isinstance(exc, QueueFullError):
            error = RequestError(
                str(exc), status=429,
                headers={"Retry-After":
                         str(int(math.ceil(exc.retry_after)))})
            error.retry_after_ms = exc.retry_after * 1000.0
            return error
        return RequestError(
            "deadline exceeded before the prediction completed "
            "(raise 'timeout_ms' or retry when the server is "
            "less loaded)", status=504)

    async def _predict_misses(self, runtime: _UarchRuntime,
                              payloads: List[Payload],
                              mode: ThroughputMode,
                              deadline: Optional[float],
                              wait: Optional[float],
                              trace: Optional[str]) -> List[Result]:
        """The shard's results for *payloads*; sheds as 429/504."""
        try:
            futures = runtime.batcher.submit_many(
                payloads, mode, deadline=deadline, trace=trace)
            wrapped = [asyncio.wrap_future(future) for future in futures]
            for task in wrapped:
                task.add_done_callback(_consume_exception)
            return await asyncio.wait_for(asyncio.gather(*wrapped),
                                          timeout=wait)
        except (QueueFullError, DeadlineExceeded,
                asyncio.TimeoutError) as exc:
            raise self._shed_to_http(exc)

    async def _core_predict(self, body: Dict, trace: Optional[str] = None):
        uarch = serialize.parse_uarch(body, self.default_uarch,
                                      self.known_uarchs)
        mode = serialize.parse_mode(body)
        raw = serialize.parse_block_bytes(body)
        counterfactuals = serialize.parse_counterfactuals(body)
        deadline, wait = self._parse_deadline(body)
        runtime = self.runtime(uarch)
        key = (mode.value, raw, counterfactuals)
        meta = {"uarch": uarch, "mode": mode.value}
        # An already-expired deadline skips the fragment cache so the
        # batcher can drop-and-count it (the documented 504 contract).
        if deadline is None or deadline > time.monotonic():
            blob = runtime.response_cache.get(key)
            if blob is not None:
                meta["cache"] = "hit"
                return blob, meta
        results = await self._predict_misses(
            runtime, [(raw, counterfactuals)], mode, deadline, wait, trace)
        blob, = _fragments(results, ["request"])
        runtime.response_cache.put(key, blob)
        meta["cache"] = "miss"
        return blob, meta

    async def _core_bulk(self, body: Dict, trace: Optional[str] = None):
        uarch = serialize.parse_uarch(body, self.default_uarch,
                                      self.known_uarchs)
        mode = serialize.parse_mode(body)
        raws = serialize.parse_blocks(body, max_blocks=self.max_bulk)
        counterfactuals = serialize.parse_counterfactuals(body)
        deadline, wait = self._parse_deadline(body)
        runtime = self.runtime(uarch)
        fragments: List[Optional[bytes]] = [None] * len(raws)
        if deadline is None or deadline > time.monotonic():
            for index, raw in enumerate(raws):
                fragments[index] = runtime.response_cache.get(
                    (mode.value, raw, counterfactuals))
        missing = [index for index, fragment in enumerate(fragments)
                   if fragment is None]
        if missing:
            results = await self._predict_misses(
                runtime, [(raws[index], counterfactuals)
                          for index in missing],
                mode, deadline, wait, trace)
            blobs = _fragments(results, [f"blocks[{index}]"
                                         for index in missing])
            for index, blob in zip(missing, blobs):
                runtime.response_cache.put(
                    (mode.value, raws[index], counterfactuals), blob)
                fragments[index] = blob
        result = bulk_result_bytes(uarch, mode.value, fragments)
        return result, {"uarch": uarch, "mode": mode.value,
                        "cache": {"hits": len(raws) - len(missing),
                                  "misses": len(missing)}}

    async def _core_compare(self, body: Dict, trace: Optional[str] = None):
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(None, self.compare_payload,
                                             body)
        return json_bytes(payload), {"uarch": payload["uarch"],
                                     "mode": payload["mode"]}

    async def _core_health(self, body: Optional[Dict],
                           trace: Optional[str] = None):
        return json_bytes(self.health_payload()), {}

    async def _core_stats(self, body: Optional[Dict],
                          trace: Optional[str] = None):
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(None, self.stats_payload)
        return json_bytes(payload), {}

    def compare_payload(self, body: Dict) -> Dict:
        uarch = serialize.parse_uarch(body, self.default_uarch,
                                      self.known_uarchs)
        mode = serialize.parse_mode(body)
        block = serialize.parse_block(body)
        names = body.get("predictors", list(DEFAULT_COMPARE_PREDICTORS))
        if (not isinstance(names, list)
                or not all(isinstance(n, str) for n in names)
                or not names):
            raise RequestError(
                "'predictors' must be a non-empty array of names")
        runtime = self.runtime(uarch)
        predictions: Dict[str, float] = {}
        skipped: Dict[str, Dict] = {}
        with runtime.compare_lock:
            for name in names:
                predictor = runtime.predictor(name)
                try:
                    value = round(float(predictor.predict(block, mode)),
                                  2)
                except CircuitOpenError as exc:
                    # Typed skip: the tool kept failing, its breaker is
                    # open, and the response says so instead of a 500.
                    skipped[name] = {
                        "reason": "circuit_open",
                        "retry_after_sec": round(exc.retry_after, 3),
                    }
                    continue
                except RequestError:
                    raise
                except Exception as exc:
                    # Past its retries: the tool sits this request out.
                    skipped[name] = {
                        "reason": "error",
                        "detail": f"{type(exc).__name__}: {exc}",
                    }
                    continue
                predictions[name] = value
        return {
            "block": {"hex": block.raw.hex(),
                      "instructions": len(block),
                      "bytes": block.num_bytes},
            "uarch": uarch,
            "mode": mode.value,
            "predictions": predictions,
            "skipped": skipped,
        }

    # -- the HTTP front-end --------------------------------------------

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, body: bytes, *,
                              headers: Optional[Dict[str, str]] = None,
                              content_type: str = "application/json",
                              close: bool = False) -> None:
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
            "Server: facile-serve/2",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        lines.append("Connection: close" if close
                     else "Connection: keep-alive")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while await self._serve_one(reader, writer):
                pass
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass
        except Exception:  # pragma: no cover - defensive
            traceback.print_exc(file=sys.stderr)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - peer already gone
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> bool:
        """Read, route, and answer one request; whether to keep alive.

        Error responses always carry ``Connection: close`` — the
        request body may not have been drained, so the connection is
        not safe to reuse.
        """
        # One trace id per request: echoed in the envelope's meta, error
        # or not, and in the X-Trace-Id header.
        trace_id = new_trace_id()

        async def bail(status: int, message: str,
                       headers: Optional[Dict[str, str]] = None,
                       retry_after_ms: Optional[float] = None) -> bool:
            merged = {TRACE_HEADER: trace_id}
            if headers:
                merged.update(headers)
            await self._write_response(
                writer, status,
                serialize.error_envelope_bytes(
                    status, message, retry_after_ms=retry_after_ms,
                    trace=trace_id),
                headers=merged, close=True)
            return False

        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            return await bail(400, "request line too long")
        if not line or not line.strip():
            return False  # clean EOF between requests
        try:
            method, target, _version = \
                line.decode("latin-1").strip().split(None, 2)
        except ValueError:
            return await bail(400, "malformed request line")
        path = target.split("?", 1)[0].rstrip("/") or "/"

        headers: Dict[str, str] = {}
        count = 0
        while True:
            try:
                header_line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                return await bail(400, "header line too long")
            if header_line in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > MAX_HEADER_COUNT:
                return await bail(400, "too many headers")
            name, sep, value = \
                header_line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()

        # Route before reading the body: unknown endpoints answer
        # without draining client bytes (hence the forced close).
        if method not in ("GET", "POST"):
            self._count("unknown", error=True)
            return await bail(405, f"method {method} not supported "
                                   "(use GET/POST endpoints as "
                                   "documented in docs/SERVICE.md)")
        table = ROUTES[method]
        other = ROUTES["POST" if method == "GET" else "GET"]
        if path not in table:
            if path in other:
                self._count(path, error=True)
                wanted = "POST" if method == "GET" else "GET"
                return await bail(
                    405, f"method not allowed for {path} (use {wanted} "
                         "as documented in docs/SERVICE.md)")
            self._count("unknown", error=True)
            return await bail(404, f"unknown endpoint {path!r}")

        if "transfer-encoding" in headers:
            self._count(path, error=True)
            return await bail(400,
                              "chunked transfer encoding not supported")
        try:
            length = int(headers.get("content-length") or 0)
            if length < 0:
                raise ValueError
        except ValueError:
            self._count(path, error=True)
            return await bail(400, "invalid Content-Length header")
        if length > MAX_BODY_BYTES:
            self._count(path, error=True)
            return await bail(
                413,
                f"request body too large (> {MAX_BODY_BYTES} bytes)")
        raw_body = (await reader.readexactly(length) if length else b"")

        keep = headers.get("connection", "").lower() != "close"
        if path == "/v1/metrics":
            # Text exposition, not a JSON envelope: the one route that
            # bypasses the core-handler machinery.  The scrape may
            # query shard processes, so it runs in the executor.
            started = time.perf_counter()
            text = await asyncio.get_running_loop().run_in_executor(
                None, self.metrics_exposition)
            self._count(path)
            self._observe_request(path, started, trace_id)
            await self._write_response(
                writer, 200, text.encode("utf-8"),
                headers={TRACE_HEADER: trace_id},
                content_type=METRICS_CONTENT_TYPE, close=not keep)
            return keep

        started = time.perf_counter()
        try:
            # Service-level fault site: a ``slow@service./v1/predict``
            # clause delays the request here, before any work happens
            # (an ``injected`` kind surfaces as a clean 500 below).
            # Faults sleep, so they run off the event loop.
            if active_plan() is not None:
                await asyncio.get_running_loop().run_in_executor(
                    None, maybe_inject, "service." + path)
            body = (serialize.parse_json_body(raw_body)
                    if method == "POST" else None)
            core = getattr(self, _CORE_HANDLERS[path])
            result_bytes, meta_info = await core(body, trace_id)
        except RequestError as exc:
            self._count(path, error=True)
            self._observe_request(path, started, trace_id)
            return await bail(
                exc.status, str(exc), headers=exc.headers or None,
                retry_after_ms=getattr(exc, "retry_after_ms", None))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Detail stays server-side: exception text can carry paths
            # and internals that an untrusted client has no business
            # seeing.
            traceback.print_exc(file=sys.stderr)
            self._log.error("internal_error", route=path, trace=trace_id,
                            error=f"{type(exc).__name__}: {exc}")
            self._count(path, error=True)
            self._observe_request(path, started, trace_id)
            return await bail(500, "internal error")
        self._count(path)
        self._observe_request(path, started, trace_id)
        meta = serialize.meta_dict(
            uarch=meta_info.get("uarch"), mode=meta_info.get("mode"),
            cache=meta_info.get("cache"),
            timing_ms=round((time.perf_counter() - started) * 1000.0, 3),
            trace=trace_id)
        await self._write_response(
            writer, 200, serialize.envelope_bytes(result_bytes, meta),
            headers={TRACE_HEADER: trace_id}, close=not keep)
        return keep


def _fragments(results: Sequence[Result],
               fields: Sequence[str]) -> List[bytes]:
    """The serialized fragments of a request's shard *results*.

    A request with failed blocks answers for the first failure in the
    documented error order: the lowest-index undecodable block (400,
    ``undecodable <field>: <decoder message>``), then a prediction
    failure (raised as is; the handler turns it into the opaque 500).
    """
    for field, result in zip(fields, results):
        if isinstance(result, UndecodableBlock):
            raise RequestError(f"undecodable {field}: {result}")
    for result in results:
        if isinstance(result, PredictionFailed):
            raise result
    return list(results)  # type: ignore[arg-type]


def _consume_exception(task: "asyncio.Future") -> None:
    """Mark a gathered future's exception as retrieved (log hygiene)."""
    if not task.cancelled():
        task.exception()
