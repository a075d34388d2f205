"""The ``service_mixed`` workload: ``facile serve`` under mixed traffic.

The server runs as a subprocess with its production defaults (SKL,
sharded); its port comes from the ``serving`` log event.  One client
process drives it in a closed loop over two connections:

* connection 1 sends ``/v1/predict/bulk`` requests of 64 blocks,
  alternating the mode.  60 blocks repeat from a hot set the server has
  already answered (response-fragment reads); 4 are never-seen blocks,
  misses that go batcher -> shard -> cache insert.  A hit-path gain
  that costs the miss path shows in the same number;
* connection 2 probes ``/v1/health`` back to back, which shows how long
  bulk work stalls the event loop.

Every response fragment is checked byte-for-byte against the object
model's serialized prediction, after the timed window.

The traffic's shape is an assumption, not a measurement: the repository
holds no record of real service traffic.  Its own callers send bulk
requests of 2 to 8 blocks (tests, examples), or a whole benchmark suite
split among clients (``facile bench``).  The request size is the
server's default micro-batching window
(``engine.batching.DEFAULT_MAX_BATCH``, 64 when this was written), so a
request of only never-seen blocks would fill one dispatch window.  The
hot-set size
(256 blocks) and the never-seen share (1 in 16) are chosen, not derived.
They are fixed here, not read from the program, so the load stays the
same from one version of the program to the next; revisit them once
measured traffic is in the repository.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
from typing import Dict, List, Optional, Tuple

from common import (OUT_DIR, ROOT, SRC, Clock, Groups, median, now,
                    percentile, slope, tail_stats, timed_setups)
from inputs import HOT_SEED, SAMPLE_SEED, benchmark_pairs

from repro.core.components import ThroughputMode
from repro.core.model import Facile
from repro.isa.block import BasicBlock
from repro.service.serialize import json_bytes, prediction_to_dict
from repro.uarch import uarch_by_name

UARCH = "SKL"  # the server's default µarch
#: Blocks per bulk request: the server's default ``max_batch`` (an
#: assumption about real traffic, see the module docstring).
BULK_BLOCKS = 64
#: One block in this many of a bulk request is never-seen (assumed).
FRESH_EVERY = 16
#: Hot-set size in benchmarks, two blocks each (assumed).
HOT_BENCHMARKS = 128
#: Bulk requests per timed group (see ``common.Groups``).
RATE_GROUP = 8
#: Bulk requests answered when the server's peak RSS is read.
PEAK_AT = 64
#: Generated blocks the never-seen blocks are spliced from.
FRESH_SOURCES = 128
TAIL_PCT = 90.0
HEALTH_TAIL_PCT = 99.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
MODES = (ThroughputMode.LOOP, ThroughputMode.UNROLLED)


class Server:
    """One ``facile serve --port 0`` subprocess."""

    def __init__(self, spans_path: Optional[str] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["REPRO_LOG"] = "info"
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli"]
        else:
            cmd = [sys.executable,
                   os.path.join(ROOT, "perfbench", "traced_serve.py"),
                   spans_path]
        cmd += ["serve", "--port", "0"]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True)
        self._drain: Optional[threading.Thread] = None
        self.port = self._read_port()
        self._drain = threading.Thread(target=self._drain_stderr,
                                       daemon=True)
        self._drain.start()

    def _read_port(self) -> int:
        deadline = now() + START_TIMEOUT_S
        for line in self.proc.stderr:
            try:
                record = json.loads(line)
            except ValueError:
                record = {}
            if record.get("event") == "serving":
                return int(record["port"])
            if now() > deadline:
                break
        self.stop()
        raise RuntimeError("server exited before its serving event")

    def _drain_stderr(self) -> None:
        for _ in self.proc.stderr:
            pass

    def wait_healthy(self) -> None:
        deadline = now() + START_TIMEOUT_S
        while now() < deadline:
            try:
                status, _ = request(self.port, "GET", "/v1/health")
                if status == 200:
                    return
            except OSError:
                pass
        raise RuntimeError("server never answered /v1/health")

    def pids(self) -> List[int]:
        """The server and every process it started."""
        found, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            found.append(pid)
            try:
                with open(f"/proc/{pid}/task/{pid}/children") as handle:
                    todo.extend(int(p) for p in handle.read().split())
            except OSError:
                pass
        return found

    def memory_kb(self, field: str) -> int:
        """Sum of a /proc status field (VmRSS, VmHWM) over :meth:`pids`."""
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith(field + ":"):
                            total += int(line.split()[1])
            except OSError:
                pass
        return total

    def stop(self) -> None:
        """Interrupt the server (it shuts its shard down) and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass
        self.proc.wait()
        if self._drain is not None:
            self._drain.join(STOP_TIMEOUT_S)
        self.proc.stderr.close()


def request(port: int, method: str, path: str, body: bytes = None,
            conn: Optional[http.client.HTTPConnection] = None
            ) -> Tuple[int, bytes]:
    own = conn is None
    if own:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        if own:
            conn.close()


def _bulk_body(raws: List[bytes], mode: ThroughputMode) -> bytes:
    return json.dumps({"blocks": [{"hex": raw.hex()} for raw in raws],
                       "mode": mode.value}).encode()


def _counters(port: int) -> Dict[str, object]:
    """Fragment-cache and batcher counters from ``/v1/stats`` (0 where
    the server no longer reports one) and the ``shard.roundtrip`` span
    buckets from ``/v1/metrics``."""
    _, body = request(port, "GET", "/v1/stats")
    result = json.loads(body).get("result") or {}
    entry = (result.get("uarchs") or {}).get(UARCH) or {}
    fragments = entry.get("response_cache") or {}
    batcher = entry.get("batcher") or {}
    return {"fragment_hits": fragments.get("hits", 0),
            "fragment_misses": fragments.get("misses", 0),
            "batched": batcher.get("requests", 0),
            "batches": batcher.get("batches", 0),
            "roundtrip": _span_buckets(port, "shard.roundtrip")}


_BUCKET = re.compile(
    r'^facile_span_duration_ms_bucket\{le="([^"]+)",span="([^"]+)"\} (\S+)$')


def _span_buckets(port: int, span: str) -> List[Tuple[float, float]]:
    """Cumulative (upper bound, count) buckets of one program span."""
    _, body = request(port, "GET", "/v1/metrics")
    buckets = []
    for line in body.decode().splitlines():
        match = _BUCKET.match(line)
        if match and match.group(2) == span:
            buckets.append((float(match.group(1)), float(match.group(3))))
    return buckets


def _bucket_p50(before, after) -> float:
    """Median of a histogram's window delta, interpolated in its bucket."""
    start = dict(before)
    delta = [(bound, count - start.get(bound, 0.0))
             for bound, count in after]
    total = delta[-1][1] if delta else 0.0
    if total <= 0:
        return 0.0
    lower, below = 0.0, 0.0
    for bound, cumulative in delta:
        if cumulative >= total / 2:
            if bound == float("inf"):
                return lower
            share = (total / 2 - below) / max(cumulative - below, 1e-12)
            return lower + share * (bound - lower)
        lower, below = bound, cumulative
    return lower


class Traffic:
    """The seeded request stream of one run.

    Never-seen blocks splice the first half of one seeded block onto
    the second half of another: ``FRESH_SOURCES`` generated blocks give
    ``FRESH_SOURCES**2`` distinct new blocks at almost no cost, so the
    stream does not run dry however fast the server gets.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed + SAMPLE_SEED)
        self.hot: List[bytes] = []
        pairs = benchmark_pairs(seed + HOT_SEED)
        while len(self.hot) < 2 * HOT_BENCHMARKS:
            for block in next(pairs):
                if block.raw not in self.hot:
                    self.hot.append(block.raw)
        pairs = benchmark_pairs(seed)
        self.sources = [list(next(pairs)[0]) for _ in range(FRESH_SOURCES)]
        self.splices = [(i, j) for i in range(FRESH_SOURCES)
                        for j in range(FRESH_SOURCES) if i != j]
        self.rng.shuffle(self.splices)
        self.seen = set(self.hot)
        self.requests = 0

    def _fresh(self) -> Optional[bytes]:
        while self.splices:
            i, j = self.splices.pop()
            head, tail = self.sources[i], self.sources[j]
            raw = BasicBlock(head[:len(head) // 2]
                             + tail[len(tail) // 2:]).raw
            if raw not in self.seen:
                self.seen.add(raw)
                return raw
        return None

    def next_request(self) -> Optional[Tuple[ThroughputMode, List[bytes]]]:
        n_fresh = BULK_BLOCKS // FRESH_EVERY
        raws = [self.rng.choice(self.hot)
                for _ in range(BULK_BLOCKS - n_fresh)]
        for _ in range(n_fresh):
            raw = self._fresh()
            if raw is None:
                return None
            raws.insert(self.rng.randrange(len(raws) + 1), raw)
        self.requests += 1
        return MODES[self.requests % 2], raws


def _prewarm(port: int, traffic: Traffic) -> None:
    for mode in MODES:
        for start in range(0, len(traffic.hot), BULK_BLOCKS):
            status, _ = request(port, "POST", "/v1/predict/bulk",
                                _bulk_body(traffic.hot[start:start
                                                       + BULK_BLOCKS],
                                           mode))
            if status != 200:
                raise RuntimeError(f"prewarm request failed: {status}")


class Window:
    """Closed-loop bulk traffic plus back-to-back health probes."""

    def __init__(self, server: Server, traffic: Traffic, seconds: float):
        self.server = server
        self.traffic = traffic
        self.seconds = seconds
        self.requests: List[Tuple[ThroughputMode, List[bytes], int,
                                  bytes]] = []
        self.groups = Groups(BULK_BLOCKS, filtered=False)
        self.health: List[float] = []
        self.health_failures = 0
        self.rss: List[Tuple[int, int]] = []
        self.blocks = 0
        self.peak_mb = 0.0
        self.ran_out = False

    def _health_loop(self, stop: threading.Event) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port,
                                          timeout=60)
        try:
            while not stop.is_set():
                start = now()
                try:
                    status, _ = request(self.server.port, "GET",
                                        "/v1/health", conn=conn)
                except (OSError, http.client.HTTPException):
                    status = 0
                    conn.close()
                self.health.append(now() - start)
                self.health_failures += status != 200
        finally:
            conn.close()

    def run(self) -> "Window":
        stop = threading.Event()
        prober = threading.Thread(target=self._health_loop, args=(stop,))
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port,
                                          timeout=60)
        clock = Clock(self.seconds)
        self.rss.append((0, self.server.memory_kb("VmRSS")))
        group: List[float] = []
        prober.start()
        try:
            while not clock.done:
                planned = self.traffic.next_request()
                if planned is None:
                    self.ran_out = True
                    break
                mode, raws = planned
                body = _bulk_body(raws, mode)
                start = now()
                try:
                    status, data = request(self.server.port, "POST",
                                           "/v1/predict/bulk", body, conn)
                except (OSError, http.client.HTTPException):
                    status, data = 0, b""
                    conn.close()
                latency = now() - start
                clock.add(latency)
                group.append(latency)
                self.requests.append((mode, raws, status, data))
                self.blocks += len(raws)
                if len(group) == RATE_GROUP:
                    self.groups.add(group)
                    group = []
                    self.rss.append((self.blocks,
                                     self.server.memory_kb("VmRSS")))
                if not self.peak_mb and len(self.requests) >= PEAK_AT:
                    self.peak_mb = self.server.memory_kb("VmHWM") / 1024.0
        finally:
            stop.set()
            prober.join()
            conn.close()
        if group:
            self.groups.add(group)
        if not self.peak_mb:
            self.peak_mb = self.server.memory_kb("VmHWM") / 1024.0
        return self

    @property
    def blocks_per_s(self) -> float:
        return self.groups.blocks_per_s


def _mismatches(requests) -> int:
    """Responses whose bytes differ from the object model's."""
    model = Facile(uarch_by_name(UARCH))
    fragments: Dict[Tuple[bytes, ThroughputMode], Dict] = {}
    bad = 0
    for mode, raws, status, data in requests:
        if status != 200:
            bad += 1
            continue
        predictions = []
        for raw in raws:
            key = (raw, mode)
            if key not in fragments:
                block = BasicBlock.from_bytes(raw)
                fragments[key] = prediction_to_dict(
                    model.predict(block, mode), block, UARCH)
            predictions.append(fragments[key])
        expected = json_bytes({"mode": mode.value, "n_blocks": len(raws),
                               "predictions": predictions, "uarch": UARCH})
        bad += not data.endswith(b',"result":' + expected + b"}")
    return bad


def _spans_layer(path: str, blocks: int) -> Dict[str, float]:
    with open(path) as handle:
        dump = json.load(handle)
    totals = dump["totals"]
    per_block = 1e6 / max(1, blocks)

    def own(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) * per_block

    return {"isa.decode_us": own("isa.decode"),
            "service.parse_us": own("service.parse"),
            "service.serialize_us": own("service.serialize"),
            "service.queue_wait_ms_p50":
                median(dump["queue_wait_s"]) * 1e3}


def run_service(seed: int, seconds: float, trace: bool) -> dict:
    traffic = Traffic(seed)

    servers: List[Server] = []

    def setup() -> Server:
        servers.append(Server())
        servers[-1].wait_healthy()
        return servers[-1]

    budget = seconds / 2 if trace else seconds
    try:
        setup_s, server = timed_setups(setup, teardown=Server.stop)
        _prewarm(server.port, traffic)
        # Per-layer counters are read only in traced runs, so an
        # untraced run needs nothing of the server beyond its API.
        before = _counters(server.port) if trace else {}
        window = Window(server, traffic, budget).run()
        after = _counters(server.port) if trace else {}
    finally:
        for each in servers:
            each.stop()
    layer: Dict[str, float] = {}
    notes: List[str] = []
    requests = list(window.requests)
    if trace:
        spans_path = os.path.join(OUT_DIR, f"spans-service-{seed}.json")
        traced_server = Server(spans_path)
        try:
            traced_server.wait_healthy()
            _prewarm(traced_server.port, traffic)
            traced_server.proc.send_signal(signal.SIGUSR1)
            traced = Window(traced_server, traffic, budget).run()
        finally:
            traced_server.stop()
        requests += traced.requests
        layer.update(_spans_layer(spans_path, traced.blocks))
        layer["obs.trace_overhead_frac"] = (
            1.0 - traced.blocks_per_s / window.blocks_per_s)
        delta = {key: after[key] - before[key]
                 for key in ("fragment_hits", "fragment_misses", "batched",
                             "batches")}
        layer.update({
            "service.fragment_hit_ratio": delta["fragment_hits"] / max(
                1, delta["fragment_hits"] + delta["fragment_misses"]),
            "service.batch_size_mean":
                delta["batched"] / max(1, delta["batches"]),
            "service.shard_roundtrip_ms_p50": _bucket_p50(
                before["roundtrip"], after["roundtrip"]),
            "service.health_ms_p50": median(window.health) * 1e3,
            "service.health_ms_p99":
                percentile(window.health, HEALTH_TAIL_PCT) * 1e3,
            "mem.rss_slope_kb_per_kblock": 1000.0 * slope(
                [n for n, _ in window.rss], [kb for _, kb in window.rss]),
        })
        notes.append(f"fragments: {delta['fragment_hits']} hits, "
                     f"{delta['fragment_misses']} misses")
    failed = _mismatches(requests) + window.health_failures
    lat = tail_stats(window.groups.quiet_latencies(), TAIL_PCT, 1e3)
    health = tail_stats(window.health, HEALTH_TAIL_PCT, 1e3)
    notes.append(f"request tail p{TAIL_PCT:g}: {lat['n']} samples, "
                 f"{lat['beyond']} beyond")
    notes.append(f"health tail p{HEALTH_TAIL_PCT:g}: {health['n']} "
                 f"samples, {health['beyond']} beyond")
    correct = failed == 0 and not window.ran_out
    if window.ran_out:
        notes.append("never-seen block pool ran out before the window ended")
    return {
        "e2e": {"blocks_per_s": window.blocks_per_s,
                "latency_ms_p50": lat["p50"],
                "latency_ms_tail": lat["tail"],
                "setup_s": setup_s,
                "peak_rss_mb": window.peak_mb},
        "layer": layer,
        "attempted": len(requests) + len(window.health),
        "failed": failed,
        "correct": correct,
        "notes": notes,
    }
