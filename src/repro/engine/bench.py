"""The performance-regression harness (``BENCH_predict.json``).

The harness measures the throughput of Facile prediction, in blocks per
second, for the engine's paths on a fixed-seed generated suite:

* ``single``   — the engine's default cold-call path: the columnar core
  (:mod:`repro.engine.columnar`), warmed once over the suite, timed
  per-call on a stream of never-seen payload variants (same instruction
  forms, fresh immediate bytes);
* ``single_object`` — the seed-equivalent reference on the same variant
  stream: analysis re-derived on every call, no memoization;
* ``cached``   — the object model's serial batch path in its steady
  state (shared :class:`~repro.engine.cache.AnalysisCache`);
* ``service``  — the HTTP prediction service in its steady state:
  concurrent bulk-predict clients against an in-process
  ``facile serve`` (sharded async front-end + response-fragment cache),
  measured after one warm-up pass.  This is the load generator behind
  the service's throughput number.  The service entry additionally
  records steady-state request latency (``p50_ms`` / ``p99_ms`` over a
  sequence of single-predict round trips).

Reading ``BENCH_predict.json``
------------------------------

The file is written by ``scripts/bench.py`` (and by the pytest harness
under ``benchmarks/perf/``).  Layout (schema 4 added the per-path
``peak_rss_kb`` high-water mark and ``metrics`` counter-delta record;
schema 3 renamed the old object-path ``single`` to ``single_object``,
retargeted ``single`` at the columnar core over the variant stream, and
rebased all speedups on ``single_object``; schema 2 added the service
latency percentiles)::

    {
      "schema": 4,
      "suite": {"size": ..., "seed": ...},
      "service_clients": ...,    # concurrent clients of the service path
      "cpu_count": ...,          # cores of the measuring machine
      "results": {
        "<uarch>": {
          "<mode>": {
            "<path>": {"blocks_per_sec": ..., "seconds": ...,
                       "n_blocks": ...,
                       "peak_rss_kb": ...,   # peak RSS when the path ended
                       "metrics": {...}},    # registry counters it moved
            "service": {..., "p50_ms": ..., "p99_ms": ...}
          }
        }
      },
      "speedups": {
        "<uarch>": {"<mode>": {"single_vs_single_object": ...,
                                "cached_vs_single_object": ...,
                                "service_vs_single_object": ...}}
      }
    }

``peak_rss_kb`` is the *process* high-water mark at the moment a path
finished (``ru_maxrss``), so later paths report equal-or-larger values;
``metrics`` is the flat counter delta (``name{labels}`` -> movement)
the path produced in the observability registry.  Both are bench-record
extras: the regression gate reads ``blocks_per_sec`` only.  Older
schema-4 files also carry a ``workers`` field and ``parallel`` entries
(a since-deleted prediction pool); the gate ignores both.

``single_vs_single_object`` is the headline number: how much faster the
columnar core predicts *never-seen* blocks than the pre-engine per-call
path (the ≥5× acceptance gate of the columnar rewrite).
``cached_vs_single_object`` tracks the steady-state batch regime
(ablation/counterfactual/variant sweeps).

Regression gating compares ``blocks_per_sec`` per (µarch, mode) for the
``single``, ``single_object``, and ``cached`` paths against a committed
baseline and fails on a drop beyond the tolerance (default 20%); the
``service`` number is recorded but not gated (see :data:`GATED_PATHS`).
Only same-machine, same-schema comparisons are meaningful; the
committed baseline tracks the repository's CI machine.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bhive.suite import BenchmarkSuite
from repro.core.components import ThroughputMode
from repro.eval.timing import peak_rss_kb, time_prediction_paths
from repro.obs import log as obslog
from repro.obs import metrics
from repro.uarch import uarch_by_name

#: Default harness parameters (fixed seed: the suite must be identical
#: across runs for the trajectory to be comparable).
DEFAULT_SIZE = 80
DEFAULT_SEED = 2023
DEFAULT_UARCHS = ("SKL",)
DEFAULT_TOLERANCE = 0.20

#: Concurrent bulk-predict clients of the service load generator.
DEFAULT_SERVICE_CLIENTS = 8

#: Paths measured by the harness.
PATHS = ("single", "single_object", "cached", "service")

_PATHS_MEASURED = metrics.catalogued("facile_bench_paths_total")


def run_perf_harness(size: int = DEFAULT_SIZE, seed: int = DEFAULT_SEED,
                     uarchs: Sequence[str] = DEFAULT_UARCHS,
                     modes: Optional[Sequence[ThroughputMode]] = None,
                     include_service: bool = True,
                     service_clients: int = DEFAULT_SERVICE_CLIENTS,
                     ) -> Dict:
    """Measure all paths and return the ``BENCH_predict.json`` payload."""
    modes = (list(modes) if modes is not None
             else [ThroughputMode.UNROLLED, ThroughputMode.LOOP])
    suite = BenchmarkSuite.generate(size, seed)
    logger = obslog.get_logger("bench")

    results: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    speedups: Dict[str, Dict[str, Dict[str, float]]] = {}
    for abbrev in uarchs:
        cfg = uarch_by_name(abbrev)
        results[abbrev] = {}
        speedups[abbrev] = {}
        for mode in modes:
            def path_done(path: str, _abbrev=abbrev,
                          _mode=mode.value) -> None:
                _PATHS_MEASURED.inc(path=path)
                logger.info("bench_progress", uarch=_abbrev, mode=_mode,
                            path=path, paths_measured=int(
                                metrics.counter_value(
                                    "facile_bench_paths_total",
                                    path=path)))

            timings = time_prediction_paths(cfg, suite, mode,
                                            progress=path_done)
            service_latency = None
            if include_service:
                counters = metrics.REGISTRY.counters_flat()
                timings["service"], service_latency = time_service_path(
                    cfg, suite, mode, clients=service_clients)
                timings["service"].metrics = {
                    key: round(value - counters.get(key, 0.0), 6)
                    for key, value in sorted(
                        metrics.REGISTRY.counters_flat().items())
                    if value != counters.get(key, 0.0)}
                timings["service"].peak_rss_kb = peak_rss_kb()
                path_done("service")
            results[abbrev][mode.value] = {
                path: {
                    "blocks_per_sec": round(t.blocks_per_sec, 2),
                    "seconds": round(t.seconds, 6),
                    "n_blocks": t.n_blocks,
                    "peak_rss_kb": t.peak_rss_kb,
                    "metrics": t.metrics,
                }
                for path, t in timings.items()
            }
            if service_latency is not None:
                results[abbrev][mode.value]["service"].update(
                    service_latency)
            # All speedups are rebased on the seed-equivalent reference.
            # Paths time different block counts (the single paths run
            # the variant stream), so the ratio must be blocks/sec, not
            # raw seconds.
            base_bps = timings["single_object"].blocks_per_sec
            mode_speedups = {}
            for path in ("single", "cached", "service"):
                if path in timings and base_bps > 0:
                    mode_speedups[f"{path}_vs_single_object"] = round(
                        timings[path].blocks_per_sec / base_bps, 2)
            speedups[abbrev][mode.value] = mode_speedups

    return {
        "schema": 4,
        "suite": {"size": size, "seed": seed},
        "service_clients": (service_clients if include_service else None),
        "cpu_count": os.cpu_count(),
        "results": results,
        "speedups": speedups,
    }


#: Single-predict round trips of the latency phase (per µarch/mode).
LATENCY_SAMPLES = 150


def _percentile(sorted_values: List[float], q: float) -> float:
    """The *q*-quantile of pre-sorted samples (nearest-rank)."""
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def time_service_path(cfg, suite: BenchmarkSuite, mode: ThroughputMode,
                      *, clients: int = DEFAULT_SERVICE_CLIENTS):
    """Steady-state throughput *and* latency of the HTTP service.

    The load generator starts an in-process
    :class:`~repro.service.server.PredictionService` on an ephemeral
    port and warms its caches with one bulk pass.  Two measurement
    phases follow:

    * **throughput** — the suite is sharded round-robin over *clients*
      concurrent bulk-predict clients and the sharded pass is timed
      end to end (HTTP + JSON + response-fragment cache + shard).
      Comparable to ``cached`` (both measure the steady state); the
      delta is the serving overhead.
    * **latency** — :data:`LATENCY_SAMPLES` sequential single-predict
      round trips over the warmed suite, timed individually; reported
      as ``{"p50_ms", "p99_ms"}`` (nearest-rank percentiles).

    Returns ``(PathTiming, latency_dict)``.
    """
    import threading
    import time

    from repro.eval.timing import PathTiming
    from repro.service.client import ServiceClient
    from repro.service.server import PredictionService

    loop = mode is ThroughputMode.LOOP
    hexes = [bench.block(loop).raw.hex() for bench in suite]
    with PredictionService(uarch=cfg.abbrev, port=0) as service:
        warm = ServiceClient(port=service.port)
        warm.predict_bulk(hexes, mode=mode.value)

        shards = [hexes[i::clients] for i in range(clients)]
        shards = [shard for shard in shards if shard]
        failures: List[BaseException] = []

        def worker(shard: List[str]) -> None:
            try:
                client = ServiceClient(port=service.port)
                client.predict_bulk(shard, mode=mode.value)
            except BaseException as exc:  # surfaced after join
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(shard,))
                   for shard in shards]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
        if failures:
            raise failures[0]

        # Latency phase: sequential round trips (no queueing of our
        # own making), so the percentiles describe the service, not
        # the load generator.
        latency_client = ServiceClient(port=service.port)
        samples: List[float] = []
        for index in range(LATENCY_SAMPLES):
            block_hex = hexes[index % len(hexes)]
            tick = time.perf_counter()
            latency_client.predict(block_hex, mode=mode.value)
            samples.append((time.perf_counter() - tick) * 1000.0)
        samples.sort()
        latency = {"p50_ms": round(_percentile(samples, 0.50), 3),
                   "p99_ms": round(_percentile(samples, 0.99), 3)}
    return PathTiming("service", len(hexes), seconds), latency


def write_bench_json(payload: Dict, path: str) -> None:
    """Write the harness payload (stable key order, trailing newline)."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench_json(path: str) -> Optional[Dict]:
    """Load a baseline payload; None when absent or unreadable."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


#: Paths the regression gate enforces (``service`` is recorded for the
#: trajectory only).
GATED_PATHS = ("single", "single_object", "cached")


def comparable(current: Dict, baseline: Dict) -> bool:
    """Whether two payloads were measured under the same configuration.

    Blocks/sec only compare meaningfully when the suite (size and seed)
    matches; a size-20 run gated against a size-80 baseline would mix
    different block-cost distributions.  Schemas must match too: path
    names keep their meaning only within a schema (schema 3 retargeted
    ``single`` at the columnar core, so gating a schema-3 run against a
    schema-2 baseline would compare different code paths).
    """
    return (current.get("suite") == baseline.get("suite")
            and current.get("schema") == baseline.get("schema"))


def find_regressions(current: Dict, baseline: Dict,
                     tolerance: float = DEFAULT_TOLERANCE,
                     ) -> List[Tuple[str, str, str, float, float]]:
    """Compare against a baseline payload.

    Returns (uarch, mode, path, current_bps, baseline_bps) tuples for
    every gated path (see :data:`GATED_PATHS`) whose blocks/sec dropped
    more than *tolerance* below the baseline.  Paths absent from either
    payload are skipped, as is an incomparable baseline (different
    suite; see :func:`comparable`) — callers should surface that case
    rather than gate against it.
    """
    if not comparable(current, baseline):
        return []
    regressions = []
    for abbrev, mode_value, path, cur_bps, base_bps in \
            _gated_pairs(current, baseline):
        if cur_bps < base_bps * (1.0 - tolerance):
            regressions.append(
                (abbrev, mode_value, path, cur_bps, base_bps))
    return regressions


def gated_overlap(current: Dict, baseline: Dict) -> int:
    """How many gated (µarch, mode, path) entries the payloads share.

    Zero means the gate would be vacuous (e.g. the baseline covers a
    different µarch set): callers should surface that instead of
    reporting a green check.
    """
    if not comparable(current, baseline):
        return 0
    return sum(1 for _ in _gated_pairs(current, baseline))


def _gated_pairs(current: Dict, baseline: Dict):
    """Yield (uarch, mode, path, current_bps, baseline_bps) for every
    gated entry present in both payloads."""
    for abbrev, by_mode in baseline.get("results", {}).items():
        for mode_value, by_path in by_mode.items():
            for path, numbers in by_path.items():
                if path not in GATED_PATHS:
                    continue
                base_bps = numbers.get("blocks_per_sec")
                cur = (current.get("results", {}).get(abbrev, {})
                       .get(mode_value, {}).get(path))
                if base_bps is None or cur is None:
                    continue
                cur_bps = cur.get("blocks_per_sec")
                if cur_bps is not None:
                    yield abbrev, mode_value, path, cur_bps, base_bps


def render_bench(payload: Dict) -> str:
    """Human-readable table of one harness run."""
    lines = [f"suite size {payload['suite']['size']} "
             f"(seed {payload['suite']['seed']}), "
             f"{payload.get('cpu_count')} cpus",
             f"{'µarch':<6} {'mode':<9} {'path':<9} "
             f"{'blocks/s':>10} {'speedup':>9}"]
    for abbrev, by_mode in payload["results"].items():
        for mode_value, by_path in by_mode.items():
            for path in PATHS:
                if path not in by_path:
                    continue
                speedup = payload["speedups"][abbrev][mode_value].get(
                    f"{path}_vs_single_object")
                lines.append(
                    f"{abbrev:<6} {mode_value:<9} {path:<9} "
                    f"{by_path[path]['blocks_per_sec']:>10.1f} "
                    + (f"{speedup:>8.2f}x" if speedup is not None
                       else f"{'—':>9}"))
    return "\n".join(lines)
