"""Perf harness: blocks/sec of the engine's prediction paths.

This bench runs the same measurement kernel as ``scripts/bench.py``
(columnar single-block, seed-equivalent single-block, cached-batch,
and the HTTP service under concurrent bulk clients) on the fixed-seed
suite.
Set ``REPRO_BENCH_WRITE=1`` to also refresh ``BENCH_predict.json`` at
the repository root; by default the payload is written to a temporary
file only, so plain test runs never clobber the committed baseline with
machine-local numbers (``scripts/bench.py`` is the canonical writer).
Qualitative findings asserted here:

* the columnar core predicts never-seen blocks ≥5× faster than the
  seed-equivalent per-call path (the columnar rewrite's acceptance
  gate; measured well above 50× in practice);
* the cached batch path is substantially faster than the seed-style
  per-call path (the paper's speed claim is the whole point of Facile,
  and re-deriving the analysis per call was the repo's slowest path);
* all paths produce positive, finite throughput numbers.

Speedup *thresholds* are asserted conservatively — the gate for the
committed baseline is ``scripts/bench.py`` (20% tolerance), not pytest.
"""

import os

import pytest

from repro.engine import bench as bench_mod

pytestmark = pytest.mark.perf

BENCH_JSON = os.path.abspath(os.path.join(
    os.path.dirname(__file__), "..", "..", "BENCH_predict.json"))

SIZE = int(os.environ.get("REPRO_BENCH_PERF_SIZE",
                          str(bench_mod.DEFAULT_SIZE)))


@pytest.fixture(scope="module")
def payload():
    result = bench_mod.run_perf_harness(size=SIZE)
    print()
    print(bench_mod.render_bench(result))
    return result


def test_payload_structure(payload):
    from repro.eval.timing import VARIANT_PASSES

    assert payload["schema"] == 4
    assert payload["suite"] == {"size": SIZE,
                                "seed": bench_mod.DEFAULT_SEED}
    for abbrev in bench_mod.DEFAULT_UARCHS:
        for mode in ("unrolled", "loop"):
            by_path = payload["results"][abbrev][mode]
            assert set(by_path) == set(bench_mod.PATHS)
            for path, numbers in by_path.items():
                assert numbers["blocks_per_sec"] > 0
                # Schema 4: the observability record rides along.
                assert numbers["peak_rss_kb"] is None \
                    or numbers["peak_rss_kb"] > 0
                assert isinstance(numbers["metrics"], dict)
                # The single paths time the payload-variant stream
                # (VARIANT_PASSES never-seen copies of the suite); the
                # batch paths time the suite itself.
                if path in ("single", "single_object"):
                    assert numbers["n_blocks"] == SIZE * VARIANT_PASSES
                else:
                    assert numbers["n_blocks"] == SIZE


def test_service_throughput_recorded(payload):
    # The service load generator (concurrent bulk-predict clients over
    # a real socket) must land in the payload; no speed floor is
    # asserted — per-request HTTP overhead dominates on tiny suites.
    for abbrev in bench_mod.DEFAULT_UARCHS:
        for mode in ("unrolled", "loop"):
            service = payload["results"][abbrev][mode]["service"]
            assert service["blocks_per_sec"] > 0
            # Steady-state latency percentiles (schema 2): positive,
            # ordered, and in milliseconds (no floor — machine-local).
            assert 0 < service["p50_ms"] <= service["p99_ms"]
            speedups = payload["speedups"][abbrev][mode]
            assert "service_vs_single_object" in speedups
    assert payload["service_clients"] == bench_mod.DEFAULT_SERVICE_CLIENTS


def test_columnar_single_is_5x_faster_than_object(payload):
    # The columnar rewrite's acceptance gate: ≥5× on never-seen blocks
    # versus the seed-equivalent path.  Measured two orders of
    # magnitude above this in practice — the margin absorbs any CI-box
    # timing noise.
    for abbrev, by_mode in payload["speedups"].items():
        for mode, speedups in by_mode.items():
            assert speedups["single_vs_single_object"] >= 5, \
                (abbrev, mode)


def test_cached_batch_is_faster_than_single_object(payload):
    # Structurally ~6-12x; the loose threshold only guards against the
    # cache being disconnected, not against timing noise.
    for abbrev, by_mode in payload["speedups"].items():
        for mode, speedups in by_mode.items():
            assert speedups["cached_vs_single_object"] > 1.3, \
                (abbrev, mode)


def test_writes_bench_json(payload, tmp_path):
    if os.environ.get("REPRO_BENCH_WRITE"):
        target = BENCH_JSON
    else:
        target = str(tmp_path / "BENCH_predict.json")
    bench_mod.write_bench_json(payload, target)
    reloaded = bench_mod.load_bench_json(target)
    assert reloaded == payload
    # A fresh identical-config run never counts as a regression of
    # itself.
    assert bench_mod.find_regressions(payload, reloaded) == []
