"""Fast smoke variant of the perf-regression harness (tier-1).

Marked ``perf`` so it can be selected/deselected with ``-m perf``; the
full-size harness lives in ``benchmarks/perf/`` and the regression gate
in ``scripts/bench.py``.
"""

import pytest

from repro.core.components import ThroughputMode
from repro.engine import bench as bench_mod
from repro.eval.timing import VARIANT_PASSES


@pytest.mark.perf
def test_perf_harness_smoke(tmp_path):
    payload = bench_mod.run_perf_harness(
        size=12, uarchs=("SKL",), modes=[ThroughputMode.LOOP])
    by_path = payload["results"]["SKL"]["loop"]
    assert set(by_path) == set(bench_mod.PATHS)
    for path, numbers in by_path.items():
        assert numbers["blocks_per_sec"] > 0
        # The single paths time the never-seen variant stream; the
        # batch paths time the suite itself.
        if path in ("single", "single_object"):
            assert numbers["n_blocks"] == 12 * VARIANT_PASSES
        else:
            assert numbers["n_blocks"] == 12

    out = tmp_path / "BENCH_predict.json"
    bench_mod.write_bench_json(payload, str(out))
    reloaded = bench_mod.load_bench_json(str(out))
    assert bench_mod.find_regressions(payload, reloaded) == []

    # A synthetic 10x slowdown must trip the 20% gate on the gated
    # paths; the service path is recorded but never gated.
    # ``schema`` must match: comparable() refuses cross-schema gating.
    slow = {"suite": payload["suite"], "schema": payload["schema"],
            "results": {"SKL": {"loop": {
                path: {"blocks_per_sec": numbers["blocks_per_sec"] / 10.0}
                for path, numbers in by_path.items()}}}}
    regressions = bench_mod.find_regressions(slow, payload)
    assert {r[2] for r in regressions} == set(bench_mod.GATED_PATHS)

    # A run on a different suite must never be gated against this one.
    other_suite = dict(slow, suite={"size": 999, "seed": 1})
    assert bench_mod.find_regressions(other_suite, payload) == []
    assert bench_mod.gated_overlap(other_suite, payload) == 0

    # A run on the same suite under a different schema must never be
    # gated either: path names change meaning across schemas.
    other_schema = dict(slow, schema=payload["schema"] - 1)
    assert bench_mod.find_regressions(other_schema, payload) == []
    assert bench_mod.gated_overlap(other_schema, payload) == 0

    # A run covering a disjoint µarch set shares no gated entries —
    # callers must detect this instead of reporting a green gate.
    other_uarch = {"suite": payload["suite"], "schema": payload["schema"],
                   "results": {"ICL": slow["results"]["SKL"]}}
    assert bench_mod.gated_overlap(other_uarch, payload) == 0
    assert bench_mod.gated_overlap(slow, payload) > 0


@pytest.mark.perf
def test_regression_gate_tolerance():
    base = {"results": {"SKL": {"loop": {
        "single": {"blocks_per_sec": 100.0}}}}}
    ok = {"results": {"SKL": {"loop": {
        "single": {"blocks_per_sec": 85.0}}}}}
    bad = {"results": {"SKL": {"loop": {
        "single": {"blocks_per_sec": 79.0}}}}}
    assert bench_mod.find_regressions(ok, base, tolerance=0.20) == []
    assert bench_mod.find_regressions(bad, base, tolerance=0.20) == [
        ("SKL", "loop", "single", 79.0, 100.0)]
