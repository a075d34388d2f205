"""The ``oracle`` workload: the cycle-level simulator behind ``measure``.

``sim.measure.measure(block, cfg, mode, use_cache=False)`` over seeded
blocks, one call at a time, round-robin over SKL and ICL in loop and
unrolled mode.  It is the cost of ``facile hunt`` and Table 2, and the
only workload that runs ``repro.sim``.  Outputs are checked against
cycles frozen in ``oracle_expected.json``, and every timed block is
measured again, untimed, and must give the same cycles: the simulator
carries no state from one call to the next.  The repeat also spreads
the timed calls over twice the wall time, so one slow phase of the
machine weighs on fewer of them.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from common import (CONFIGS, OUT_DIR, UARCHS, Clock, Groups, median, now,
                    peak_rss_mb, rss_kb, slope, tail_stats, timed_setups)
from inputs import WARMUP_SEED, items, take
from tracer import ENGINE_SPANS, Tracer
from workload_engine import install_tracer, span_metrics

from repro.core.components import ThroughputMode
from repro.core.jcc import affected_by_jcc_erratum
from repro.core.lsd import lsd_fits
from repro.engine.cache import AnalysisCache
from repro.isa.block import BasicBlock
from repro.sim.measure import measure
from repro.uarch import uarch_by_name
from repro.uops.database import UopsDatabase

#: Warm-up blocks per set-up (two per (µarch, mode) configuration).
WARMUP_BLOCKS = 8
TAIL_PCT = 90.0
#: Blocks simulated when peak RSS is read.
PEAK_AT = 64
FRONT_ENDS = ("legacy", "dsb", "lsd")
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "oracle_expected.json")


def _front_end(block: BasicBlock, mode: ThroughputMode, db) -> str:
    """The front end the simulator delivers *block* with, from outside."""
    if mode is ThroughputMode.UNROLLED:
        return "legacy"
    analysis = AnalysisCache.shared(db).analysis(block)
    if affected_by_jcc_erratum(block, db.cfg, analysis.analyzed):
        return "legacy"
    return "lsd" if lsd_fits(analysis.ops, db.cfg) else "dsb"


def sim_layer(blocks, sample: int = 24
              ) -> Tuple[Dict[str, float], int, int]:
    """The simulator's per-layer figures on already-predicted blocks.

    Measures the first *sample* (uarch, mode, raw, _) records and
    reports the median ``measure`` time per front end, plus the
    analysis-cache time the simulator pays (inclusive span).  It lets a
    traced run of another workload measure the ``sim`` layer, and check
    it: each sampled block is measured a second time, untimed, and must
    give the same cycles, and the frozen check set is re-measured.
    Returns (layer, checks, failed checks).
    """
    dbs = {uarch: UopsDatabase(uarch_by_name(uarch)) for uarch in UARCHS}
    by_front_end: Dict[str, List[float]] = {name: [] for name in FRONT_ENDS}
    tracer = Tracer()
    tracer.install({"engine.cache.analysis":
                    ENGINE_SPANS["engine.cache.analysis"]})
    measured = blocks[:sample]
    unrepeatable = 0
    for uarch, mode, raw, _ in measured:
        block = BasicBlock.from_bytes(raw)
        db = dbs[uarch]
        tracer.enabled = True
        start = now()
        cycles = measure(block, db.cfg, mode, db=db, use_cache=False)
        latency = now() - start
        tracer.enabled = False
        by_front_end[_front_end(block, mode, db)].append(latency)
        unrepeatable += measure(block, db.cfg, mode, db=db,
                                use_cache=False) != cycles
    tracer.uninstall()
    layer = {f"sim.measure_ms.{name}": median(samples) * 1e3
             for name, samples in by_front_end.items()}
    layer["engine.cache.analysis_us"] = (
        tracer.total_s("engine.cache.analysis") * 1e6 / max(1, len(measured)))
    checked, bad = check_set_mismatches()
    return layer, checked + len(measured), bad + unrepeatable


def check_set_mismatches() -> Tuple[int, int]:
    """Re-measure the frozen check set; returns (records, mismatches)."""
    with open(EXPECTED) as handle:
        records = json.load(handle)["records"]
    bad = 0
    for record in records:
        cycles = measure(BasicBlock.from_bytes(bytes.fromhex(record["hex"])),
                         uarch_by_name(record["uarch"]),
                         ThroughputMode(record["mode"]), use_cache=False)
        bad += cycles != record["cycles"]
    return len(records), bad


def run_oracle(seed: int, seconds: float, trace: bool) -> dict:
    warm_items = take(items(WARMUP_SEED), WARMUP_BLOCKS)
    cfgs = {uarch: uarch_by_name(uarch) for uarch in UARCHS}

    def setup() -> Dict[str, UopsDatabase]:
        dbs = {uarch: UopsDatabase(cfg) for uarch, cfg in cfgs.items()}
        for uarch, mode, block in warm_items:
            measure(block, cfgs[uarch], mode, db=dbs[uarch], use_cache=False)
        return dbs

    setup_s, dbs = timed_setups(setup)
    notes: List[str] = []
    tracer = install_tracer(trace, notes)
    # One group is one call per configuration; with a tracer, groups
    # alternate between untraced and traced.
    base = Groups()
    traced_groups = Groups()
    rss = [(0, rss_kb())]
    peak_mb = 0.0
    clock = Clock(seconds)
    stream = items(seed)
    unrepeatable = 0
    while not clock.done:
        traced = tracer is not None and base.calls > traced_groups.calls
        group = take(stream, len(CONFIGS))
        latencies: List[float] = []
        cycles: List[float] = []
        for uarch, mode, block in group:
            if traced:
                tracer.enabled = True
            start = now()
            result = measure(block, cfgs[uarch], mode, db=dbs[uarch],
                             use_cache=False)
            latencies.append(now() - start)
            cycles.append(result)
            if traced:
                tracer.enabled = False
        clock.add(sum(latencies))
        unrepeatable += sum(
            measure(block, cfgs[uarch], mode, db=dbs[uarch],
                    use_cache=False) != timed
            for (uarch, mode, block), timed in zip(group, cycles))
        # Per-layer only, so untraced runs need nothing beyond measure().
        front_ends = [_front_end(block, mode, dbs[uarch])
                      for uarch, mode, block in group] if trace else []
        (traced_groups if traced else base).add(latencies, front_ends)
        done = base.calls + traced_groups.calls
        rss.append((done, rss_kb()))
        if not peak_mb and done >= PEAK_AT:
            peak_mb = peak_rss_mb()
    peak_mb = peak_mb or peak_rss_mb()
    layer: Dict[str, float] = {}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(os.path.join(OUT_DIR, f"spans-oracle-{seed}.json"))
        layer.update(span_metrics(tracer, traced_groups.calls))
        layer["obs.trace_overhead_frac"] = (
            1.0 - traced_groups.blocks_per_s / base.blocks_per_s)
        for name in FRONT_ENDS:
            layer[f"sim.measure_ms.{name}"] = median(
                base.quiet_latencies(name)) * 1e3
        notes.append("front ends: " + ", ".join(
            f"{name}={len(base.quiet_latencies(name))}"
            for name in FRONT_ENDS))
    layer["mem.rss_slope_kb_per_kblock"] = 1000.0 * slope(
        [n for n, _ in rss], [kb for _, kb in rss])
    checked, failed = check_set_mismatches()
    failed += unrepeatable
    lat = tail_stats(base.quiet_latencies(), TAIL_PCT, 1e3)
    notes.append(f"latency tail p{TAIL_PCT:g}: {lat['n']} samples, "
                 f"{lat['beyond']} beyond")
    notes.append(base.note())
    return {
        "e2e": {"blocks_per_s": base.blocks_per_s,
                "latency_ms_p50": lat["p50"],
                "latency_ms_tail": lat["tail"],
                "setup_s": setup_s,
                "peak_rss_mb": peak_mb},
        "layer": layer,
        "attempted": base.calls + traced_groups.calls + checked,
        "failed": failed,
        "correct": failed == 0,
        "notes": notes,
    }
