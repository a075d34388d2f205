"""The ``engine_cold`` and ``engine_warm`` workloads.

Both time ``ColumnarCore.predict_raw`` one call at a time, the way a
compiler or ``facile hunt`` calls the engine and waits for each answer
(a closed loop with one caller), round-robin over SKL and ICL in loop
and unrolled mode.

* ``engine_cold`` feeds blocks whose signatures the cores have never
  seen, after a warm-up on a fixed set of other blocks (so the lazy
  µop-database and form-trie set-up is done): every timed lookup compiles
  (decode, µop analysis, Dec, Ports, Precedence, JCC).
* ``engine_warm`` warms the cores on a suite, then feeds immediate-only
  variants of it: bytes never seen before, signatures all compiled, so
  every timed lookup is a trie walk plus a prediction copy-out.

A run makes ``SETUP_POINTS`` set-ups (table reset, core construction,
warm-up): one before the window and the rest inside it, between
batches.  Each replaces the cores, so the window runs on freshly set-up
cores throughout, and ``setup_s`` samples the whole run rather than its
first second.

The regime guard fails a run whose lookup counts show the wrong regime.
"""

from __future__ import annotations

import os
import random
from typing import Callable, Dict, List, Optional, Tuple

from common import (OUT_DIR, UARCHS, Clock, Groups, Setups, median, now,
                    peak_rss_mb, rss_kb, tail_stats)
from inputs import (SAMPLE_SEED, WARMUP_SEED, NovelItems, ObjectModel,
                    PayloadVariants, golden_mismatches, items, take)
from tracer import ENGINE_SPANS, Tracer

from repro.core.components import Component
from repro.core import ports
from repro.engine import columnar
from repro.engine.columnar import ColumnarCore
from repro.uarch import uarch_by_name

#: Benchmarks (two blocks each) in the cold warm-up and the warm suite.
COLD_WARMUP_BENCHMARKS = 48
WARM_SUITE_BENCHMARKS = 128
#: Blocks per untimed input batch.
COLD_BATCH = 64
WARM_BATCH = 512
#: Blocks predicted when peak RSS is read: past the warm-up of the
#: cold stream, and past the point where the warm path's raw-bytes
#: LRU (65536 entries per core) is full.
COLD_PEAK_AT = 2048
WARM_PEAK_AT = 262144
#: Set-ups of a run: one before the window, the rest at even shares of
#: its timed seconds, so the set-ups meet as many phases of the host's
#: speed as the window does (see ``common.Setups``).  None falls before
#: peak RSS is read, so the peak always sees one set of cores predict
#: the same number of blocks, however fast the program.
SETUP_POINTS = 16
#: Warm blocks checked in wire format against the object model: one per
#: batch, up to this many per run (every block is checked by equality).
WARM_CHECKS = 1024
#: The tail percentile reported (fixed so runs stay comparable).
TAIL_PCT = 99.0
#: Blocks per Figure-4 component pass, and passes per component set.
FIG4_BLOCKS = 96
FIG4_REPS = 3
FIG4_SETS = {
    "predec": {Component.PREDEC},
    "dec": {Component.DEC},
    "ports": {Component.PORTS},
    "precedence": {Component.PRECEDENCE},
}
#: The lookup counters of ``ColumnarCore.stats()``.
LOOKUPS = ("raw_hits", "sig_hits", "misses")

Batch = List[tuple]  # (uarch, mode, raw, reference)


#: The hooks that drop the program's process-wide tables, looked up by
#: name.  Without one, set-ups after the first would start warm and
#: report a ``setup_s`` gain that never happened, so a run that cannot
#: find them all is marked not correct (see :func:`reset_guard`).
RESET_HOOKS = ((columnar, "_reset_global_tables"),
               (ports, "clear_ports_memo"))


def _clear_ports_memo() -> None:
    clear = getattr(ports, "clear_ports_memo", None)
    if clear is not None:
        clear()


def _reset_tables() -> None:
    """Drop the process-wide tables so each set-up starts cold."""
    for module, name in RESET_HOOKS:
        hook = getattr(module, name, None)
        if hook is not None:
            hook()


def reset_guard() -> List[str]:
    """Guard messages for every reset hook the program no longer has."""
    return [f"reset hook {module.__name__}.{name} is gone: set-ups after "
            "the first would not start cold"
            for module, name in RESET_HOOKS
            if getattr(module, name, None) is None]


def _cores() -> Dict[str, ColumnarCore]:
    return {uarch: ColumnarCore(uarch_by_name(uarch)) for uarch in UARCHS}


def engine_setups(warm: List[tuple]) -> Setups:
    """Set-ups of fresh cores warmed on *warm* (µarch, mode, block)
    items, each after a table reset outside the timed part."""
    def setup() -> Dict[str, ColumnarCore]:
        cores = _cores()
        for uarch, mode, block in warm:
            cores[uarch].predict_raw(block.raw, mode)
        return cores

    return Setups(setup, prepare=_reset_tables)


def set_up(cores: Dict[str, ColumnarCore], setups: Setups) -> None:
    """Replace *cores*, in place, by a fresh set-up.

    The old cores are dropped first, so no two sets are alive at once
    and the table reset frees everything they built.
    """
    cores.clear()
    cores.update(setups.run())


def _lookups(cores: Dict[str, ColumnarCore]) -> Dict[str, int]:
    total = {"raw_hits": 0, "sig_hits": 0, "misses": 0, "entries": 0}
    for core in cores.values():
        for key, value in core.stats().items():
            if key in total:
                total[key] += value
    return total


def _count(counts: Dict[str, int], before: Dict[str, int],
           cores: Dict[str, ColumnarCore]) -> None:
    after = _lookups(cores)
    for key in LOOKUPS:
        counts[key] += after[key] - before[key]


class Run:
    """One measured window: untraced and traced calls, lookups, RSS."""

    def __init__(self):
        self.base = Groups()
        self.traced: Optional[Groups] = None
        self.lookups: Dict[str, int] = dict.fromkeys(LOOKUPS, 0)
        #: (blocks, KiB) samples, one list per set of cores.
        self.rss: List[List[Tuple[int, int]]] = []
        self.peak_mb = 0.0

    @property
    def calls(self) -> int:
        return self.base.calls + (self.traced.calls if self.traced else 0)


def _time_calls(cores: Dict[str, ColumnarCore],
                batch: Batch) -> Tuple[list, List[float]]:
    """Outputs and seconds of ``predict_raw`` on each block of *batch*."""
    outputs: list = []
    latencies: List[float] = []
    for uarch, mode, raw, _ in batch:
        core = cores[uarch]
        start = now()
        try:
            result = core.predict_raw(raw, mode)
        except Exception as exc:  # compared against the object model
            result = exc
        latencies.append(now() - start)
        outputs.append(result)
    return outputs, latencies


def run_window(cores: Dict[str, ColumnarCore], setups: Setups,
               next_batch: Callable[[], Batch], seconds: float,
               on_batch: Callable[[Batch, list], None],
               tracer: Optional[Tracer], peak_at: int) -> Run:
    """Time ``predict_raw`` call by call until *seconds* are measured.

    Each batch is one group of :class:`~common.Groups`.  Inputs are
    made, and outputs checked, between batches and outside the timed
    calls; so are the RSS samples and the set-ups after the first
    (see :func:`set_up`), which fall at even shares of *seconds* once
    peak RSS is read.  Lookups are counted on every set of cores the
    window used.  Peak RSS is read once *peak_at* blocks are predicted,
    so it measures a fixed amount of work.  With a *tracer*, batches
    alternate between untraced and traced, so both see the same state
    of the cores and their difference is the tracing overhead.
    """
    run = Run()
    if tracer is not None:
        run.traced = Groups()
    before = _lookups(cores)
    clock = Clock(seconds)
    point = 1
    total = 0
    run.rss.append([(0, rss_kb())])
    while not clock.done:
        if (point < SETUP_POINTS and run.peak_mb
                and clock.timed >= point * seconds / SETUP_POINTS):
            _count(run.lookups, before, cores)
            set_up(cores, setups)
            before = _lookups(cores)
            point += 1
            run.rss.append([(total, rss_kb())])
        batch = next_batch()
        if not batch:
            break
        traced = tracer is not None and run.base.calls > run.traced.calls
        if traced:
            tracer.enabled = True
        outputs, latencies = _time_calls(cores, batch)
        if traced:
            tracer.enabled = False
        clock.add(sum(latencies))
        (run.traced if traced else run.base).add(
            latencies, [uarch for uarch, _, _, _ in batch])
        total += len(batch)
        on_batch(batch, outputs)
        run.rss[-1].append((total, rss_kb()))
        if not run.peak_mb and total >= peak_at:
            run.peak_mb = peak_rss_mb()
    if not run.peak_mb:
        run.peak_mb = peak_rss_mb()
    _count(run.lookups, before, cores)
    run.lookups["entries"] = _lookups(cores)["entries"]
    return run


def rss_slope(segments: List[List[Tuple[int, int]]]) -> float:
    """KiB of RSS growth per block within each set of cores.

    A set-up drops the old cores, so RSS falls between segments; this
    is the least-squares slope with each segment about its own mean.
    """
    num = den = 0.0
    for samples in segments:
        if len(samples) < 2:
            continue
        mx = sum(n for n, _ in samples) / len(samples)
        my = sum(kb for _, kb in samples) / len(samples)
        num += sum((n - mx) * (kb - my) for n, kb in samples)
        den += sum((n - mx) ** 2 for n, _ in samples)
    return num / den if den else 0.0


def span_metrics(tracer: Tracer, n: int) -> Dict[str, float]:
    """µs per block in each traced layer (self time; the analysis cache
    is inclusive of the µop analysis it triggers)."""
    per_block = 1e6 / max(1, n)
    return {
        "isa.decode_us": tracer.self_s("isa.decode") * per_block,
        "uops.analyze_us": tracer.self_s("uops.analyze") * per_block,
        "core.jcc_us": tracer.self_s("core.jcc") * per_block,
        "graph.depgraph_us": tracer.self_s("graph.depgraph") * per_block,
        "graph.mcr_us": tracer.self_s("graph.mcr") * per_block,
        "engine.cache.analysis_us":
            tracer.total_s("engine.cache.analysis") * per_block,
    }


def figure4(dbs: Dict[str, object], blocks: Batch) -> Dict[str, float]:
    """Per-component µs per block by the paper's Figure-4 method.

    Each pass runs a fresh core restricted to one component over blocks
    the process has already seen (so decode is not in it), with the
    Ports memo cleared; the component's cost is its median pass minus
    the median pass of a core with no components.
    """
    def one_pass(components) -> float:
        cores = {uarch: ColumnarCore(uarch_by_name(uarch), db=dbs[uarch],
                                     components=components)
                 for uarch in UARCHS}
        _clear_ports_memo()
        start = now()
        for uarch, mode, raw, _ in blocks:
            cores[uarch].predict_raw(raw, mode)
        return now() - start

    one_pass(None)  # throwaway: every form and µop characterization warm
    overhead = median([one_pass(()) for _ in range(FIG4_REPS)])
    scale = 1e6 / len(blocks)
    return {f"core.{name}_us":
            (median([one_pass(comps) for _ in range(FIG4_REPS)])
             - overhead) * scale
            for name, comps in FIG4_SETS.items()}


def _traced(tracer: Optional[Tracer], workload: str, seed: int,
            run: Run) -> Dict[str, float]:
    """Per-layer figures of the traced half, and the tracing overhead."""
    if tracer is None:
        return {}
    tracer.uninstall()
    tracer.dump(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json"))
    layer = span_metrics(tracer, run.traced.calls)
    layer["obs.trace_overhead_frac"] = (
        1.0 - run.traced.blocks_per_s / run.base.blocks_per_s)
    return layer


def install_tracer(trace: bool, notes: List[str]) -> Optional[Tracer]:
    """A tracer on the engine layers (None untraced); notes what the
    program no longer has to trace."""
    if not trace:
        return None
    tracer = Tracer()
    missing = tracer.install(ENGINE_SPANS)
    if missing:
        notes.append("not traced (gone): " + ", ".join(missing))
    return tracer


def _result(run: Run, setups: Setups, attempted: int, failed: int,
            guard: List[str], layer: Dict[str, float],
            notes: List[str]) -> dict:
    lookups = run.lookups
    total = max(1, lookups["raw_hits"] + lookups["sig_hits"]
                + lookups["misses"])
    layer.update({
        "engine.columnar.raw_hit_ratio": lookups["raw_hits"] / total,
        "engine.columnar.sig_hit_ratio": lookups["sig_hits"] / total,
        "engine.columnar.miss_ratio": lookups["misses"] / total,
        "engine.columnar.entries": float(lookups["entries"]),
        "mem.rss_slope_kb_per_kblock": 1000.0 * rss_slope(run.rss),
    })
    for uarch in UARCHS:
        layer[f"engine.block_us_p50.{uarch}"] = median(
            run.base.quiet_latencies(uarch)) * 1e6
    lat = tail_stats(run.base.quiet_latencies(), TAIL_PCT, 1e3)
    notes.append(run.base.note())
    notes.append(setups.note())
    notes.append(f"latency tail p{TAIL_PCT:g}: {lat['n']} samples, "
                 f"{lat['beyond']} beyond")
    notes.append("lookups: " + ", ".join(
        f"{k}={v}" for k, v in sorted(lookups.items())))
    notes.extend(f"regime guard: {message}" for message in guard)
    return {
        "e2e": {"blocks_per_s": run.base.blocks_per_s,
                "latency_ms_p50": lat["p50"],
                "latency_ms_tail": lat["tail"],
                "setup_s": setups.seconds(),
                "peak_rss_mb": run.peak_mb},
        "layer": layer,
        "attempted": attempted,
        "failed": failed,
        "correct": not guard and failed == 0,
        "notes": notes,
    }


def run_cold(seed: int, seconds: float, trace: bool) -> dict:
    warm_items = take(items(WARMUP_SEED), 2 * COLD_WARMUP_BENCHMARKS)
    setups = engine_setups(warm_items)
    cores: Dict[str, ColumnarCore] = {}
    set_up(cores, setups)
    novel = NovelItems(seed)
    novel.mark(warm_items)
    checker = ObjectModel()
    fig4_blocks: Batch = []
    mismatches = [0]

    def next_batch() -> Batch:
        return [(uarch, mode, block.raw, None)
                for uarch, mode, block in novel.next_batch(COLD_BATCH)]

    def check(batch: Batch, outputs: list) -> None:
        mismatches[0] += checker.mismatches(
            (uarch, mode, raw, result)
            for (uarch, mode, raw, _), result in zip(batch, outputs))
        fig4_blocks.extend(batch[:FIG4_BLOCKS - len(fig4_blocks)])

    notes: List[str] = []
    tracer = install_tracer(trace, notes)
    run = run_window(cores, setups, next_batch, seconds, check, tracer,
                     COLD_PEAK_AT)
    layer = _traced(tracer, "engine_cold", seed, run)
    sim_checked = sim_bad = 0
    if trace:
        layer.update(figure4({u: c.db for u, c in cores.items()},
                             fig4_blocks))
        # The oracle is not a benchmark workload (its figures do not
        # hold steady on a shared 2-CPU host), so its layer is measured
        # here, on a sample of the same blocks, and its outputs are
        # checked here too.
        from workload_oracle import sim_layer
        sim, sim_checked, sim_bad = sim_layer(fig4_blocks)
        layer.update(sim)
        notes.append(f"simulator: {sim_checked} checks, {sim_bad} failed")
    # Regime guard: the stream holds no repeated signature shape, and
    # every set-up warms the cores on blocks the stream excludes, so
    # every timed lookup must compile.
    guard = reset_guard()
    stray = run.lookups["raw_hits"] + run.lookups["sig_hits"]
    if stray:
        guard.append(f"{stray} hits on never-seen signatures")
    golden, golden_bad = golden_mismatches()
    timed = run.calls
    notes.append(f"never-seen shapes: {timed} timed, "
                 f"{novel.skipped} skipped as seen")
    return _result(run, setups, timed + golden + sim_checked,
                   stray + golden_bad + mismatches[0] + sim_bad, guard,
                   layer, notes)


def run_warm(seed: int, seconds: float, trace: bool) -> dict:
    suite = take(items(seed), 2 * WARM_SUITE_BENCHMARKS)
    setups = engine_setups(suite)
    cores: Dict[str, ColumnarCore] = {}
    set_up(cores, setups)
    rng = random.Random(seed + SAMPLE_SEED)
    suite_raws = {block.raw for _, _, block in suite}
    sources: Dict[tuple, PayloadVariants] = {}
    for uarch, mode, block in suite:
        source = PayloadVariants(uarch, mode, block, rng, suite_raws)
        if source.usable:
            sources.setdefault(source.skeleton, source)
    # Probe one variant of each source: a source whose variant does not
    # land on its compiled signature (a form the trie keeps by exact
    # bytes) is not a warm input, and is dropped.  Every set-up compiles
    # the same suite, so the sources kept here stay warm after each.
    live: List[PayloadVariants] = []
    for source in sources.values():
        before = _lookups(cores)["sig_hits"]
        cores[source.uarch].predict_raw(source.next(), source.mode)
        if _lookups(cores)["sig_hits"] == before + 1:
            live.append(source)
    checker = ObjectModel()
    # Every variant must predict exactly like its source block (the
    # model reads immediates nowhere): the whole ``Prediction`` is
    # compared, bounds, bottlenecks, flags and critical indices included.
    # One block per batch is also checked in wire format.
    expected = {id(source): checker.models[source.uarch].predict(
        source.block, source.mode) for source in live}
    n_sources = len(live)
    mismatches = [0]
    checked = [0]
    cursor = [0]

    def next_batch() -> Batch:
        batch: Batch = []
        while len(batch) < WARM_BATCH and live:
            source = live[cursor[0] % len(live)]
            cursor[0] += 1
            if source.exhausted:
                live.remove(source)
                continue
            batch.append((source.uarch, source.mode, source.next(), source))
        return batch

    def check(batch: Batch, outputs: list) -> None:
        for (_, _, _, source), result in zip(batch, outputs):
            if (isinstance(result, Exception)
                    or result != expected[id(source)]):
                mismatches[0] += 1
        if checked[0] < WARM_CHECKS:
            checked[0] += 1
            pick = rng.randrange(len(batch))
            mismatches[0] += checker.mismatches(
                [batch[pick][:3] + (outputs[pick],)])

    notes: List[str] = []
    tracer = install_tracer(trace, notes)
    run = run_window(cores, setups, next_batch, seconds, check, tracer,
                     WARM_PEAK_AT)
    layer = _traced(tracer, "engine_warm", seed, run)
    # Regime guard: every timed block is new bytes of a compiled
    # signature, so there may be no raw hit and no miss.
    guard = reset_guard()
    stray = run.lookups["raw_hits"] + run.lookups["misses"]
    if stray:
        guard.append(f"{stray} raw hits or misses on payload variants")
    timed = run.calls
    if not live:
        guard.append("payload variants ran out before the window ended")
    golden, golden_bad = golden_mismatches()
    notes.append(f"payload sources: {n_sources} of {len(suite)} suite "
                 "blocks")
    return _result(run, setups, timed + golden,
                   stray + golden_bad + mismatches[0], guard, layer, notes)
