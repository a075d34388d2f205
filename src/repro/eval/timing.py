"""Wall-clock timing of predictors and of Facile's components (§6.3).

The original experiments measure tool runtime on the BHive benchmarks;
here we time the analogs the same way: per-benchmark prediction time,
with Facile's per-component cost obtained by running single-component
variants and deducting the shared overhead (input parsing and
disassembly), exactly as the paper describes.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.bhive.suite import BenchmarkSuite
from repro.core.components import (
    Component,
    LOOP_COMPONENTS,
    ThroughputMode,
    UNROLLED_COMPONENTS,
)
from repro.core.model import Facile
from repro.engine.cache import AnalysisCache
from repro.engine.engine import Engine
from repro.isa.block import BasicBlock
from repro.obs import metrics as obs_metrics
from repro.uarch.config import MicroArchConfig
from repro.uops.database import UopsDatabase


@dataclass
class TimingResult:
    """Per-benchmark execution times (milliseconds)."""

    name: str
    samples_ms: List[float]

    @property
    def mean_ms(self) -> float:
        return sum(self.samples_ms) / len(self.samples_ms)

    @property
    def median_ms(self) -> float:
        ordered = sorted(self.samples_ms)
        return ordered[len(ordered) // 2]


def _time_samples(predicts: Sequence[Callable], suite: BenchmarkSuite,
                  mode: ThroughputMode) -> List[List[float]]:
    """Milliseconds to decode and predict each benchmark's block, per
    predictor in ``predicts``.

    Every predictor times a block before the next block is taken, so a
    transient slowdown of the host lands on all predictors' samples of
    that block alike rather than on whichever predictor was running.
    The global Ports memo is dropped before every sample: it would
    otherwise turn repeated port multisets (across blocks and across
    predictors) into lookups instead of the full per-call price.  The
    cyclic garbage collector is off while the samples run, as in
    :mod:`timeit`: a full collection of a large heap (a long test
    session, say) takes tens to hundreds of milliseconds and would
    swamp the ~1 ms sample it lands in.
    """
    from repro.core.ports import clear_ports_memo

    loop = mode is ThroughputMode.LOOP
    samples: List[List[float]] = [[] for _ in predicts]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for bench in suite:
            raw = bench.block(loop).raw
            for predict, out in zip(predicts, samples):
                clear_ports_memo()
                start = time.perf_counter()
                # Like the real tools, the input is a binary: decoding
                # is part of the measured work.
                block = BasicBlock.from_bytes(raw)
                predict(block, mode)
                out.append(1000.0 * (time.perf_counter() - start))
    finally:
        if enabled:
            gc.enable()
    return samples


def time_predictor(predictor, suite: BenchmarkSuite,
                   mode: ThroughputMode) -> TimingResult:
    """Time one predictor over the suite (prediction only, no training).

    Block-level caches (shared analyses, the global Ports memo) are
    dropped first: tools share databases during evaluation, and timing a
    tool against caches warmed by a previously timed tool would
    understate its per-call cost (Figure 5 compares tools' runtimes).
    The per-instruction characterization cache stays warm, as in the
    seed setup.
    """
    predictor.prepare()
    for db in predictor.databases():
        AnalysisCache.shared(db).clear()
    samples, = _time_samples([predictor.predict], suite, mode)
    return TimingResult(predictor.name, samples)


def time_facile_components(cfg: MicroArchConfig, suite: BenchmarkSuite,
                           mode: ThroughputMode,
                           db: Optional[UopsDatabase] = None,
                           ) -> Dict[str, TimingResult]:
    """Figure 4 data: overhead, per-component, and total Facile times.

    The overhead (disassembly, block analysis, combination) is measured
    with all components deactivated; each component's cost is the
    single-component run minus that overhead.  The variants take turns
    on each block, so a deduction pairs samples taken moments apart.

    Every variant runs with its own fresh analysis cache: sharing the
    engine's cache across variants would make every run after the first
    measure a cache lookup instead of the component's cost.
    """
    db = db or UopsDatabase(cfg)
    loop = mode is ThroughputMode.LOOP
    relevant = (LOOP_COMPONENTS if loop else UNROLLED_COMPONENTS)

    def fresh(**kwargs) -> Facile:
        return Facile(cfg, db=db, cache=AnalysisCache(db), **kwargs)

    variants = {"FACILE": fresh(), "Overhead": fresh(components=())}
    for comp in relevant:
        variants[comp.value] = fresh(components={comp})
    timed = dict(zip(variants, _time_samples(
        [model.predict for model in variants.values()], suite, mode)))
    overhead = timed["Overhead"]
    results: Dict[str, TimingResult] = {}
    for name, samples in timed.items():
        if name not in ("FACILE", "Overhead"):
            samples = [max(0.0, s - o) for s, o in zip(samples, overhead)]
        results[name] = TimingResult(name, samples)
    return results


# ---------------------------------------------------------------------------
# Engine path timing (the perf-regression harness's measurement kernel)
# ---------------------------------------------------------------------------

@dataclass
class PathTiming:
    """Wall-clock of one prediction path over a suite.

    Attributes:
        path: ``"single"``, ``"single_object"``, ``"cached"``,
            ``"parallel"``, or ``"service"``.
        n_blocks: number of blocks predicted in the timed pass.
        seconds: wall-clock of the timed pass.
        peak_rss_kb: the process's peak resident set (kilobytes) when
            the path finished — a high-water mark, so paths measured
            later can only report equal-or-larger values.
        metrics: the registry counters this path moved
            (``name{labels}`` -> delta), for the bench record only —
            the regression gate never reads it.
    """

    path: str
    n_blocks: int
    seconds: float
    peak_rss_kb: Optional[int] = None
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def blocks_per_sec(self) -> float:
        if self.seconds <= 0.0:
            return float("inf")
        return self.n_blocks / self.seconds


def peak_rss_kb() -> Optional[int]:
    """The process's peak RSS in kilobytes (None where unsupported)."""
    try:
        import resource
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return None


def _counters_delta(before: Dict[str, float],
                    after: Dict[str, float]) -> Dict[str, float]:
    """The non-zero counter movement between two flat snapshots."""
    return {key: round(value - before.get(key, 0.0), 6)
            for key, value in sorted(after.items())
            if value != before.get(key, 0.0)}


#: Never-seen passes of the payload-variant stream timed by the
#: ``single`` / ``single_object`` paths.
VARIANT_PASSES = 4
#: RNG seed of the variant stream (fixed: the stream must be identical
#: across runs and across the two paths that time it).
VARIANT_SEED = 2029


def _payload_variant(raw: bytes, rng: random.Random) -> bytes:
    """One imm-randomized copy of *raw* (same signature, unseen bytes).

    Immediate payload bytes are randomized (all but the top byte, so
    signs and relative-branch targets stay sane); the instruction forms
    — and hence the columnar signature — are untouched.  Falls back to
    *raw* itself in the rare case the mutation does not decode.
    """
    block = BasicBlock.from_bytes(raw)
    out = bytearray()
    mutated = False
    for instr in block:
        encoded = bytearray(instr.raw)
        enc = instr.template.encoding
        imm_len = enc.imm_width // 8 if enc.imm_width else 0
        if imm_len and enc.fixed_bytes is None:
            for i in range(len(encoded) - imm_len, len(encoded) - 1):
                encoded[i] = rng.randrange(256)
            mutated = True
        out += encoded
    if not mutated:
        return raw
    variant = bytes(out)
    try:
        BasicBlock.from_bytes(variant)
    except Exception:
        return raw
    return variant


def payload_variant_stream(raws: Sequence[bytes],
                           passes: int = VARIANT_PASSES,
                           seed: int = VARIANT_SEED) -> List[bytes]:
    """*passes* never-seen imm-randomized copies of a suite's blocks.

    This is the cold-call workload of the ``single`` paths: block bytes
    the process has never predicted, drawn from the instruction mix of
    the suite.  The same fixed-seed stream feeds both the columnar and
    the seed-equivalent measurement so they are strictly comparable.
    """
    rng = random.Random(seed)
    return [_payload_variant(raw, rng)
            for _ in range(passes) for raw in raws]


def time_prediction_paths(cfg: MicroArchConfig, suite: BenchmarkSuite,
                          mode: ThroughputMode, *,
                          workers: int = 2,
                          include_parallel: bool = True,
                          progress: Optional[Callable[[str], None]] = None,
                          ) -> Dict[str, PathTiming]:
    """Blocks/sec of the engine paths on one (µarch, mode).

    * ``single`` — the engine's default cold-call path: the columnar
      core (:mod:`repro.engine.columnar`), warmed once over the suite,
      then timed per-call on a stream of *never-seen* payload variants
      (same instruction forms, fresh displacement/immediate bytes).
      Unseen blocks resolving to warm template-level sub-results is
      precisely the columnar core's claim, so that is what the number
      measures.
    * ``single_object`` — the seed-equivalent reference on the *same*
      variant stream: each block is decoded from bytes and predicted
      with a cold analysis cache and a cold Ports memo, i.e. every call
      re-derives the full analysis (what every ``predict()`` cost
      before the engine existed).  ``single`` / ``single_object`` is
      the columnar speedup the perf gate enforces.
    * ``cached`` — the object model's serial batch path in its steady
      state: the suite was evaluated once to warm the shared cache, and
      the timed pass measures repeated evaluation (the ablation /
      counterfactual / multi-variant regime).
    * ``parallel`` — the engine's pool path, cold: compact payloads are
      shipped to *workers* processes which decode, analyze, and predict,
      results merged by index.  Includes pool start-up, so it reflects
      what a fresh parallel suite evaluation costs end to end.
    """
    from repro.core.ports import clear_ports_memo
    from repro.engine.columnar import ColumnarCore

    loop = mode is ThroughputMode.LOOP
    raws = [bench.block(loop).raw for bench in suite]
    results: Dict[str, PathTiming] = {}

    def record(timing: PathTiming,
               counters_before: Dict[str, float]) -> None:
        """Attach the observability record and report progress.

        Runs strictly *after* the timed region — the RSS probe and the
        registry snapshot never sit inside a measurement.
        """
        timing.peak_rss_kb = peak_rss_kb()
        timing.metrics = _counters_delta(
            counters_before, obs_metrics.REGISTRY.counters_flat())
        results[timing.path] = timing
        if progress is not None:
            progress(timing.path)

    # The cold-call workload: never-seen payload variants (built and
    # decode-validated outside every timed region).
    variants = payload_variant_stream(raws)

    # -- single (columnar core, per-call, unseen bytes) -----------------
    clear_ports_memo()  # shared with the object paths: start cold
    core = ColumnarCore(cfg)
    core.predict_raw_many(raws, mode)  # warm-up: compile the suite once
    counters = obs_metrics.REGISTRY.counters_flat()
    start = time.perf_counter()
    for raw in variants:
        core.predict_raw(raw, mode)
    record(PathTiming("single", len(variants),
                      time.perf_counter() - start), counters)

    # -- single_object (seed-style cold predictions, same stream) -------
    db = UopsDatabase(cfg)
    cache = AnalysisCache(db)
    model = Facile(cfg, db=db, cache=cache)
    counters = obs_metrics.REGISTRY.counters_flat()
    start = time.perf_counter()
    for raw in variants:
        # The seed path had no memoization at all: drop both the block
        # cache and the global Ports memo before every call.
        cache.clear()
        clear_ports_memo()
        model.predict(BasicBlock.from_bytes(raw), mode)
    record(PathTiming("single_object", len(variants),
                      time.perf_counter() - start), counters)

    # -- cached batch path (warm shared cache, serial by construction:
    # going through Engine here would inherit the process-wide worker
    # default and silently measure the pool instead) -------------------
    blocks = [BasicBlock.from_bytes(raw) for raw in raws]
    warm_db = UopsDatabase(cfg)
    warm_model = Facile(cfg, db=warm_db, cache=AnalysisCache(warm_db))
    warm_model.predict_many(blocks, mode)  # warm-up pass fills the cache
    counters = obs_metrics.REGISTRY.counters_flat()
    start = time.perf_counter()
    warm_model.predict_many(blocks, mode)
    record(PathTiming("cached", len(blocks),
                      time.perf_counter() - start), counters)

    # -- parallel batch path (cold pool) -------------------------------
    if include_parallel:
        # Workers are forked from this process: drop the warm Ports memo
        # so they start as cold as a fresh parallel evaluation would.
        clear_ports_memo()
        with Engine(cfg, db=UopsDatabase(cfg),
                    n_workers=workers) as parallel_engine:
            counters = obs_metrics.REGISTRY.counters_flat()
            start = time.perf_counter()
            parallel_engine.predict_many(blocks, mode)
            record(PathTiming("parallel", len(blocks),
                              time.perf_counter() - start), counters)
    return results
