"""Prediction-path property tests: caching and pooling never change
results.

The acceptance property of the prediction paths is that every one —
the object model per call with a cold cache (the seed behavior) and the
columnar core's batch with its compiled entries — produces *identical*
``Prediction`` values (throughput, bounds, bottlenecks, critical
instructions, detail payloads) on a generated BHive suite, for every
µarch and both throughput notions, and that pooled oracle measurements
equal serial ones.
"""

import pytest

from repro.bhive.suite import BenchmarkSuite
from repro.core.components import Component, ThroughputMode
from repro.core.model import Facile
from repro.engine import AnalysisCache, ColumnarCore
from repro.isa.block import BasicBlock
from repro.uarch import ALL_UARCHS, uarch_by_name
from repro.uops.database import UopsDatabase

MODES = (ThroughputMode.UNROLLED, ThroughputMode.LOOP)

SKL = uarch_by_name("SKL")


@pytest.fixture(scope="module")
def suite():
    return BenchmarkSuite.generate(24, seed=77)


def seed_style_predictions(cfg, blocks, mode):
    """The pre-engine behavior: every call re-derives the analysis."""
    db = UopsDatabase(cfg)
    cache = AnalysisCache(db)
    model = Facile(cfg, db=db, cache=cache)
    out = []
    for block in blocks:
        cache.clear()
        out.append(model.predict(block, mode))
    return out


class TestPathEquivalence:
    @pytest.mark.parametrize("cfg", ALL_UARCHS,
                             ids=lambda cfg: cfg.abbrev)
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_cached_equals_uncached(self, suite, cfg, mode):
        blocks = [b.block(mode is ThroughputMode.LOOP) for b in suite]
        uncached = seed_style_predictions(cfg, blocks, mode)
        cached = ColumnarCore(cfg).predict_many(blocks, mode)
        assert cached == uncached

    def test_parallel_measurement_equals_serial(self, suite):
        from repro.sim.measure import measure, measure_many
        db = UopsDatabase(SKL)
        blocks = [b.block_l for b in suite][:8]
        serial = [measure(block, SKL, ThroughputMode.LOOP, db,
                          use_cache=False) for block in blocks]
        parallel = measure_many(SKL, blocks, ThroughputMode.LOOP,
                                n_workers=2)
        assert parallel == serial
        # Worker results must land in the process-wide measurement
        # cache, so a repeat is served without a pool.
        from repro.sim.measure import cached_measurement
        assert all(cached_measurement(block, SKL, ThroughputMode.LOOP)
                   is not None for block in blocks)
        assert measure_many(SKL, blocks, ThroughputMode.LOOP,
                            n_workers=2) == serial

    def test_round_tripped_blocks_share_the_analysis(self, suite):
        # Blocks rebuilt from raw bytes must resolve to the entries the
        # original decoded blocks compiled: one sig hit each, no miss.
        core = ColumnarCore(SKL)
        blocks = [b.block_l for b in suite]
        core.predict_many(blocks, ThroughputMode.LOOP)
        before = core.stats()
        core.predict_many(
            [BasicBlock.from_bytes(b.raw) for b in blocks],
            ThroughputMode.LOOP)
        after = core.stats()
        assert after["misses"] == before["misses"]
        assert after["sig_hits"] == before["sig_hits"] + len(blocks)


class TestCacheKeying:
    def test_equal_signature_blocks_share_one_analysis(self):
        db = UopsDatabase(SKL)
        cache = AnalysisCache(db)
        first = BasicBlock.from_asm("add rax, rbx\nimul rcx, rdx")
        second = BasicBlock.from_bytes(first.raw)
        assert first is not second
        analysis_a = cache.analysis(first)
        analysis_b = cache.analysis(second)
        assert analysis_a is analysis_b
        assert cache.misses == 1 and cache.hits == 1
        assert len(cache) == 1

    def test_shared_cache_is_per_database(self):
        db = UopsDatabase(SKL)
        assert AnalysisCache.shared(db) is AnalysisCache.shared(db)
        assert AnalysisCache.shared(db) is not \
            AnalysisCache.shared(UopsDatabase(SKL))

    def test_facile_variants_share_the_db_cache(self):
        db = UopsDatabase(SKL)
        full = Facile(SKL, db=db)
        only = Facile(SKL, db=db, components={Component.PORTS})
        block = BasicBlock.from_asm("imul rax, rbx\nadd rcx, rdx")
        full.predict(block, ThroughputMode.UNROLLED)
        misses = full.cache.misses
        only.predict(block, ThroughputMode.UNROLLED)
        assert only.cache is full.cache
        assert full.cache.misses == misses


class TestComponentBoundCaching:
    def test_component_loop_analyzes_once(self):
        # The ablation-bench pattern: every component of one block in a
        # loop must not re-run the block analysis per query.
        model = Facile(SKL)
        block = BasicBlock.from_asm("imul rax, rbx\nadd rax, rcx")
        for component in (Component.PREDEC, Component.DEC,
                          Component.ISSUE, Component.PORTS,
                          Component.PRECEDENCE):
            model.component_bound(block, component,
                                  ThroughputMode.UNROLLED)
        assert model.cache.misses == 1
        assert model.cache.hits >= 4

    def test_component_bound_matches_predict_bounds(self):
        model = Facile(SKL)
        block = BasicBlock.from_asm(
            "mov rax, qword ptr [rsi]\nimul rax, rbx\njne -12")
        prediction = model.predict(block, ThroughputMode.LOOP)
        for component, bound in prediction.bounds.items():
            assert model.component_bound(
                block, component, ThroughputMode.LOOP) == bound


class TestRecombinedCritical:
    def test_recombined_recomputes_critical_instructions(self):
        # Precedence-bound block: idealizing Precedence leaves Ports (or
        # another component) as the bottleneck; the recombined prediction
        # must report that bottleneck's critical instructions instead of
        # silently dropping them.
        block = BasicBlock.from_asm(
            "imul rax, rbx\nimul rcx, rax\nimul rdx, r8\nimul r9, r10")
        prediction = Facile(SKL).predict(block, ThroughputMode.UNROLLED)
        for excluded in Component:
            enabled = set(Component) - {excluded}
            recombined = prediction.recombined(enabled)
            fresh = Facile(SKL, exclude={excluded}).predict(
                block, ThroughputMode.UNROLLED)
            assert recombined.critical_instruction_indices == \
                fresh.critical_instruction_indices, excluded

    def test_ports_bottleneck_recombination_reports_contenders(self):
        block = BasicBlock.from_asm(
            "imul rax, rbx\nimul rcx, rdx\nimul rsi, rdi")
        prediction = Facile(SKL).predict(block, ThroughputMode.UNROLLED)
        without_ports_bottleneck = prediction.recombined(
            set(Component) - set(prediction.bottlenecks))
        if Component.PORTS in without_ports_bottleneck.bottlenecks:
            assert without_ports_bottleneck.critical_instruction_indices


class TestPortsMemo:
    def test_identical_multisets_share_the_result(self):
        from repro.core.ports import ports_bound
        from repro.uops.blockinfo import analyze_block, macro_ops
        db = UopsDatabase(SKL)
        ops_a = macro_ops(analyze_block(
            BasicBlock.from_asm("imul rax, rbx\nadd rcx, rdx"), SKL, db),
            SKL)
        ops_b = macro_ops(analyze_block(
            BasicBlock.from_asm("imul r8, r9\nadd r10, r11"), SKL, db),
            SKL)
        # Different blocks, same canonical port multiset: one result
        # object serves both.
        assert ports_bound(ops_a) is ports_bound(ops_b)

    def test_deterministic_critical_combination(self):
        from repro.core.ports import clear_ports_memo, ports_bound
        from repro.uops.blockinfo import analyze_block, macro_ops
        db = UopsDatabase(SKL)
        ops = macro_ops(analyze_block(
            BasicBlock.from_asm("imul rax, rbx\nadd rcx, rdx\n"
                                "shl rsi, 3"), SKL, db), SKL)
        first = ports_bound(ops)
        clear_ports_memo()
        second = ports_bound(ops)
        assert first == second
