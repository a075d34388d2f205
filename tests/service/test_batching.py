"""MicroBatcher and bounded-LRU cache property tests.

The batching queue must be invisible in results: whatever the window
sizes and however many threads submit, the predictions are exactly the
serial ``Engine.predict_many`` output.
"""

import threading

import pytest

from repro.bhive.suite import BenchmarkSuite
from repro.core.components import ThroughputMode
from repro.engine import AnalysisCache, Engine, MicroBatcher
from repro.isa.block import BasicBlock
from repro.uarch import uarch_by_name
from repro.uops.database import UopsDatabase

SKL = uarch_by_name("SKL")


@pytest.fixture(scope="module")
def suite():
    return BenchmarkSuite.generate(16, seed=123)


class TestMicroBatcher:
    def test_bulk_matches_serial_engine(self, suite):
        blocks = [b.block_l for b in suite]
        serial = Engine(SKL).predict_many(blocks, ThroughputMode.LOOP)
        with MicroBatcher(Engine(SKL), max_batch=4,
                          max_wait_ms=1.0) as batcher:
            batched = batcher.predict_many(blocks, ThroughputMode.LOOP)
        assert batched == serial

    def test_concurrent_submitters_match_serial(self, suite):
        blocks = [b.block_u for b in suite]
        serial = Engine(SKL).predict_many(blocks,
                                          ThroughputMode.UNROLLED)
        with MicroBatcher(Engine(SKL), max_batch=8,
                          max_wait_ms=2.0) as batcher:
            results = [None] * len(blocks)

            def submit(index):
                results[index] = batcher.predict(
                    blocks[index], ThroughputMode.UNROLLED)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(len(blocks))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert results == serial

    def test_mixed_modes_in_one_window(self, suite):
        # Both modes submitted back-to-back: the dispatcher groups by
        # mode inside a window, so results must match per-mode serial
        # runs even when a window carries both.
        blocks = [b.block_l for b in suite]
        serial = {mode: Engine(SKL).predict_many(blocks, mode)
                  for mode in (ThroughputMode.UNROLLED,
                               ThroughputMode.LOOP)}
        with MicroBatcher(Engine(SKL), max_batch=64,
                          max_wait_ms=20.0) as batcher:
            futures = [(mode, index,
                        batcher.submit(blocks[index], mode))
                       for index in range(len(blocks))
                       for mode in (ThroughputMode.UNROLLED,
                                    ThroughputMode.LOOP)]
            for mode, index, future in futures:
                assert future.result(timeout=30) == serial[mode][index]

    def test_stats_account_for_all_requests(self, suite):
        blocks = [b.block_l for b in suite]
        with MicroBatcher(Engine(SKL), max_batch=4,
                          max_wait_ms=0.0) as batcher:
            batcher.predict_many(blocks, ThroughputMode.LOOP)
            stats = batcher.stats()
        assert stats["requests"] == len(blocks)
        assert batcher.batched_requests == len(blocks)
        assert 1 <= stats["max_batch_seen"] <= 4
        assert stats["batches"] >= len(blocks) / 4
        assert stats["mean_batch_size"] > 0

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(Engine(SKL))
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(BasicBlock.from_asm("nop"),
                           ThroughputMode.LOOP)

    def test_invalid_window_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(Engine(SKL), max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(Engine(SKL), max_wait_ms=-1.0)


class TestCacheLRUBound:
    def blocks(self, n):
        return [BasicBlock.from_asm(f"add rax, {17 + i}")
                for i in range(n)]

    def test_eviction_counts_and_size_bound(self):
        cache = AnalysisCache(UopsDatabase(SKL), max_blocks=4)
        for block in self.blocks(10):
            cache.analysis(block)
        assert len(cache) == 4
        assert cache.evictions == 6
        assert cache.stats()["evictions"] == 6
        assert cache.stats()["size"] == 4

    def test_hit_refreshes_recency(self):
        cache = AnalysisCache(UopsDatabase(SKL), max_blocks=2)
        first, second, third = self.blocks(3)
        cache.analysis(first)
        cache.analysis(second)
        cache.analysis(first)   # refresh: `second` is now the LRU entry
        cache.analysis(third)   # evicts `second`, not `first`
        hits = cache.hits
        cache.analysis(first)
        assert cache.hits == hits + 1  # still resident
        misses = cache.misses
        cache.analysis(second)
        assert cache.misses == misses + 1  # was evicted

    def test_stats_payload_shape(self):
        cache = AnalysisCache(UopsDatabase(SKL), max_blocks=8)
        block, = self.blocks(1)
        cache.analysis(block)
        cache.analysis(block)
        stats = cache.stats()
        assert stats == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1,
            "max_blocks": 8, "hit_rate": 0.5,
        }

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            AnalysisCache(UopsDatabase(SKL), max_blocks=0)
