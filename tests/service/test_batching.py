"""MicroBatcher and bounded-LRU cache property tests.

The batching queue must be invisible in results: whatever the window
sizes and however many threads submit, a shard's answers are exactly
what :func:`~repro.service.shard.predict_fragments` returns run
serially on a fresh core.  A window is the backlog: a request that
finds the dispatcher idle goes out at once, and requests queued while
the backend works go out together in its next call.
"""

import threading

import pytest

from repro.bhive.suite import BenchmarkSuite
from repro.core.components import ThroughputMode
from repro.engine import AnalysisCache, MicroBatcher
from repro.engine.columnar import ColumnarCore
from repro.isa.block import BasicBlock
from repro.service.shard import LocalShard, predict_fragments
from repro.uarch import uarch_by_name
from repro.uops.database import UopsDatabase

SKL = uarch_by_name("SKL")


@pytest.fixture(scope="module")
def suite():
    return BenchmarkSuite.generate(16, seed=123)


def payloads(blocks):
    """Shard payloads of *blocks*: (raw bytes, no counterfactuals)."""
    return [(block.raw, False) for block in blocks]


def serial(requests, mode):
    """The reference: :func:`predict_fragments` on a fresh core."""
    return predict_fragments(ColumnarCore(SKL), requests, mode)


class TestMicroBatcher:
    def test_bulk_matches_serial_engine(self, suite):
        requests = payloads(b.block_l for b in suite)
        expected = serial(requests, ThroughputMode.LOOP)
        with MicroBatcher(LocalShard("SKL"), max_batch=4) as batcher:
            batched = batcher.predict_many(requests, ThroughputMode.LOOP)
        assert batched == expected

    def test_concurrent_submitters_match_serial(self, suite):
        requests = payloads(b.block_u for b in suite)
        expected = serial(requests, ThroughputMode.UNROLLED)
        with MicroBatcher(LocalShard("SKL"), max_batch=8) as batcher:
            results = [None] * len(requests)

            def submit(index):
                results[index] = batcher.submit(
                    requests[index],
                    ThroughputMode.UNROLLED).result(timeout=30)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(len(requests))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert results == expected

    def test_mixed_modes_in_one_window(self, suite):
        # Both modes submitted back-to-back: the dispatcher groups by
        # mode inside a window, so results must match per-mode serial
        # runs even when a window carries both.
        requests = payloads(b.block_l for b in suite)
        expected = {mode: serial(requests, mode)
                    for mode in (ThroughputMode.UNROLLED,
                                 ThroughputMode.LOOP)}
        with MicroBatcher(LocalShard("SKL"), max_batch=64) as batcher:
            futures = [(mode, index,
                        batcher.submit(requests[index], mode))
                       for index in range(len(requests))
                       for mode in (ThroughputMode.UNROLLED,
                                    ThroughputMode.LOOP)]
            for mode, index, future in futures:
                assert future.result(timeout=30) \
                    == expected[mode][index]

    def test_stats_account_for_all_requests(self, suite):
        requests = payloads(b.block_l for b in suite)
        with MicroBatcher(LocalShard("SKL"), max_batch=4) as batcher:
            batcher.predict_many(requests, ThroughputMode.LOOP)
            stats = batcher.stats()
        assert stats["requests"] == len(requests)
        assert batcher.batched_requests == len(requests)
        assert 1 <= stats["max_batch_seen"] <= 4
        assert stats["batches"] >= len(requests) / 4
        assert stats["mean_batch_size"] > 0

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(LocalShard("SKL"))
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit((b"\x90", False), ThroughputMode.LOOP)

    def test_invalid_window_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(LocalShard("SKL"), max_batch=0)
        with pytest.raises(TypeError):  # no batching timer to set
            MicroBatcher(LocalShard("SKL"), max_wait_ms=-1.0)


class GatedBackend:
    """Answers each payload with itself; every call blocks until the
    test opens the gate, so submits pile up behind it."""

    def __init__(self):
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.calls = []
        self.traces = []

    def predict_many(self, payloads, mode, traces):
        self.calls.append(list(payloads))
        self.traces.append(list(traces))
        self.entered.set()
        assert self.gate.wait(timeout=30)
        return list(payloads)


class TestBacklogWindows:
    def test_backlog_goes_out_together_in_the_next_window(self):
        backend = GatedBackend()
        first, second, third = object(), object(), object()
        with MicroBatcher(backend) as batcher:
            futures = [batcher.submit(first, ThroughputMode.LOOP,
                                      trace="t1")]
            # Dispatched alone: nothing else was queued.
            assert backend.entered.wait(timeout=30)
            futures += [batcher.submit(payload, ThroughputMode.LOOP,
                                       trace=trace)
                        for payload, trace in ((second, "t2"),
                                               (third, None))]
            assert batcher.queue_depth == 2
            backend.gate.set()
            results = [future.result(timeout=30) for future in futures]
        # The submitted objects reach the backend as they are (plain
        # objects compare by identity), each with its trace id.
        assert backend.calls == [[first], [second, third]]
        assert backend.traces == [["t1"], ["t2", None]]
        assert results == [first, second, third]
        assert (batcher.batches, batcher.max_batch_seen) == (2, 2)

    def test_max_batch_caps_a_backlog_window(self):
        backend = GatedBackend()
        with MicroBatcher(backend, max_batch=2) as batcher:
            futures = [batcher.submit(0, ThroughputMode.LOOP)]
            assert backend.entered.wait(timeout=30)
            futures += batcher.submit_many([1, 2, 3],
                                           ThroughputMode.LOOP)
            backend.gate.set()
            assert [future.result(timeout=30)
                    for future in futures] == [0, 1, 2, 3]
        assert backend.calls == [[0], [1, 2], [3]]
        assert (batcher.batches, batcher.max_batch_seen) == (3, 2)


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
