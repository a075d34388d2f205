"""Zero/one-block edge cases of the batch layer.

Empty batches appear naturally at the boundaries (a filtered-out suite,
a discovery campaign with nothing interesting, a service bulk request
with an empty block list) and must return cleanly without spinning up
pools or dispatch windows.
"""

from repro.core.components import ThroughputMode
from repro.engine.batching import MicroBatcher
from repro.engine.engine import Engine, measure_many
from repro.isa.block import BasicBlock
from repro.uarch import uarch_by_name


def _block():
    return BasicBlock.from_asm("add rax, rbx")


class TestEngineEmptyBatches:
    def test_serial_predict_many_empty(self):
        with Engine(uarch_by_name("SKL")) as engine:
            assert engine.predict_many([], ThroughputMode.UNROLLED) == []

    def test_parallel_predict_many_empty_spawns_no_pool(self):
        with Engine(uarch_by_name("SKL"), n_workers=2) as engine:
            assert engine.predict_many([], ThroughputMode.LOOP) == []
            assert engine._pool is None  # guard short-circuits the pool

    def test_single_block_batch(self):
        with Engine(uarch_by_name("SKL"), n_workers=2) as engine:
            predictions = engine.predict_many(
                [_block()], ThroughputMode.UNROLLED)
        assert len(predictions) == 1
        assert predictions[0].cycles > 0

    def test_measure_many_empty(self):
        assert measure_many(uarch_by_name("SKL"), [],
                            ThroughputMode.UNROLLED, n_workers=2) == []

    def test_measure_many_empty_generator(self):
        # Non-list sequences must be materialized before the guard.
        assert measure_many(uarch_by_name("SKL"), iter([]),
                            ThroughputMode.LOOP, n_workers=0) == []


class TestMicroBatcherEmptyWindows:
    def test_close_without_traffic(self):
        with Engine(uarch_by_name("SKL")) as engine:
            batcher = MicroBatcher(engine)
            batcher.close()
            assert batcher.batches == 0
            assert batcher.stats()["requests"] == 0

    def test_bulk_empty_request(self):
        with Engine(uarch_by_name("SKL")) as engine:
            with MicroBatcher(engine) as batcher:
                assert batcher.predict_many(
                    [], ThroughputMode.UNROLLED) == []

    def test_empty_window_dispatch_is_a_noop(self):
        with Engine(uarch_by_name("SKL")) as engine:
            with MicroBatcher(engine) as batcher:
                batcher._dispatch([])  # a window that closed empty
                assert batcher.batches == 0
                # and the batcher still works afterwards
                prediction = batcher.predict(
                    _block(), ThroughputMode.UNROLLED, timeout=30)
                assert prediction.cycles > 0
