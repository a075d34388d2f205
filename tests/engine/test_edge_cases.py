"""Zero/one-block edge cases of the batch layer.

Empty batches appear naturally at the boundaries (a filtered-out suite,
a discovery campaign with nothing interesting, a service bulk request
with an empty block list) and must return cleanly without spinning up
measurement pools or dispatch windows.
"""

import json

from repro.core.components import ThroughputMode
from repro.engine.batching import MicroBatcher
from repro.engine.columnar import ColumnarCore
from repro.isa.block import BasicBlock
from repro.service.shard import LocalShard
from repro.sim.measure import measure_many
from repro.uarch import uarch_by_name


def _block():
    return BasicBlock.from_asm("add rax, rbx")


class TestEngineEmptyBatches:
    def test_serial_predict_many_empty(self):
        core = ColumnarCore(uarch_by_name("SKL"))
        assert core.predict_many([], ThroughputMode.UNROLLED) == []

    def test_single_block_batch(self):
        predictions = ColumnarCore(uarch_by_name("SKL")).predict_many(
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
        batcher = MicroBatcher(LocalShard("SKL"))
        batcher.close()
        assert batcher.batches == 0
        assert batcher.stats()["requests"] == 0

    def test_bulk_empty_request(self):
        with MicroBatcher(LocalShard("SKL")) as batcher:
            assert batcher.predict_many(
                [], ThroughputMode.UNROLLED) == []

    def test_empty_window_dispatch_is_a_noop(self):
        with MicroBatcher(LocalShard("SKL")) as batcher:
            batcher._dispatch([])  # a window that closed empty
            assert batcher.batches == 0
            # and the batcher still works afterwards
            fragment = batcher.submit(
                (_block().raw, False),
                ThroughputMode.UNROLLED).result(timeout=30)
            assert json.loads(fragment)["cycles"] > 0
