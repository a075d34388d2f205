"""The per-µarch worker-process shard (``service/shard.py``).

The acceptance properties: a shard answers each ``(raw bytes,
counterfactuals)`` payload with exactly the bytes of serializing the
object model's prediction, tells undecodable blocks from unpredictable
ones per payload, and keeps those bytes when an injected worker kill
forces a respawn or a failed respawn forces the in-process fallback.
"""

import weakref

import pytest

from repro.bhive.suite import BenchmarkSuite
from repro.core.components import ThroughputMode
from repro.core.model import Facile
from repro.isa.block import BasicBlock
from repro.robustness import FaultPlan, injected
from repro.service import ShardEngine
from repro.service.serialize import json_bytes, prediction_to_dict
from repro.service.shard import LocalShard, PredictionFailed, \
    ShardCrash, UndecodableBlock
from repro.uarch import uarch_by_name

SKL = uarch_by_name("SKL")

#: ``vpaddd ymm0, ymm1, ymm2``: decodes everywhere, but IVB has no AVX2.
AVX2_HEX = "c5f5fec2"


@pytest.fixture(scope="module")
def blocks():
    return [b.block_l for b in BenchmarkSuite.generate(6, seed=17)]


def golden(blocks, mode, counterfactuals=False, uarch="SKL"):
    model = Facile(uarch_by_name(uarch))
    return [json_bytes(prediction_to_dict(
        model.predict(block, mode), block, uarch,
        counterfactuals=counterfactuals)) for block in blocks]


def payloads(blocks, counterfactuals=False):
    return [(block.raw, counterfactuals) for block in blocks]


class TestByteIdentity:
    @pytest.mark.parametrize("mode", (ThroughputMode.UNROLLED,
                                      ThroughputMode.LOOP),
                             ids=lambda m: m.value)
    def test_shard_matches_in_process_engine(self, blocks, mode):
        with ShardEngine("SKL") as shard:
            served = shard.predict_many(payloads(blocks), mode)
            with_cf = shard.predict_many(payloads(blocks, True), mode)
        assert served == golden(blocks, mode)
        assert with_cf == golden(blocks, mode, counterfactuals=True)
        assert LocalShard("SKL").predict_many(payloads(blocks), mode) \
            == served

    def test_stats_round_trip(self, blocks):
        with ShardEngine("SKL") as shard:
            shard.predict_many(payloads(blocks), ThroughputMode.LOOP)
            first = shard.stats()
            shard.predict_many(payloads(blocks), ThroughputMode.LOOP)
            stats = shard.stats()
            assert set(stats) == {"entries", "templates", "sig_hits",
                                  "misses"}
            # The repeat compiles nothing: each block is a signature hit.
            assert stats["misses"] == first["misses"]
            assert stats["sig_hits"] - first["sig_hits"] == len(blocks)
            assert stats["entries"] >= 1
            assert shard.alive


class TestPerPayloadResults:
    def test_failures_are_classified_per_payload(self):
        good = BasicBlock.from_bytes(bytes.fromhex("4801d8"))
        with pytest.raises(Exception) as decode_error:
            BasicBlock.from_bytes(bytes.fromhex("48"))
        with ShardEngine("IVB") as shard:
            results = shard.predict_many(
                [(bytes.fromhex("48"), False),
                 (bytes.fromhex(AVX2_HEX), False),
                 (good.raw, False)], ThroughputMode.LOOP)
        undecodable, unpredictable, fragment = results
        assert isinstance(undecodable, UndecodableBlock)
        assert str(undecodable) == str(decode_error.value)
        assert isinstance(unpredictable, PredictionFailed)
        assert fragment == golden([good], ThroughputMode.LOOP,
                                  uarch="IVB")[0]

    def test_replayed_failures_do_not_pin_windows(self):
        # The core caches both failures and raises them again on every
        # lookup; each served window must still be freed once dropped.
        shard = LocalShard("IVB")
        window = [(b"", False), (bytes.fromhex(AVX2_HEX), False),
                  (bytes.fromhex("4801d8"), False)] * 64
        for _ in range(20):
            results = shard.predict_many(window, ThroughputMode.LOOP)
            assert isinstance(results[0], UndecodableBlock)
            assert isinstance(results[1], PredictionFailed)
            freed = [weakref.ref(results[0]), weakref.ref(results[1])]
            del results
            assert [ref() for ref in freed] == [None, None]


class TestCrashRecovery:
    def test_worker_kill_respawns_and_matches(self, blocks):
        expected = golden(blocks, ThroughputMode.LOOP)
        plan = FaultPlan.from_spec("seed=0; worker_kill@service.shard:0")
        with ShardEngine("SKL") as shard:
            with injected(plan):
                served = shard.predict_many(payloads(blocks),
                                            ThroughputMode.LOOP)
            assert shard.respawns == 1
            assert shard.fallback_used == 0
            assert shard.alive
            # The respawned worker keeps serving.
            again = shard.predict_many(payloads(blocks),
                                       ThroughputMode.LOOP)
        assert served == expected
        assert again == expected

    def test_failed_respawn_falls_back_in_process(self, blocks,
                                                  monkeypatch):
        expected = golden(blocks, ThroughputMode.UNROLLED)
        with ShardEngine("SKL") as shard:
            def crash(*args, **kwargs):
                raise ShardCrash("simulated")

            monkeypatch.setattr(shard, "_roundtrip", crash)
            served = shard.predict_many(payloads(blocks),
                                        ThroughputMode.UNROLLED)
            assert shard.respawns == 1
            assert shard.fallback_used == len(blocks)
        assert served == expected


class TestLifecycle:
    def test_close_is_idempotent(self):
        shard = ShardEngine("SKL")
        assert shard.alive
        shard.close()
        shard.close()
        assert not shard.alive
        assert shard.stats() == {}
        with pytest.raises(RuntimeError):
            shard.predict_many([], ThroughputMode.LOOP)
