"""Serving from raw bytes: the front end never decodes a block.

The front end turns each block into bytes, answers fragment hits on
the event loop, and ships only misses to the shard, which decodes,
predicts, and serializes them.  These tests hold that path to the
object model byte for byte and pin the documented error order:

1. checks that need no decode (JSON, ``uarch``, ``mode``, block shape,
   hex/asm text, ``counterfactuals``, ``timeout_ms``);
2. admission and deadlines (429/504);
3. the lowest-index undecodable block (400);
4. a prediction failure (500), for the request that holds it only.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.bhive.categories import CATEGORIES
from repro.bhive.generator import BlockGenerator
from repro.core.components import ThroughputMode
from repro.core.model import Facile
from repro.isa.block import BasicBlock
from repro.robustness import FaultPlan, injected
from repro.service import PredictionService, json_bytes, \
    prediction_to_dict
from repro.service.serialize import error_envelope_bytes
from repro.uarch import uarch_by_name

MODES = (ThroughputMode.UNROLLED, ThroughputMode.LOOP)

#: ``vpaddd ymm0, ymm1, ymm2``: decodes, but IVB has no AVX2.
AVX2_HEX = "c5f5fec2"
#: Byte strings ``BasicBlock.from_bytes`` rejects.
UNDECODABLE = ("48", "0f", "")


def fetch(port, path, body):
    """POST *body* (a dict, or raw bytes); (status, headers, bytes)."""
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                                     data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), \
                response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, dict(exc.headers), exc.read()


def decode_error_text(hex_text):
    with pytest.raises(Exception) as error:
        BasicBlock.from_bytes(bytes.fromhex(hex_text))
    return str(error.value)


def error_message(data):
    return json.loads(data)["error"]["message"]


@pytest.fixture(scope="module")
def service():
    with PredictionService(uarch="SKL", port=0) as s:
        yield s


@pytest.fixture(scope="module")
def category_blocks():
    """Two unrolled/loop pairs of every generator category."""
    generator = BlockGenerator(1313)
    blocks = []
    for category in CATEGORIES:
        for _ in range(2):
            blocks.extend(generator.block_pair(category))
    return blocks


class TestIdentity:
    """Served bytes equal the object model's, on every path."""

    @pytest.mark.parametrize("uarch", ("SKL", "ICL"))
    def test_every_category_route_and_input_form(self, service,
                                                 category_blocks, uarch):
        model = Facile(uarch_by_name(uarch))
        # Half the blocks go through bulk requests, the rest through
        # single ones, so each route sees its own misses.
        bulk_blocks = category_blocks[0::2]
        single_blocks = category_blocks[1::2]
        for mode in MODES:
            for counterfactuals in (False, True):
                def fragment(block):
                    return json_bytes(prediction_to_dict(
                        model.predict(block, mode), block, uarch,
                        counterfactuals=counterfactuals))

                def objects(form):
                    return [{"hex": block.raw.hex()} if form == "hex"
                            else {"asm": block.text()}
                            for block in bulk_blocks]

                expected = json_bytes({
                    "mode": mode.value, "n_blocks": len(bulk_blocks),
                    "predictions": [json.loads(fragment(block))
                                    for block in bulk_blocks],
                    "uarch": uarch})
                common = {"mode": mode.value, "uarch": uarch,
                          "counterfactuals": counterfactuals}
                # Misses in one input form, then hits in the other.
                forms = (("hex", "asm") if not counterfactuals
                         else ("asm", "hex"))
                for form, hits in zip(forms, (0, len(bulk_blocks))):
                    status, _, data = fetch(
                        service.port, "/v1/predict/bulk",
                        dict(common, blocks=objects(form)))
                    assert status == 200, data
                    assert data.endswith(b',"result":' + expected + b"}")
                    assert json.loads(data)["meta"]["cache"] == {
                        "hits": hits, "misses": len(bulk_blocks) - hits}
                for block in single_blocks:
                    one = fragment(block)
                    # A miss as hex, then a hit on the same bytes as asm.
                    for form, cache in (("hex", "miss"), ("asm", "hit")):
                        text = (block.raw.hex() if form == "hex"
                                else block.text())
                        status, _, data = fetch(
                            service.port, "/v1/predict",
                            dict(common, **{form: text}))
                        assert status == 200
                        assert data.endswith(b',"result":' + one + b"}")
                        assert json.loads(data)["meta"]["cache"] == cache


class TestUndecodableBlocks:
    """One undecodable block: the same 400 the front end always gave."""

    @pytest.mark.parametrize("bad", UNDECODABLE)
    @pytest.mark.parametrize("index", (0, 2, 4))
    def test_any_index_between_hits_and_misses(self, service, bad, index):
        generator = BlockGenerator(100 + index)
        hot = [generator.block_pair(CATEGORIES[0])[0] for _ in range(2)]
        fresh = [generator.block_pair(CATEGORIES[1])[1]
                 for _ in range(2)]
        assert fetch(service.port, "/v1/predict/bulk", {
            "blocks": [{"hex": b.raw.hex()} for b in hot]})[0] == 200
        objects = [{"hex": b.raw.hex()} for b in hot + fresh]
        objects.insert(index, {"hex": bad})
        message = f"undecodable blocks[{index}]: " \
                  + decode_error_text(bad)
        status, headers, data = fetch(service.port, "/v1/predict/bulk",
                                      {"blocks": objects})
        assert status == 400
        assert data == error_envelope_bytes(
            400, message, trace=headers["X-Trace-Id"])

    @pytest.mark.parametrize("bad", UNDECODABLE)
    def test_single_predict(self, service, bad):
        message = "undecodable request: " + decode_error_text(bad)
        status, headers, data = fetch(service.port, "/v1/predict",
                                      {"hex": bad})
        assert status == 400
        assert data == error_envelope_bytes(
            400, message, trace=headers["X-Trace-Id"])


class TestErrorOrder:
    """Requests with several problems answer the first in the order."""

    def bulk(self, port, body):
        status, _, data = fetch(port, "/v1/predict/bulk", body)
        return status, error_message(data)

    def test_json_first(self, service):
        status, message = self.bulk(
            service.port, b'{"uarch": "Z80", "blocks": [{"hex": "48"}]')
        assert status == 400
        assert message.startswith("invalid JSON body")

    def test_uarch_before_mode(self, service):
        status, message = self.bulk(service.port, {
            "uarch": "Z80", "mode": "sideways",
            "blocks": [{"hex": "48"}]})
        assert status == 404
        assert message.startswith("unknown uarch 'Z80'")

    def test_mode_before_blocks(self, service):
        status, message = self.bulk(service.port, {
            "mode": "sideways", "blocks": [{"hex": "zz"}, {}]})
        assert status == 400
        assert message.startswith("unknown mode 'sideways'")

    def test_block_shape_before_undecodable(self, service):
        status, message = self.bulk(service.port, {
            "blocks": [{"hex": "48"}, {"hex": "4801d8", "asm": "nop"}]})
        assert (status, message) == (
            400, "blocks[1] needs exactly one of 'hex' or 'asm'")

    @pytest.mark.parametrize("text", ({"hex": "zz"},
                                      {"asm": "frobnicate rax"}),
                             ids=("hex", "asm"))
    def test_block_text_before_undecodable(self, service, text):
        status, message = self.bulk(service.port, {
            "blocks": [{"hex": "48"}, text]})
        assert status == 400
        assert message.startswith("undecodable blocks[1]: ")
        assert message != "undecodable blocks[1]: " \
            + decode_error_text("48")

    def test_counterfactuals_before_undecodable(self, service):
        status, message = self.bulk(service.port, {
            "blocks": [{"hex": "48"}], "counterfactuals": "yes"})
        assert (status, message) == (
            400, "'counterfactuals' must be a boolean")

    def test_timeout_ms_before_undecodable(self, service):
        status, message = self.bulk(service.port, {
            "blocks": [{"hex": "48"}], "timeout_ms": -1})
        assert (status, message) == (400, "'timeout_ms' must be > 0")

    def test_shedding_before_undecodable(self):
        with PredictionService(uarch="SKL", port=0,
                               max_queue=1) as small:
            status, message = self.bulk(small.port, {
                "blocks": [{"hex": "48"}, {"hex": "4801d8"}]})
        assert status == 429
        assert message.startswith("admission queue full")

    def test_deadline_before_undecodable(self, service):
        status, message = self.bulk(service.port, {
            "blocks": [{"hex": "48"}], "timeout_ms": 0.001})
        assert status == 504
        assert message.startswith("deadline exceeded")

    def test_lowest_undecodable_before_prediction_failure(self):
        with PredictionService(uarch="IVB", port=0) as ivb:
            status, message = self.bulk(ivb.port, {"blocks": [
                {"hex": AVX2_HEX}, {"hex": "4801d8"}, {"hex": "0f"},
                {"hex": "48"}]})
            assert (status, message) == (
                400, "undecodable blocks[2]: " + decode_error_text("0f"))
            status, message = self.bulk(ivb.port, {"blocks": [
                {"hex": "4801d8"}, {"hex": AVX2_HEX}]})
            assert (status, message) == (500, "internal error")


class TestPredictionFailureIsolation:
    #: The shard's first call sleeps, so the next requests queue up.
    BUSY_SHARD = "seed=0; slow@service.shard:0:ms=500"

    def test_unpredictable_block_fails_only_its_own_request(self):
        """Two bulk requests in one batching window: the one holding a
        block IVB cannot predict gets a 500, the other its 200."""
        block = BasicBlock.from_bytes(bytes.fromhex("4801d8"))
        mode = ThroughputMode.LOOP
        expected = json_bytes({
            "mode": mode.value, "n_blocks": 1,
            "predictions": [prediction_to_dict(
                Facile(uarch_by_name("IVB")).predict(block, mode),
                block, "IVB")],
            "uarch": "IVB"})
        with PredictionService(uarch="IVB", port=0) as ivb, \
                injected(FaultPlan.from_spec(self.BUSY_SHARD)):
            batcher = ivb.runtime("IVB").batcher  # spawns the shard
            answers = {}

            def send(hex_text):
                answers[hex_text] = fetch(ivb.port, "/v1/predict/bulk", {
                    "blocks": [{"hex": hex_text}], "mode": mode.value})

            busy = threading.Thread(target=send, args=("4829d8",))
            busy.start()
            deadline = time.monotonic() + 30
            while batcher.batches < 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            # The shard sleeps on the busy window: these two queue and
            # go out together in the next one.
            threads = [threading.Thread(target=send, args=(hex_text,))
                       for hex_text in (AVX2_HEX, "4801d8")]
            for thread in threads:
                thread.start()
            for thread in [busy] + threads:
                thread.join()
            stats = ivb.stats_payload()["uarchs"]["IVB"]["batcher"]
        assert (stats["batches"], stats["requests"],
                stats["max_batch_seen"]) == (2, 3, 2)
        assert answers["4829d8"][0] == 200
        status, headers, data = answers[AVX2_HEX]
        assert (status, data) == (500, error_envelope_bytes(
            500, "internal error", trace=headers["X-Trace-Id"]))
        status, _, data = answers["4801d8"]
        assert status == 200
        assert data.endswith(b',"result":' + expected + b"}")


class TestWarm:
    def test_corpus_larger_than_the_admission_queue(self):
        """Warm-up goes through the batcher in slices the admission
        queue takes whole, then every block answers from the fragment
        cache."""
        hexes = ["4801d8", "4829d8", "4831d8", "4809d8", "4821d8"]
        with PredictionService(uarch="SKL", port=0,
                               max_queue=2) as small:
            assert small.warm(hexes) == len(hexes) * len(MODES)
            for hex_text in hexes:
                for mode in MODES:
                    status, _, data = fetch(small.port, "/v1/predict", {
                        "hex": hex_text, "mode": mode.value})
                    assert status == 200
                    assert json.loads(data)["meta"]["cache"] == "hit"
