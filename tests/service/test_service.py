"""End-to-end service tests over a real socket.

The acceptance property of the service layer: responses are
*byte-identical* to serializing the predictions of a serial
``Engine.predict_many`` over the same blocks — concurrency and
micro-batching change latency, never payloads — and ``/v1/stats``
reports cache and batching statistics that reflect the traffic served.
"""

import json
import socket
import threading

import pytest

from repro.bhive.suite import BenchmarkSuite
from repro.core.components import ThroughputMode
from repro.core.model import Facile
from repro.engine.engine import Engine
from repro.service import PredictionService, ServiceClient, ServiceError, \
    json_bytes, prediction_to_dict
from repro.service.server import MAX_HEADER_COUNT
from repro.uarch import uarch_by_name

SKL = uarch_by_name("SKL")

#: Concurrent bulk-predict clients of the acceptance test.
N_CLIENTS = 32


@pytest.fixture(scope="module")
def service():
    with PredictionService(uarch="SKL", port=0, max_batch=16) as running:
        yield running


@pytest.fixture()
def client(service):
    return ServiceClient(port=service.port)


@pytest.fixture(scope="module")
def suite():
    return BenchmarkSuite.generate(20, seed=99)


def expected_bulk_bytes(suite, mode: ThroughputMode) -> bytes:
    """What a serial engine pass serializes to (the golden response)."""
    blocks = [b.block(mode is ThroughputMode.LOOP) for b in suite]
    predictions = Engine(SKL).predict_many(blocks, mode)
    return json_bytes({
        "uarch": "SKL",
        "mode": mode.value,
        "n_blocks": len(blocks),
        "predictions": [
            prediction_to_dict(prediction, block, "SKL")
            for prediction, block in zip(predictions, blocks)
        ],
    })


class TestEndpoints:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["default_uarch"] == "SKL"
        assert "SKL" in health["uarchs_available"]

    def test_predict_matches_model(self, client):
        response = client.predict({"asm": "imul rax, rbx\nadd rax, rcx"},
                                  mode="unrolled")
        from repro.isa.block import BasicBlock
        block = BasicBlock.from_asm("imul rax, rbx\nadd rax, rcx")
        prediction = Facile(SKL).predict(block,
                                         ThroughputMode.UNROLLED)
        assert response["cycles"] == prediction.cycles
        assert response["bottlenecks"] == [c.value for c in
                                           prediction.bottlenecks]
        assert response["block"]["hex"] == block.raw.hex()

    def test_predict_other_uarch(self, client):
        from repro.isa.block import BasicBlock
        response = client.predict("4801d8", mode="loop", uarch="RKL")
        block = BasicBlock.from_bytes(bytes.fromhex("4801d8"))
        prediction = Facile(uarch_by_name("RKL")).predict(
            block, ThroughputMode.LOOP)
        assert response["uarch"] == "RKL"
        assert response["cycles"] == prediction.cycles

    def test_predict_counterfactuals(self, client):
        response = client.predict("4801d8", counterfactuals=True)
        assert "counterfactual_speedups" in response
        assert all(v >= 1.0
                   for v in response["counterfactual_speedups"].values())

    def test_bulk_round_trip(self, client, suite):
        hexes = [b.block_l.raw.hex() for b in suite]
        response = client.predict_bulk(hexes, mode="loop")
        assert response["n_blocks"] == len(hexes)
        assert [p["block"]["hex"] for p in response["predictions"]] \
            == hexes

    def test_compare(self, client):
        response = client.compare("4801d8", mode="loop",
                                  predictors=["Facile", "uiCA"])
        assert set(response["predictions"]) == {"Facile", "uiCA"}
        assert all(v > 0 for v in response["predictions"].values())

    def test_stats_reports_cache_and_batcher(self, client, suite):
        hexes = [b.block_l.raw.hex() for b in suite]
        client.predict_bulk(hexes, mode="loop")
        # The repeat is served from the response-fragment cache on the
        # event loop; the counterfactual request has a different
        # fragment key, so it reaches the shard again and hits the
        # worker core's raw-bytes table instead.
        client.predict_bulk(hexes, mode="loop")
        client.predict(hexes[0], mode="loop", counterfactuals=True)
        stats = client.stats()
        skl = stats["uarchs"]["SKL"]
        assert skl["cache"]["raw_hits"] > 0
        assert skl["cache"]["entries"] >= 1
        assert skl["response_cache"]["hits"] >= len(hexes)
        assert skl["batcher"]["requests"] >= len(hexes)
        assert skl["batcher"]["batches"] >= 1
        assert stats["requests"]["total"] > 0
        assert "/v1/predict/bulk" in stats["requests"]["by_endpoint"]


class TestConcurrentDeterminism:
    @pytest.mark.parametrize("mode", (ThroughputMode.UNROLLED,
                                      ThroughputMode.LOOP),
                             ids=lambda m: m.value)
    def test_32_concurrent_bulk_clients_byte_identical(self, service,
                                                       suite, mode):
        # The headline acceptance criterion: >= 32 concurrent bulk
        # clients, every response byte-identical to the serial engine.
        golden = expected_bulk_bytes(suite, mode)
        loop = mode is ThroughputMode.LOOP
        body = {"blocks": [{"hex": b.block(loop).raw.hex()}
                           for b in suite],
                "mode": mode.value}
        responses = [None] * N_CLIENTS
        errors = []

        def hit(index):
            try:
                responses[index] = ServiceClient(
                    port=service.port).request_raw("/v1/predict/bulk",
                                                   body)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=hit, args=(i,))
                   for i in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(raw.endswith(b',"result":' + golden + b"}")
                   for raw in responses)

    def test_interleaved_modes_and_sizes(self, service, suite):
        # Mixed traffic: different modes and shard sizes in flight at
        # once; every response must still match its serial golden bytes.
        goldens = {}
        bodies = {}
        for mode in (ThroughputMode.UNROLLED, ThroughputMode.LOOP):
            loop = mode is ThroughputMode.LOOP
            goldens[mode] = expected_bulk_bytes(suite, mode)
            bodies[mode] = {"blocks": [{"hex": b.block(loop).raw.hex()}
                                       for b in suite],
                            "mode": mode.value}
        results = []
        lock = threading.Lock()

        def hit(mode):
            raw = ServiceClient(port=service.port).request_raw(
                "/v1/predict/bulk", bodies[mode])
            with lock:
                results.append((mode, raw))

        threads = [threading.Thread(
            target=hit,
            args=((ThroughputMode.LOOP if i % 2 else
                   ThroughputMode.UNROLLED),))
            for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 8
        for mode, raw in results:
            assert raw.endswith(b',"result":' + goldens[mode] + b"}")


class TestMalformedRequests:
    def test_invalid_json(self, service):
        # Raw POST with a body that is not JSON at all.
        import urllib.error
        import urllib.request
        request = urllib.request.Request(
            f"http://127.0.0.1:{service.port}/v1/predict",
            data=b"not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as httperr:
            urllib.request.urlopen(request, timeout=10)
        httperr.value.close()
        assert httperr.value.code == 400

    def test_empty_body(self, client):
        with pytest.raises(ServiceError) as exc:
            client.request("/v1/predict", {})
        assert exc.value.status == 400

    def test_both_hex_and_asm(self, client):
        with pytest.raises(ServiceError) as exc:
            client.request("/v1/predict", {"hex": "4801d8",
                                           "asm": "nop"})
        assert exc.value.status == 400
        assert "exactly one" in exc.value.message

    def test_undecodable_hex(self, client):
        with pytest.raises(ServiceError) as exc:
            client.predict("zz")
        assert exc.value.status == 400

    def test_unknown_mode(self, client):
        with pytest.raises(ServiceError) as exc:
            client.predict("4801d8", mode="sideways")
        assert exc.value.status == 400

    def test_unknown_uarch_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.predict("4801d8", uarch="Z80")
        assert exc.value.status == 404

    def test_unknown_predictor_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.compare("4801d8", predictors=["gcc"])
        assert exc.value.status == 404

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.request("/nope")
        assert exc.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as exc:
            client.request("/v1/predict")  # GET on a POST route
        assert exc.value.status == 405
        with pytest.raises(ServiceError) as exc:
            client.request("/v1/health", {"hex": "90"})  # POST on GET
        assert exc.value.status == 405

    def test_bulk_rejects_non_array(self, client):
        with pytest.raises(ServiceError) as exc:
            client.request("/v1/predict/bulk", {"blocks": "4801d8"})
        assert exc.value.status == 400

    def test_invalid_window_parameters_fail_at_construction(self):
        # Runtimes are built lazily; bad window parameters must not be
        # deferred to the first request (which would 500 forever).
        with pytest.raises(ValueError):
            PredictionService(uarch="SKL", port=0, max_batch=0)
        with pytest.raises(TypeError):  # no batching timer to set
            PredictionService(uarch="SKL", port=0, max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            PredictionService(uarch="SKL", port=0, max_bulk=0)
        with pytest.raises(KeyError):
            PredictionService(uarch="Z80", port=0)

    def test_bulk_over_limit_is_413(self):
        with PredictionService(uarch="SKL", port=0,
                               max_bulk=2) as tiny:
            with pytest.raises(ServiceError) as exc:
                ServiceClient(port=tiny.port).predict_bulk(
                    ["90", "90", "90"])
            assert exc.value.status == 413

    def test_error_counted_in_stats(self, client):
        before = client.stats()["requests"]["errors"]
        with pytest.raises(ServiceError):
            client.request("/nope")
        assert client.stats()["requests"]["errors"] == before + 1

    def test_unknown_paths_fold_into_one_counter(self, client):
        # Client-chosen URLs must not grow the stats dict unboundedly.
        for path in ("/scan-a", "/scan-b", "/scan-c"):
            with pytest.raises(ServiceError):
                client.request(path)
        by_endpoint = client.stats()["requests"]["by_endpoint"]
        assert "unknown" in by_endpoint
        assert "/scan-a" not in by_endpoint

    def test_keepalive_survives_error_with_unread_body(self, service):
        # A 404/405 response may be sent before the request body was
        # read; the server must close that connection instead of
        # letting the unread bytes be parsed as the next request line.
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=10)
        try:
            body = json.dumps({"hex": "4801d8"})
            conn.request("POST", "/nope", body=body,
                         headers={"Content-Type": "application/json"})
            first = conn.getresponse()
            assert first.status == 404
            first.read()
            # http.client reconnects transparently after the server's
            # Connection: close; the follow-up must be a clean 200,
            # not a garbled request line.
            conn.request("POST", "/v1/predict", body=body,
                         headers={"Content-Type": "application/json"})
            second = conn.getresponse()
            assert second.status == 200
            payload = json.loads(second.read())
            assert payload["result"]["block"]["hex"] == "4801d8"
        finally:
            conn.close()

    @staticmethod
    def raw_exchange(port, request: bytes):
        """Send *request* bytes; (status, headers, body) of the answer."""
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            sock.sendall(request)
            response = b""
            while True:
                try:
                    chunk = sock.recv(65536)
                except ConnectionResetError:  # closed with bytes unread
                    break
                if not chunk:
                    break
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in header_lines)
        return int(status_line.split()[1]), headers, body

    def assert_bad_request(self, answer, message):
        status, headers, body = answer
        assert status == 400
        assert json.loads(body) == {
            "error": {"code": "bad_request", "message": message},
            "meta": {"api_version": "v1", "uarch": None, "mode": None,
                     "cache": None, "timing_ms": None,
                     "trace": headers["X-Trace-Id"]},
            "result": None}

    def test_malformed_request_line_gets_the_envelope(self, service):
        self.assert_bad_request(
            self.raw_exchange(service.port, b"GARBAGE\r\n\r\n"),
            "malformed request line")

    def test_header_bound_counts_repeated_lines(self, service):
        def health(lines):
            return self.raw_exchange(
                service.port, b"GET /v1/health HTTP/1.1\r\n"
                + b"Connection: close\r\n" * lines + b"\r\n")

        assert health(MAX_HEADER_COUNT)[0] == 200
        self.assert_bad_request(health(MAX_HEADER_COUNT + 1),
                                "too many headers")
