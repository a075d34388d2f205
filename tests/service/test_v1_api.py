"""The v1 API: envelope, error schema, client.

Three layers of contract:

* **byte-level** — the envelope/bulk assembly helpers splice
  pre-serialized fragments yet produce exactly the bytes
  :func:`json_bytes` would for the equivalent full dict;
* **wire-level** — every response shares one envelope and one
  structured error vocabulary, and only ``/v1/`` paths are served;
* **client-level** — :class:`ServiceClient` serves typed results that
  still act like the raw dicts.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.components import ThroughputMode
from repro.core.model import Facile
from repro.isa.block import BasicBlock
from repro.service import (
    API_VERSION,
    ERROR_CODES,
    PredictionService,
    PredictionResult,
    ServiceClient,
    ServiceError,
    json_bytes,
    prediction_to_dict,
)
from repro.service.serialize import (
    envelope_bytes,
    error_envelope_bytes,
    meta_dict,
)
from repro.service.server import ROUTES, bulk_result_bytes
from repro.uarch import uarch_by_name

SKL = uarch_by_name("SKL")
HEX = "4801d8"


@pytest.fixture(scope="module")
def service():
    with PredictionService(uarch="SKL", port=0) as s:
        yield s


@pytest.fixture()
def client(service):
    return ServiceClient(port=service.port)


def fetch(service, path, body=None):
    """One raw request; returns (status, headers, bytes)."""
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{service.port}{path}", data=data,
        method="POST" if data else "GET")
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


class TestByteAssembly:
    def test_envelope_bytes_match_full_json(self):
        result = {"cycles": 1.25, "uarch": "SKL"}
        meta = meta_dict(uarch="SKL", mode="loop", cache="hit",
                         timing_ms=0.123)
        assert envelope_bytes(json_bytes(result), meta) == json_bytes(
            {"error": None, "meta": meta, "result": result})

    def test_bulk_result_bytes_match_full_json(self):
        block = BasicBlock.from_bytes(bytes.fromhex(HEX))
        prediction = Facile(SKL).predict(block, ThroughputMode.LOOP)
        entry = prediction_to_dict(prediction, block, "SKL")
        fragments = [json_bytes(entry)] * 3
        assert bulk_result_bytes("SKL", "loop", fragments) == json_bytes(
            {"uarch": "SKL", "mode": "loop", "n_blocks": 3,
             "predictions": [entry] * 3})

    def test_error_envelope_schema(self):
        payload = json.loads(error_envelope_bytes(429, "shed",
                                                  retry_after_ms=12.3456))
        assert payload["result"] is None
        assert payload["meta"]["api_version"] == API_VERSION
        assert payload["error"] == {"code": "overloaded",
                                    "message": "shed",
                                    "retry_after_ms": 12.346}
        # Unknown statuses never leak a numeric code.
        fallback = json.loads(error_envelope_bytes(418, "teapot"))
        assert fallback["error"]["code"] == "internal"
        assert "retry_after_ms" not in fallback["error"]

    def test_meta_dict_always_carries_every_key(self):
        assert set(meta_dict()) == {"api_version", "uarch", "mode",
                                    "cache", "timing_ms", "trace"}


class TestV1Envelope:
    def test_predict_envelope(self, service):
        status, _, raw = fetch(service, "/v1/predict",
                               {"hex": HEX, "mode": "loop"})
        assert status == 200
        payload = json.loads(raw)
        assert set(payload) == {"error", "meta", "result"}
        assert payload["error"] is None
        meta = payload["meta"]
        assert meta["api_version"] == API_VERSION
        assert meta["uarch"] == "SKL"
        assert meta["mode"] == "loop"
        assert meta["cache"] in ("hit", "miss")
        assert meta["timing_ms"] >= 0
        assert payload["result"]["block"]["hex"] == HEX

    def test_predict_bytes_match_direct_serialization(self, service):
        block = BasicBlock.from_bytes(bytes.fromhex(HEX))
        prediction = Facile(SKL).predict(block, ThroughputMode.LOOP)
        _, _, raw = fetch(service, "/v1/predict",
                          {"hex": HEX, "mode": "loop"})
        assert raw.endswith(b',"result":' + json_bytes(prediction_to_dict(
            block=block, prediction=prediction, uarch="SKL")) + b"}")

    def test_bulk_envelope_reports_cache_split(self, service):
        body = {"blocks": [{"hex": HEX}, {"hex": "90"}], "mode": "loop"}
        fetch(service, "/v1/predict/bulk", body)  # warm the fragments
        status, _, raw = fetch(service, "/v1/predict/bulk", body)
        assert status == 200
        meta = json.loads(raw)["meta"]
        assert meta["cache"] == {"hits": 2, "misses": 0}

    def test_health_advertises_api_versions(self, service):
        status, _, raw = fetch(service, "/v1/health")
        assert status == 200
        result = json.loads(raw)["result"]
        assert result["api_versions"] == [API_VERSION]


class TestUnversionedPaths:
    def test_routes_are_all_v1(self):
        assert all(path.startswith("/v1/")
                   for paths in ROUTES.values() for path in paths)

    @pytest.mark.parametrize("path,body", [
        ("/predict", {"hex": HEX}),
        ("/predict/bulk", {"blocks": [{"hex": HEX}]}),
        ("/compare", {"hex": HEX}),
        ("/health", None),
        ("/stats", None),
    ])
    def test_unversioned_path_is_a_v1_404(self, service, path, body):
        status, headers, raw = fetch(service, path, body)
        assert status == 404
        payload = json.loads(raw)
        assert payload["result"] is None
        assert payload["error"] == {"code": "not_found",
                                    "message": f"unknown endpoint {path!r}"}
        assert payload["meta"]["trace"] == headers["X-Trace-Id"]
        assert "Deprecation" not in headers

    def test_no_response_carries_deprecation(self, service):
        for method, paths in ROUTES.items():
            for path in paths:
                body = {"hex": HEX} if method == "POST" else None
                if path == "/v1/predict/bulk":
                    body = {"blocks": [body]}
                status, headers, _ = fetch(service, path, body)
                assert status == 200, path
                assert "Deprecation" not in headers, path


class TestV1Errors:
    @pytest.mark.parametrize("path,body,status", [
        ("/v1/predict", {}, 400),
        ("/v1/predict", {"hex": HEX, "uarch": "Z80"}, 404),
        ("/v1/nope", {"hex": HEX}, 404),
        ("/v1/predict", None, 405),  # GET on a POST route
    ])
    def test_structured_error_schema(self, service, path, body, status):
        got_status, _, raw = fetch(service, path, body)
        assert got_status == status
        payload = json.loads(raw)
        assert payload["result"] is None
        assert payload["meta"]["api_version"] == API_VERSION
        error = payload["error"]
        assert error["code"] == ERROR_CODES[status]
        assert error["message"]

    def test_413_too_large_code(self):
        with PredictionService(uarch="SKL", port=0, max_bulk=1) as tiny:
            status, _, raw = fetch(
                tiny, "/v1/predict/bulk",
                {"blocks": [{"hex": "90"}, {"hex": "90"}]})
        assert status == 413
        assert json.loads(raw)["error"]["code"] == "too_large"

    def test_client_surfaces_code_and_message(self, client):
        with pytest.raises(ServiceError) as exc:
            client.predict(HEX, uarch="Z80")
        assert exc.value.status == 404
        assert exc.value.code == "not_found"
        assert "Z80" in exc.value.message


class TestClientNegotiation:
    def test_constructor_validation(self):
        # One API: nothing to choose or negotiate.
        with pytest.raises(TypeError):
            ServiceClient(api="v1")
        assert not hasattr(ServiceClient(), "api_version")
        with pytest.raises(ValueError):
            ServiceClient(max_attempts=0)
        with pytest.raises(TypeError):
            ServiceClient("127.0.0.1")  # positional args are gone


class TestTypedResults:
    def test_prediction_result_properties(self, client):
        result = client.predict(HEX, mode="loop", counterfactuals=True)
        assert isinstance(result, PredictionResult)
        block = BasicBlock.from_bytes(bytes.fromhex(HEX))
        prediction = Facile(SKL).predict(block, ThroughputMode.LOOP)
        assert result.cycles == prediction.cycles
        assert result.bottlenecks == [c.value
                                      for c in prediction.bottlenecks]
        assert result.uarch == "SKL"
        assert result.mode == "loop"
        assert set(result.bounds) == set(result.exact_bounds)
        assert all(v >= 1.0
                   for v in result.counterfactual_speedups.values())
        assert result.meta["api_version"] == API_VERSION

    def test_results_still_act_like_dicts(self, client):
        result = client.predict(HEX)
        assert result["cycles"] == result.cycles
        assert "bottlenecks" in result
        assert result.get("nope") is None
        assert set(result.keys()) == set(iter(result))
        assert result == result.data

    def test_bulk_result_is_typed_and_ordered(self, client):
        bulk = client.predict_bulk([HEX, "90"], mode="unrolled")
        assert bulk.n_blocks == 2
        assert bulk.uarch == "SKL"
        assert bulk.mode == "unrolled"
        predictions = bulk.predictions
        assert [p.block["hex"] for p in predictions] == [HEX, "90"]
        assert all(isinstance(p, PredictionResult) for p in predictions)
