"""Service robustness: structured errors, deadlines, shedding, breakers.

Regression surface for the fault-tolerant service layer: every error
leaves the server as an error envelope (never a stack trace), expired
deadlines shed as 504, a full admission queue sheds as 429 with a
``Retry-After`` hint, and an open predictor breaker degrades ``/health``
and turns ``/v1/compare`` entries into typed skips instead of
failures.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.robustness import FaultPlan, injected
from repro.service import PredictionService, ServiceClient, ServiceError


def raw_error(port, path, data):
    """POST raw bytes; return (status, headers, decoded body) of the error."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data,
        headers={"Content-Type": "application/json"}, method="POST")
    with pytest.raises(urllib.error.HTTPError) as httperr:
        urllib.request.urlopen(request, timeout=10)
    exc = httperr.value
    return exc.code, exc.headers, exc.read().decode("utf-8")


@pytest.fixture(scope="module")
def service():
    with PredictionService(uarch="SKL", port=0, max_batch=16) as running:
        yield running


@pytest.fixture()
def client(service):
    return ServiceClient(port=service.port, max_attempts=1)


class TestStructuredErrors:
    def test_400_body_is_json_with_no_internals(self, service):
        status, _, body = raw_error(
            service.port, "/v1/predict", json.dumps({"hex": "zz"}).encode())
        assert status == 400
        payload = json.loads(body)  # structured, parseable
        assert set(payload) == {"error", "meta", "result"}
        assert payload["error"]["code"] == "bad_request"
        assert "Traceback" not in body
        assert "repro/" not in body  # no source paths leak

    def test_unparseable_body_is_structured_400(self, service):
        status, _, body = raw_error(service.port, "/v1/predict",
                                    b"{not json")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad_request"
        assert "Traceback" not in body

    def test_internal_error_is_opaque_500(self, service):
        # An injected fault inside the handler is the stand-in for any
        # unexpected exception: the client sees only "internal error".
        plan = FaultPlan.from_spec(
            "seed=0; predictor_error@service./v1/predict:p=1.0")
        with injected(plan):
            status, headers, body = raw_error(
                service.port, "/v1/predict",
                json.dumps({"hex": "4801d8"}).encode())
        assert status == 500
        payload = json.loads(body)
        assert payload["error"] == {"code": "internal",
                                    "message": "internal error"}
        assert payload["result"] is None
        assert payload["meta"]["trace"] == headers["X-Trace-Id"]
        assert "Traceback" not in body
        assert "FaultInjected" not in body

    def test_timeout_ms_is_validated(self, client):
        for bad in (-5, 0, float("nan"), "soon", [1]):
            with pytest.raises(ServiceError) as exc:
                client.request("/v1/predict", {"hex": "4801d8",
                                               "timeout_ms": bad})
            assert exc.value.status == 400
            assert "timeout_ms" in exc.value.message


class TestDeadlines:
    def test_expired_deadline_sheds_as_504(self, client):
        # A deadline this tight always expires before dispatch; the
        # request is dropped without doing the prediction work.
        with pytest.raises(ServiceError) as exc:
            client.predict("4801d8", timeout_ms=0.0001)
        assert exc.value.status == 504

    def test_generous_deadline_succeeds(self, client):
        result = client.predict("4801d8", timeout_ms=60000)
        assert result.cycles > 0

    def test_deadline_drops_counted_in_stats(self, client):
        before = client.stats()["uarchs"]["SKL"]["batcher"]
        with pytest.raises(ServiceError):
            client.predict("4801d8", timeout_ms=0.0001)
        after = client.stats()["uarchs"]["SKL"]["batcher"]
        assert after["deadline_drops"] == before["deadline_drops"] + 1


class TestAdmissionControl:
    def test_overfull_bulk_sheds_as_429_with_retry_after(self):
        # Admission is atomic: a bulk that can never fit the queue is
        # rejected as a unit, with a Retry-After hint for the client.
        with PredictionService(uarch="SKL", port=0, max_queue=2) as tiny:
            client = ServiceClient(port=tiny.port, max_attempts=1)
            with pytest.raises(ServiceError) as exc:
                client.predict_bulk(["90"] * 8)
            assert exc.value.status == 429
            assert exc.value.retry_after is not None
            assert exc.value.retry_after >= 1
            # The shed counter is per *block*, so the whole rejected
            # bulk shows up — that is what capacity planning needs.
            assert client.stats()["uarchs"]["SKL"]["batcher"]["shed"] == 8
            assert client.health()["shed_total"] == 8

    def test_retry_after_is_also_a_header(self):
        with PredictionService(uarch="SKL", port=0, max_queue=2) as tiny:
            body = json.dumps(
                {"blocks": [{"hex": "90"}] * 8}).encode()
            status, headers, _ = raw_error(tiny.port,
                                           "/v1/predict/bulk", body)
            assert status == 429
            assert int(headers["Retry-After"]) >= 1


class TestBreakerDegradation:
    @pytest.fixture()
    def fragile(self):
        # One failure opens the breaker; a long cooldown keeps it open
        # for the duration of the test.
        with PredictionService(uarch="SKL", port=0, breaker_failures=1,
                               breaker_cooldown=300.0) as running:
            yield running

    def test_open_breaker_becomes_typed_skip_and_degrades_health(
            self, fragile):
        client = ServiceClient(port=fragile.port)
        plan = FaultPlan.from_spec("seed=1; "
                                   "predictor_error@predictor.uiCA:p=1.0")
        with injected(plan):
            first = client.compare("4801d8", predictors=["Facile",
                                                         "uiCA"])
        # Retries were exhausted against a persistent fault: uiCA is a
        # typed skip, Facile still answered.
        assert "Facile" in first["predictions"]
        assert "uiCA" not in first["predictions"]
        assert first["skipped"]["uiCA"]["reason"] == "error"

        # The failure tripped the breaker: later calls are rejected
        # up-front (no fault plan active any more) as circuit_open.
        second = client.compare("4801d8", predictors=["Facile", "uiCA"])
        assert second["skipped"]["uiCA"]["reason"] == "circuit_open"
        assert second["skipped"]["uiCA"]["retry_after_sec"] > 0

        health = client.health()
        assert health["status"] == "degraded"
        assert health["open_breakers"] == {"SKL": ["uiCA"]}
        assert any("breaker" in reason
                   for reason in health["degraded_reasons"])

        breakers = client.stats()["uarchs"]["SKL"]["breakers"]
        assert breakers["uiCA"]["state"] == "open"
        assert breakers["uiCA"]["times_opened"] == 1

    def test_healthy_service_reports_ok(self, service, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["open_breakers"] == {}
        assert health["degraded_reasons"] == []
