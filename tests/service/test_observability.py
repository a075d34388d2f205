"""The observability surface of the service: traces, metrics, logs.

Three wire-level contracts:

* **tracing** — every response carries an ``X-Trace-Id`` header; the
  envelope echoes the same id in ``meta.trace`` (success and error
  alike); with debug logging on, the forked shard worker logs the
  id the client saw, proving the trace propagated through the response
  cache, the micro-batcher, and the shard IPC payload end to end;
* **/v1/metrics** — the scrape parses as Prometheus text exposition
  0.0.4 and always advertises the full documented metric catalog;
* **/v1/stats /v1/health** — named robustness counters and the serving
  core ride along in the JSON surfaces.
"""

import json
import urllib.request
from collections import Counter

import pytest

from repro.obs import log as obslog
from repro.obs import metrics
from repro.obs.metrics import METRIC_CATALOG, parse_exposition
from repro.obs.trace import TRACE_HEADER
from repro.service import PredictionService, ServiceClient
from repro.service.server import METRICS_CONTENT_TYPE

HEX = "4801d8"


def fetch(service, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{service.port}{path}", data=data,
        method="POST" if data else "GET")
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


@pytest.fixture(scope="module")
def service():
    with PredictionService(uarch="SKL", port=0) as s:
        yield s


class TestTraceIds:
    def test_v1_meta_and_header_carry_the_same_trace(self, service):
        status, headers, raw = fetch(service, "/v1/predict",
                                     {"hex": HEX, "mode": "loop"})
        assert status == 200
        trace = json.loads(raw)["meta"]["trace"]
        assert trace and len(trace) == 16
        int(trace, 16)
        assert headers[TRACE_HEADER] == trace

    def test_every_request_gets_a_fresh_trace(self, service):
        traces = set()
        for _ in range(3):
            _, headers, _ = fetch(service, "/v1/health")
            traces.add(headers[TRACE_HEADER])
        assert len(traces) == 3

    def test_error_envelope_echoes_the_trace(self, service):
        status, headers, raw = fetch(service, "/v1/predict", {})
        assert status == 400
        payload = json.loads(raw)
        assert payload["meta"]["trace"] == headers[TRACE_HEADER]

    def test_client_exposes_the_trace(self, service):
        result = ServiceClient(port=service.port).predict(HEX)
        assert result.trace == result.meta["trace"]


class TestTracePropagation:
    def test_shard_logs_the_trace_the_client_saw(self, monkeypatch,
                                                 capfd):
        """End to end: client meta.trace == the id the worker logged.

        The shard worker is forked at service construction and reads
        ``REPRO_LOG`` on startup (``refresh_level``), so the env must
        be set *before* the service exists; ``capfd`` captures at the
        fd level, which is the only way to see the fork's stderr.
        """
        monkeypatch.setenv(obslog.ENV_LEVEL, "debug")
        obslog.refresh_level()
        try:
            with PredictionService(uarch="SKL", port=0) as service:
                _, _, raw = fetch(service, "/v1/predict",
                                  {"hex": "4829d8", "mode": "unrolled"})
                trace = json.loads(raw)["meta"]["trace"]
        finally:
            monkeypatch.delenv(obslog.ENV_LEVEL)
            obslog.refresh_level()
        assert trace
        shard_traces = []
        for line in capfd.readouterr().err.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("component") == "shard" and \
                    record.get("event") == "predict_batch":
                shard_traces.extend(record.get("traces", []))
        assert trace in shard_traces


class TestMetricsEndpoint:
    def test_scrape_parses_and_covers_the_catalog(self, service):
        status, headers, raw = fetch(service, "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == METRICS_CONTENT_TYPE
        families = parse_exposition(raw.decode())
        assert set(METRIC_CATALOG) <= set(families)
        for name, (kind, _, _) in METRIC_CATALOG.items():
            assert families[name]["kind"] == kind, name

    def test_request_counters_move_between_scrapes(self, service):
        def requests_total():
            _, _, raw = fetch(service, "/v1/metrics")
            fam = parse_exposition(raw.decode())["facile_requests_total"]
            return {tuple(sorted(labels.items())): value
                    for _, labels, value in fam["samples"]}

        before = requests_total()
        fetch(service, "/v1/predict", {"hex": HEX, "mode": "loop"})
        after = requests_total()
        key = (("endpoint", "/v1/predict"),)
        assert after[key] == before.get(key, 0.0) + 1

    def test_latency_histogram_and_cache_counters_present(self, service):
        fetch(service, "/v1/predict", {"hex": HEX, "mode": "loop"})
        fetch(service, "/v1/predict", {"hex": HEX, "mode": "loop"})
        _, _, raw = fetch(service, "/v1/metrics")
        families = parse_exposition(raw.decode())
        duration = families["facile_request_duration_ms"]
        assert any(sample_name == "facile_request_duration_ms_count"
                   and labels.get("route") == "/v1/predict" and value > 0
                   for sample_name, labels, value in duration["samples"])
        cache_hits = families["facile_response_cache_hits_total"]
        assert any(labels.get("uarch") == "SKL" and value > 0
                   for _, labels, value in cache_hits["samples"])
        batches = families["facile_batcher_batches_total"]
        assert any(value > 0 for _, _, value in batches["samples"])

    def test_uptime_gauge_is_live(self, service):
        _, _, raw = fetch(service, "/v1/metrics")
        fam = parse_exposition(raw.decode())[
            "facile_service_uptime_seconds"]
        assert any(value >= 0 for _, _, value in fam["samples"])

    def test_legacy_has_no_metrics_twin(self, service):
        status, _, _ = fetch(service, "/metrics")
        assert status == 404


class TestStatsAndHealth:
    def test_stats_carries_named_robustness_counters(self, service):
        _, _, raw = fetch(service, "/v1/stats")
        counters = json.loads(raw)["result"]["counters"]
        assert set(counters) == {"shard_respawns", "shard_fallback",
                                 "breaker_opens"}
        assert all(isinstance(v, int) and v >= 0
                   for v in counters.values())

    def test_health_advertises_the_serving_core(self, service):
        _, _, raw = fetch(service, "/v1/health")
        assert json.loads(raw)["result"]["core"] == "columnar"

    def test_no_shard_stats_and_metrics_read_the_local_core(self):
        # Every running service adds its samples to the process-wide
        # scrape; this one's are what disappears when it closes.
        with PredictionService(uarch="SKL", port=0, shard=False) as service:
            fetch(service, "/v1/predict", {"hex": HEX, "mode": "loop"})
            # A different fragment key: the core answers from the entry
            # the first request compiled.
            fetch(service, "/v1/predict", {"hex": HEX, "mode": "loop",
                                           "counterfactuals": True})
            _, _, stats = fetch(service, "/v1/stats")
            _, _, scrape = fetch(service, "/v1/metrics")
        cache = json.loads(stats)["result"]["uarchs"]["SKL"]["cache"]
        assert set(cache) == {"entries", "templates", "sig_hits",
                              "misses"}
        assert (cache["misses"], cache["sig_hits"]) == (1, 1)
        running = parse_exposition(scrape.decode())
        closed = parse_exposition(metrics.exposition())

        def own(name):
            def skl(families):
                return Counter(value for _, labels, value
                               in families.get(name, {"samples": ()})
                               ["samples"] if labels.get("uarch") == "SKL")
            return list((skl(running) - skl(closed)).elements())

        assert own("facile_analysis_cache_hits_total") == \
            [cache["sig_hits"]]
        assert own("facile_analysis_cache_misses_total") == \
            [cache["misses"]]


class TestSlowRequestLog:
    def test_slow_threshold_trips_the_structured_log(self, monkeypatch,
                                                     capsys):
        monkeypatch.setenv(obslog.ENV_SLOW_MS, "0.000001")
        with PredictionService(uarch="SKL", port=0, shard=False) as service:
            _, headers, _ = fetch(service, "/v1/predict",
                                  {"hex": HEX, "mode": "loop"})
            trace = headers[TRACE_HEADER]
        records = [json.loads(line) for line in
                   capsys.readouterr().err.splitlines()
                   if line.startswith("{")]
        slow = [r for r in records if r.get("event") == "slow_request"
                and r.get("trace") == trace]
        assert slow and slow[0]["route"] == "/v1/predict"
        assert slow[0]["ms"] > 0
        counted = metrics.counter_value("facile_slow_requests_total",
                                        route="/v1/predict")
        assert counted >= 1
