"""The metrics registry: determinism, exposition, and the catalog.

The registry's contract has three load-bearing edges:

* **determinism** — bucket bounds are fixed at construction and two
  registries fed the same observations render byte-identical text;
* **exposition** — the Prometheus 0.0.4 text renders and parses back
  through :func:`repro.obs.metrics.parse_exposition` without loss;
* **catalog** — every documented metric name appears in every scrape,
  observed or not (the padded-surface guarantee the CI smoke check and
  ``scripts/check_docs.py`` both lean on).
"""

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    COUNTER,
    DURATION_BUCKETS_MS,
    Family,
    GAUGE,
    HISTOGRAM,
    METRIC_CATALOG,
    Registry,
    parse_exposition,
)


class TestCounters:
    def test_inc_and_value(self):
        reg = Registry()
        c = reg.counter("t_total", "help", labels=("k",))
        c.inc(k="a")
        c.inc(2.5, k="a")
        c.inc(k="b")
        assert c.value(k="a") == 3.5
        assert c.value(k="b") == 1.0
        assert c.value(k="never") == 0.0

    def test_counters_cannot_decrease(self):
        c = Registry().counter("t_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_label_names_are_enforced(self):
        c = Registry().counter("t_total", labels=("k",))
        with pytest.raises(ValueError):
            c.inc()  # missing label
        with pytest.raises(ValueError):
            c.inc(k="a", extra="b")

    def test_counter_value_reads_without_creating(self):
        reg = Registry()
        assert reg.counter_value("never_registered") == 0.0
        reg.gauge("a_gauge").set(1)
        with pytest.raises(ValueError):
            reg.counter_value("a_gauge")


class TestRegistryConsistency:
    def test_get_or_create_returns_the_same_object(self):
        reg = Registry()
        assert reg.counter("x", labels=("k",)) is \
            reg.counter("x", labels=("k",))

    def test_kind_conflict_raises(self):
        reg = Registry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_label_conflict_raises(self):
        reg = Registry()
        reg.counter("x", labels=("k",))
        with pytest.raises(ValueError):
            reg.counter("x", labels=("other",))


class TestHistogramDeterminism:
    def test_bucket_bounds_are_fixed_and_increasing(self):
        h = Registry().histogram("h_ms")
        assert h.buckets == DURATION_BUCKETS_MS
        assert all(a < b for a, b in zip(h.buckets, h.buckets[1:]))

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ValueError):
            Registry().histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Registry().histogram("h", buckets=())

    def test_observations_land_in_deterministic_buckets(self):
        h = Registry().histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 1.5, 7.0, 10.0, 99.0):
            h.observe(value)
        ((_, (counts, total, count)),) = h.samples()
        # le semantics via bisect_left: a value equal to a bound lands
        # in that bound's bucket.
        assert counts == [2, 1, 2, 1]
        assert count == 6
        assert total == pytest.approx(119.0)

    def test_two_registries_render_byte_identical_text(self):
        def build():
            reg = Registry()
            h = reg.histogram("h_ms", "spans", labels=("span",),
                              buckets=(1.0, 10.0))
            for v in (0.2, 3.0, 50.0):
                h.observe(v, span="a")
            reg.counter("c_total", "things", labels=("k",)).inc(k="x")
            return reg.exposition()

        assert build() == build()


class TestCollectors:
    def test_collector_families_merge_into_the_scrape(self):
        reg = Registry()
        reg.register_collector(lambda: [Family(
            "pulled_total", COUNTER, "pulled",
            [({"k": "a"}, 3.0)])])
        text = reg.exposition()
        assert '# TYPE pulled_total counter' in text
        assert 'pulled_total{k="a"} 3' in text
        assert reg.snapshot()["pulled_total"]["values"] == [
            {"labels": {"k": "a"}, "value": 3.0}]

    def test_broken_collector_contributes_nothing(self):
        reg = Registry()
        reg.counter("ok_total").inc()

        def broken():
            raise RuntimeError("scrape me not")

        reg.register_collector(broken)
        text = reg.exposition()
        assert "ok_total 1" in text

    def test_unregister(self):
        reg = Registry()
        fn = lambda: [Family("x_total", COUNTER, "", [({}, 1.0)])]  # noqa: E731
        reg.register_collector(fn)
        reg.unregister_collector(fn)
        assert "x_total" not in reg.exposition()


class TestExposition:
    def test_round_trips_through_the_parser(self):
        reg = Registry()
        reg.counter("req_total", "requests", labels=("route",)).inc(
            route="/v1/predict")
        reg.gauge("up_seconds", "uptime").set(12.5)
        h = reg.histogram("lat_ms", "latency", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(3.0)
        families = parse_exposition(reg.exposition())
        assert families["req_total"]["kind"] == COUNTER
        assert ("req_total", {"route": "/v1/predict"}, 1.0) in \
            families["req_total"]["samples"]
        assert families["up_seconds"]["kind"] == GAUGE
        hist = families["lat_ms"]
        assert hist["kind"] == HISTOGRAM
        # Cumulative buckets plus the implicit +Inf, then sum and count.
        assert ("lat_ms_bucket", {"le": "1"}, 1.0) in hist["samples"]
        assert ("lat_ms_bucket", {"le": "10"}, 2.0) in hist["samples"]
        assert ("lat_ms_bucket", {"le": "+Inf"}, 2.0) in hist["samples"]
        assert ("lat_ms_sum", {}, 3.5) in hist["samples"]
        assert ("lat_ms_count", {}, 2.0) in hist["samples"]

    def test_catalog_pads_unobserved_metrics(self):
        text = Registry().exposition(METRIC_CATALOG)
        families = parse_exposition(text)
        assert set(METRIC_CATALOG) <= set(families)
        for name, (kind, help_text, _) in METRIC_CATALOG.items():
            assert families[name]["kind"] == kind
            assert families[name]["help"] == help_text
        # Unlabelled counters get an explicit zero sample.
        assert ("facile_retries_total", {}, 0.0) in \
            families["facile_retries_total"]["samples"]

    def test_catalog_pads_labelled_families_without_samples(self):
        # An unobserved labelled family renders its headers only, whether
        # or not the module registering it was imported; a zero sample
        # without labels would be a series no observation ever feeds.
        reg = Registry()
        reg.register_collector(lambda: [Family(
            "facile_response_cache_hits_total", COUNTER, "", [])])
        families = parse_exposition(reg.exposition(METRIC_CATALOG))
        for name, (kind, _, labels) in METRIC_CATALOG.items():
            if labels:
                assert all(sample_labels for _, sample_labels, _
                           in families[name]["samples"]), name
        assert families["facile_response_cache_hits_total"]["samples"] == []
        assert families["facile_retries_total"]["samples"] == [
            ("facile_retries_total", {}, 0.0)]
        assert families["facile_service_uptime_seconds"]["samples"] == [
            ("facile_service_uptime_seconds", {}, 0.0)]

    def test_label_values_are_escaped(self):
        reg = Registry()
        reg.counter("c_total", labels=("k",)).inc(k='a"b\\c')
        families = parse_exposition(reg.exposition())
        ((_, labels, _),) = families["c_total"]["samples"]
        assert labels == {"k": 'a\\"b\\\\c'}

    def test_parser_rejects_malformed_input(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_exposition("not a metric line at all }{")
        with pytest.raises(ValueError, match="no # TYPE"):
            parse_exposition("undeclared_total 1\n")
        with pytest.raises(ValueError, match="bad sample value"):
            parse_exposition("# TYPE x counter\nx one\n")

    def test_counters_flat(self):
        reg = Registry()
        reg.counter("a_total", labels=("k",)).inc(2, k="x")
        reg.counter("b_total").inc()
        reg.gauge("g").set(9)  # gauges stay out of the flat view
        assert reg.counters_flat() == {'a_total{k="x"}': 2.0,
                                       "b_total": 1.0}


class TestCatalogHygiene:
    def test_catalog_names_and_kinds(self):
        for name, (kind, help_text, _) in METRIC_CATALOG.items():
            assert name.startswith("facile_")
            assert kind in (COUNTER, GAUGE, HISTOGRAM)
            assert help_text
            if kind == COUNTER:
                assert name.endswith("_total")

    def test_registered_metrics_carry_the_catalog_labels(self):
        import repro.discovery.campaign  # noqa: F401
        import repro.engine.batching  # noqa: F401
        import repro.engine.bench  # noqa: F401
        import repro.obs.trace  # noqa: F401
        import repro.robustness.breaker  # noqa: F401
        import repro.robustness.retry  # noqa: F401
        import repro.service.server  # noqa: F401

        registered = {name: metric.label_names for name, metric
                      in metrics.REGISTRY._metrics.items()
                      if name in METRIC_CATALOG}
        assert len(registered) >= 10
        for name, labels in registered.items():
            assert labels == METRIC_CATALOG[name][2], name

    def test_module_exposition_covers_the_catalog(self):
        # The real /v1/metrics surface: the process registry padded
        # with the catalog always advertises every documented name.
        families = parse_exposition(metrics.exposition())
        assert set(METRIC_CATALOG) <= set(families)
