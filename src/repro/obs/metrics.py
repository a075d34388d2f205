"""Process-wide metrics: counters, gauges, and fixed-bucket histograms.

The registry is the single observability substrate shared by the
service front end, the batch engine, the robustness layer, and the
campaign driver.  Design constraints, in order:

* **Near-zero cost when unobserved.**  An increment is a dict lookup
  plus an add under a per-metric lock; nothing allocates on the steady
  path and nothing is computed until a snapshot or exposition is
  requested.  The columnar prediction core is deliberately *not*
  instrumented at all (``docs/OBSERVABILITY.md``).
* **Deterministic.**  Histogram bucket bounds are fixed at
  construction (no adaptive resizing), snapshots sort every metric and
  label set, and the exposition text is a pure function of the
  registry state — two registries fed the same observations render
  byte-identical output.
* **Dependency-free.**  Prometheus text exposition format 0.0.4 is
  simple enough to emit (and parse, for the smoke checks) with the
  stdlib.

Metrics are identified by name and a fixed tuple of label *names*;
each observation supplies the label *values* as keyword arguments:

    from repro.obs import metrics
    requests = metrics.counter("facile_requests_total",
                               "Requests accepted", labels=("endpoint",))
    requests.inc(endpoint="/v1/predict")

Components that already keep their own counters (response cache,
micro-batcher, shard proxies) are pulled in at scrape time through
*collectors* — callables registered on the registry that return sample
families — so their hot paths stay untouched.
"""
from __future__ import annotations

import bisect
import re
import threading
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

__all__ = [
    "COUNTER", "GAUGE", "HISTOGRAM",
    "DURATION_BUCKETS_MS", "SIZE_BUCKETS",
    "Counter", "Gauge", "Histogram", "Registry", "Family",
    "REGISTRY", "counter", "gauge", "histogram", "counter_value",
    "METRIC_CATALOG", "catalogued", "exposition", "parse_exposition",
]

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

# Default bucket bounds, fixed forever: latencies in milliseconds
# (sub-100µs through 5s) and small-integer sizes (batch windows).
# Deterministic bucketing is load-bearing — tests and dashboards rely
# on bucket boundaries never moving between runs or hosts.
DURATION_BUCKETS_MS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)
SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)

LabelValues = Tuple[str, ...]


class _Metric:
    """Shared plumbing: label validation and the sample map."""

    kind = ""

    def __init__(self, name: str, help_text: str = "",
                 labels: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help_text
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, object]) -> LabelValues:
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[n]) for n in self.label_names)


class Counter(_Metric):
    """Monotonically increasing value, optionally labelled."""

    kind = COUNTER

    def __init__(self, name: str, help_text: str = "",
                 labels: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labels)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Tuple[LabelValues, float]]:
        with self._lock:
            return sorted(self._values.items())


class Gauge(_Metric):
    """A value that can go up and down (queue depths, uptime)."""

    kind = GAUGE

    def __init__(self, name: str, help_text: str = "",
                 labels: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labels)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Tuple[LabelValues, float]]:
        with self._lock:
            return sorted(self._values.items())


class Histogram(_Metric):
    """Fixed-bucket histogram: per-bucket counts plus sum and count.

    Buckets are upper bounds (``le`` semantics); an implicit +Inf
    bucket catches everything above the last bound.  Counts are stored
    per bucket (not cumulative) and cumulated only at render time.
    """

    kind = HISTOGRAM

    def __init__(self, name: str, help_text: str = "",
                 labels: Sequence[str] = (),
                 buckets: Sequence[float] = DURATION_BUCKETS_MS) -> None:
        super().__init__(name, help_text, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly increasing")
        self.buckets: Tuple[float, ...] = bounds
        # key -> [per-bucket counts (len(buckets)+1), sum, count]
        self._data: Dict[LabelValues, list] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            state = self._data.get(key)
            if state is None:
                state = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._data[key] = state
            state[0][idx] += 1
            state[1] += value
            state[2] += 1

    def samples(self) -> List[Tuple[LabelValues, Tuple[List[int], float, int]]]:
        with self._lock:
            return sorted((key, (list(st[0]), st[1], st[2]))
                          for key, st in self._data.items())


class Family:
    """A collector-produced sample family (counter or gauge only)."""

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str, help_text: str,
                 samples: Iterable[Tuple[Mapping[str, object], float]]) -> None:
        if kind not in (COUNTER, GAUGE):
            raise ValueError(f"collector family {name!r} must be a "
                             f"counter or gauge, not {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples = [({str(k): str(v) for k, v in labels.items()}, float(value))
                        for labels, value in samples]


class Registry:
    """Get-or-create metric store plus scrape-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        self._collectors: List[Callable[[], Iterable[Family]]] = []

    # -- construction ------------------------------------------------

    def _get_or_create(self, cls, name: str, help_text: str,
                       labels: Sequence[str], **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                if existing.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.label_names}, not {tuple(labels)}")
                return existing
            metric = cls(name, help_text, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DURATION_BUCKETS_MS) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, labels,
                                   buckets=buckets)

    # -- collectors --------------------------------------------------

    def register_collector(self, fn: Callable[[], Iterable[Family]]) -> None:
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    def unregister_collector(self, fn: Callable[[], Iterable[Family]]) -> None:
        with self._lock:
            if fn in self._collectors:
                self._collectors.remove(fn)

    def _collected(self) -> List[Family]:
        with self._lock:
            collectors = list(self._collectors)
        families: List[Family] = []
        for fn in collectors:
            try:
                families.extend(fn())
            except Exception:
                # A scrape must never take the service down with it; a
                # broken collector simply contributes nothing.
                continue
        return families

    # -- reads -------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of a counter (0.0 if never observed)."""
        with self._lock:
            metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        if not isinstance(metric, Counter):
            raise ValueError(f"metric {name!r} is a {metric.kind}, "
                             "not a counter")
        try:
            return metric.value(**labels)
        except ValueError:
            return 0.0

    def snapshot(self) -> Dict[str, dict]:
        """Canonical JSON-able view of every metric and collector.

        Deterministic: metric names, label names, and label values are
        all sorted; histogram buckets keep their construction order.
        """
        out: Dict[str, dict] = {}
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            entry: dict = {"kind": metric.kind,
                           "labels": list(metric.label_names),
                           "values": []}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                for key, (counts, total, count) in metric.samples():
                    entry["values"].append({
                        "labels": dict(zip(metric.label_names, key)),
                        "counts": counts, "sum": total, "count": count})
            else:
                for key, value in metric.samples():
                    entry["values"].append({
                        "labels": dict(zip(metric.label_names, key)),
                        "value": value})
            out[name] = entry
        for family in self._collected():
            entry = out.setdefault(family.name, {
                "kind": family.kind, "labels": [], "values": []})
            for labels, value in sorted(family.samples,
                                        key=lambda s: sorted(s[0].items())):
                entry["values"].append({"labels": labels, "value": value})
        return out

    def counters_flat(self) -> Dict[str, float]:
        """Flat ``name{a=x}`` -> value map of all counters.

        The bench harness diffs two of these around each measured path
        to attach a per-path metrics snapshot to ``BENCH_predict.json``.
        """
        flat: Dict[str, float] = {}
        for name, entry in self.snapshot().items():
            if entry["kind"] != COUNTER:
                continue
            for sample in entry["values"]:
                flat[_sample_name(name, sample["labels"])] = sample["value"]
        return flat

    def exposition(self,
                   catalog: Optional[Mapping[str, "CatalogEntry"]] = None
                   ) -> str:
        """Render Prometheus text exposition format 0.0.4.

        With ``catalog`` (name -> kind, help, label names), every
        catalogued metric is emitted even when it has no samples yet
        (``# HELP``/``# TYPE`` headers, plus a zero sample for an
        unlabelled counter or gauge) so a scrape always advertises the
        full documented surface.  A family is labelled when its
        registered metric or, failing one, its catalog entry names
        labels.
        """
        with self._lock:
            metrics = dict(self._metrics)
        collected: Dict[str, Family] = {}
        for family in self._collected():
            if family.name in collected:
                collected[family.name].samples.extend(family.samples)
            else:
                collected[family.name] = family

        names = set(metrics) | set(collected)
        if catalog:
            names |= set(catalog)
        lines: List[str] = []
        for name in sorted(names):
            metric = metrics.get(name)
            family = collected.get(name)
            if metric is not None:
                kind, help_text = metric.kind, metric.help
            elif family is not None:
                kind, help_text = family.kind, family.help
            else:
                kind, help_text, _ = catalog[name]  # type: ignore[index]
            if catalog and name in catalog and not help_text:
                help_text = catalog[name][1]
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            emitted = 0
            if isinstance(metric, Histogram):
                for key, (counts, total, count) in metric.samples():
                    emitted += 1
                    labels = dict(zip(metric.label_names, key))
                    cumulative = 0
                    for bound, n in zip(metric.buckets, counts):
                        cumulative += n
                        lines.append(_sample_line(
                            name + "_bucket",
                            dict(labels, le=_format_bound(bound)), cumulative))
                    cumulative += counts[-1]
                    lines.append(_sample_line(
                        name + "_bucket", dict(labels, le="+Inf"), cumulative))
                    lines.append(_sample_line(name + "_sum", labels, total))
                    lines.append(_sample_line(name + "_count", labels, count))
            elif metric is not None:
                for key, value in metric.samples():
                    emitted += 1
                    lines.append(_sample_line(
                        name, dict(zip(metric.label_names, key)), value))
            if family is not None:
                for labels, value in sorted(family.samples,
                                            key=lambda s: sorted(s[0].items())):
                    emitted += 1
                    lines.append(_sample_line(name, labels, value))
            if emitted == 0 and kind in (COUNTER, GAUGE):
                if metric is not None:
                    labels = metric.label_names
                elif catalog and name in catalog:
                    labels = catalog[name][2]
                else:
                    labels = ()
                if not labels:
                    lines.append(_sample_line(name, {}, 0.0))
        return "\n".join(lines) + "\n"


# The process-wide default registry.  Counters accumulate for the
# process lifetime; tests needing isolation diff snapshots or build a
# private Registry().
REGISTRY = Registry()


def counter(name: str, help_text: str = "",
            labels: Sequence[str] = ()) -> Counter:
    return REGISTRY.counter(name, help_text, labels)


def gauge(name: str, help_text: str = "",
          labels: Sequence[str] = ()) -> Gauge:
    return REGISTRY.gauge(name, help_text, labels)


def histogram(name: str, help_text: str = "", labels: Sequence[str] = (),
              buckets: Sequence[float] = DURATION_BUCKETS_MS) -> Histogram:
    return REGISTRY.histogram(name, help_text, labels, buckets)


def counter_value(name: str, **labels: object) -> float:
    return REGISTRY.counter_value(name, **labels)


# ---------------------------------------------------------------------------
# The documented metric catalog.
#
# Every name here appears in docs/OBSERVABILITY.md (scripts/check_docs.py
# enforces the mapping and the label names in both directions) and in
# every /v1/metrics scrape, observed or not.  name -> (kind, help, label
# names).  The label names live here only: the modules that register a
# catalogued metric do so through :func:`catalogued`, and a scrape pads
# an unobserved family by them (a labelled one gets no zero sample).
# ---------------------------------------------------------------------------

CatalogEntry = Tuple[str, str, Tuple[str, ...]]

METRIC_CATALOG: Dict[str, CatalogEntry] = {
    "facile_requests_total":
        (COUNTER, "Requests accepted, by endpoint", ("endpoint",)),
    "facile_request_errors_total":
        (COUNTER, "Requests answered with an error envelope, by endpoint",
         ("endpoint",)),
    "facile_request_duration_ms":
        (HISTOGRAM, "Wall time per request, by route", ("route",)),
    "facile_slow_requests_total":
        (COUNTER, "Requests slower than REPRO_SLOW_MS, by route",
         ("route",)),
    "facile_span_duration_ms":
        (HISTOGRAM, "Wall time per traced span", ("span",)),
    "facile_response_cache_hits_total":
        (COUNTER, "Response-fragment cache hits, by uarch", ("uarch",)),
    "facile_response_cache_misses_total":
        (COUNTER, "Response-fragment cache misses, by uarch", ("uarch",)),
    "facile_analysis_cache_hits_total":
        (COUNTER, "Shard core lookups answered by a compiled entry "
                  "(signature hits), by uarch", ("uarch",)),
    "facile_analysis_cache_misses_total":
        (COUNTER, "Shard core lookups that compiled a new entry, by uarch",
         ("uarch",)),
    "facile_batcher_requests_total":
        (COUNTER, "Requests admitted to the micro-batcher, by uarch",
         ("uarch",)),
    "facile_batcher_batches_total":
        (COUNTER, "Batch windows dispatched, by uarch", ("uarch",)),
    "facile_batcher_shed_total":
        (COUNTER, "Requests shed at the admission gate, by uarch",
         ("uarch",)),
    "facile_batcher_deadline_drops_total":
        (COUNTER, "Requests dropped in-queue past their deadline, by uarch",
         ("uarch",)),
    "facile_batch_window_size":
        (HISTOGRAM, "Dispatched batch window sizes, by uarch", ("uarch",)),
    "facile_shard_respawns_total":
        (COUNTER, "Shard worker processes respawned after a crash, by uarch",
         ("uarch",)),
    "facile_shard_fallback_total":
        (COUNTER, "Blocks served by the in-process fallback engine, by uarch",
         ("uarch",)),
    "facile_breaker_open_total":
        (COUNTER, "Circuit breaker trips (CLOSED/HALF_OPEN -> OPEN), by "
                  "breaker", ("breaker",)),
    "facile_retries_total":
        (COUNTER, "Retry backoffs taken (client transport and predictors)",
         ()),
    "facile_service_uptime_seconds":
        (GAUGE, "Seconds since the service started", ()),
    "facile_hunt_blocks_evaluated_total":
        (COUNTER, "Campaign blocks evaluated, by uarch", ("uarch",)),
    "facile_hunt_deviations_total":
        (COUNTER, "Campaign deviations recorded, by uarch", ("uarch",)),
    "facile_bench_paths_total":
        (COUNTER, "Bench harness paths measured, by path", ("path",)),
}


_MAKERS = {COUNTER: counter, GAUGE: gauge, HISTOGRAM: histogram}


def catalogued(name: str, **kwargs) -> _Metric:
    """The process registry's metric *name*, registered with the kind,
    help text and label names of its catalog entry (*kwargs*: histogram
    ``buckets``)."""
    kind, help_text, labels = METRIC_CATALOG[name]
    return _MAKERS[kind](name, help_text, labels, **kwargs)


def exposition(registry: Optional[Registry] = None,
               catalog: Optional[Mapping[str, CatalogEntry]] = None) -> str:
    """Exposition of ``registry`` (default: the process registry),
    padded with the documented catalog by default."""
    reg = REGISTRY if registry is None else registry
    return reg.exposition(METRIC_CATALOG if catalog is None else catalog)


# ---------------------------------------------------------------------------
# Text format helpers + a parser for the smoke checks
# ---------------------------------------------------------------------------

def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_bound(bound: float) -> str:
    return repr(int(bound)) if bound == int(bound) else repr(bound)


def _format_value(value: float) -> str:
    if isinstance(value, int) or (isinstance(value, float)
                                  and value == int(value)):
        return repr(int(value))
    return repr(value)


def _labels_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"'
                     for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _sample_line(name: str, labels: Mapping[str, str], value: float) -> str:
    return f"{name}{_labels_text(labels)} {_format_value(value)}"


def _sample_name(name: str, labels: Mapping[str, str]) -> str:
    return name + _labels_text(labels)


_LABEL_PAIR = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:" + _LABEL_PAIR + r")(?:," + _LABEL_PAIR + r")*)?\})?"
    r"\s+(?P<value>\S+)(?:\s+\d+)?$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> Dict[str, dict]:
    """Parse Prometheus text exposition into
    ``{name: {"kind", "help", "samples": [(labels, value), ...]}}``.

    Strict enough for the CI smoke check: every sample line must parse,
    every sample must belong to a ``# TYPE``-declared family (histogram
    series accept the ``_bucket``/``_sum``/``_count`` suffixes), and
    values must be floats (``+Inf``/``NaN`` included).  Raises
    ``ValueError`` with the offending line on malformed input.
    """
    families: Dict[str, dict] = {}

    def family_for(sample_name: str) -> Optional[dict]:
        if sample_name in families:
            return families[sample_name]
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                base = sample_name[:-len(suffix)]
                fam = families.get(base)
                if fam is not None and fam["kind"] == HISTOGRAM:
                    return fam
        return None

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: malformed HELP: {line!r}")
            name = parts[2]
            fam = families.setdefault(
                name, {"kind": "untyped", "help": "", "samples": []})
            fam["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                    COUNTER, GAUGE, HISTOGRAM, "summary", "untyped"):
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            fam = families.setdefault(
                parts[2], {"kind": "untyped", "help": "", "samples": []})
            fam["kind"] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        fam = family_for(name)
        if fam is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no # TYPE declaration")
        labels = {m.group(1): m.group(2)
                  for m in _LABEL_RE.finditer(match.group("labels") or "")}
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {raw_value!r}") from None
        fam["samples"].append((name, labels, value))
    return families
