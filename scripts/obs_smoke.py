#!/usr/bin/env python3
"""End-to-end observability smoke check (CI's observability job).

Boots a real ``facile serve`` subprocess on an ephemeral port, drives
representative traffic (predict, bulk, a cache hit, a deliberate 400),
scrapes ``GET /v1/metrics``, and validates:

1. the scrape parses as Prometheus text exposition 0.0.4 with the
   documented content type;
2. every metric in ``repro.obs.metrics.METRIC_CATALOG`` is advertised,
   with its documented kind;
3. the traffic actually moved the counters (requests, errors, response
   cache, batcher) and every response carried a trace id;
4. the server's stdout stayed empty — structured logs are stderr-only.

The server's bound port is discovered by parsing the structured
``serving`` startup event off stderr, which doubles as a test that the
machine-readable banner stays parseable.

Run from the repository root (exits non-zero on failure)::

    python scripts/obs_smoke.py
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.obs.metrics import METRIC_CATALOG, parse_exposition  # noqa: E402
from repro.service.server import METRICS_CONTENT_TYPE  # noqa: E402

STARTUP_TIMEOUT_SEC = 60.0
HEX = "4801d875f4"


def start_server():
    """``(process, port)`` — serve on an ephemeral port, parse banner."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH")) if p)
    # Own session: the server forks a shard worker that inherits the
    # pipe write ends, so teardown must signal the whole process group
    # or communicate() would wait forever on the orphan's open pipes.
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--uarch", "SKL"],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    deadline = time.monotonic() + STARTUP_TIMEOUT_SEC
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if not line:
            raise SystemExit("server exited before announcing itself: "
                             + (process.stdout.read() or ""))
        try:
            record = json.loads(line)
        except ValueError:
            raise SystemExit("non-JSON server stderr line: "
                             + line.rstrip())
        if record.get("event") == "serving":
            return process, int(record["port"])
    raise SystemExit("no 'serving' event within "
                     f"{STARTUP_TIMEOUT_SEC:.0f}s")


def fetch(port, path, body=None):
    """``(status, headers, bytes)`` for one request; errors included."""
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data,
        method="POST" if data else "GET")
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def drive_traffic(port):
    """Representative traffic; every response must carry a trace id."""
    plans = [
        ("/v1/predict", {"hex": HEX, "mode": "loop"}, 200),
        ("/v1/predict", {"hex": HEX, "mode": "loop"}, 200),  # cache hit
        ("/v1/predict/bulk",
         {"blocks": [{"hex": "4801d8"}, {"hex": "4829d8"}],
          "mode": "unrolled"}, 200),
        ("/v1/predict", {}, 400),  # deliberate error-path traffic
        ("/v1/health", None, 200),
        ("/v1/stats", None, 200),
    ]
    for path, body, expected in plans:
        status, headers, _ = fetch(port, path, body)
        if status != expected:
            raise SystemExit(f"{path}: HTTP {status}, "
                             f"expected {expected}")
        if not headers.get("X-Trace-Id"):
            raise SystemExit(f"{path}: response carries no X-Trace-Id")


def sample_value(family, sample_name, **labels):
    """Sum of matching samples (labels must be a subset match)."""
    total = 0.0
    for name, sample_labels, value in family["samples"]:
        if name == sample_name and all(
                sample_labels.get(k) == v for k, v in labels.items()):
            total += value
    return total


def check_scrape(port):
    status, headers, raw = fetch(port, "/v1/metrics")
    if status != 200:
        raise SystemExit(f"/v1/metrics: HTTP {status}")
    if headers.get("Content-Type") != METRICS_CONTENT_TYPE:
        raise SystemExit("/v1/metrics content type "
                         f"{headers.get('Content-Type')!r} != "
                         f"{METRICS_CONTENT_TYPE!r}")
    families = parse_exposition(raw.decode())

    missing = sorted(set(METRIC_CATALOG) - set(families))
    if missing:
        raise SystemExit("scrape is missing documented metrics: "
                         + ", ".join(missing))
    for name, (kind, _) in sorted(METRIC_CATALOG.items()):
        if families[name]["kind"] != kind:
            raise SystemExit(f"{name}: scraped kind "
                             f"{families[name]['kind']!r} != {kind!r}")

    moved = {
        "facile_requests_total":
            ("facile_requests_total", {"endpoint": "/v1/predict"}, 3),
        "facile_request_errors_total":
            ("facile_request_errors_total",
             {"endpoint": "/v1/predict"}, 1),
        "facile_response_cache_hits_total":
            ("facile_response_cache_hits_total", {"uarch": "SKL"}, 1),
        "facile_batcher_batches_total":
            ("facile_batcher_batches_total", {"uarch": "SKL"}, 1),
        "facile_request_duration_ms":
            ("facile_request_duration_ms_count",
             {"route": "/v1/predict"}, 3),
    }
    for family_name, (sample_name, labels, floor) in moved.items():
        value = sample_value(families[family_name], sample_name,
                             **labels)
        if value < floor:
            raise SystemExit(f"{sample_name}{labels}: {value} < {floor}"
                             " after the traffic script")
    return len(families)


def kill_group(process):
    """Terminate the server's whole process group; return its stdout."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(process.pid, sig)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            stdout, _ = process.communicate(timeout=15)
            return stdout
        except subprocess.TimeoutExpired:
            continue
    stdout, _ = process.communicate()
    return stdout


def main():
    process, port = start_server()
    try:
        drive_traffic(port)
        n_families = check_scrape(port)
    finally:
        stdout = kill_group(process)
    if stdout:
        raise SystemExit("server wrote to stdout (logs are stderr-only):"
                         f" {stdout[:200]!r}")
    print(f"obs_smoke: OK ({n_families} metric families scraped, "
          f"{len(METRIC_CATALOG)} documented names present, "
          "traces on every response, stdout clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
