"""Client-side retry behaviour against a scripted fake server.

The real service is not needed here: a tiny stdlib HTTP server scripted
to answer a fixed status sequence pins down exactly when the client
retries (429 and connection errors), when it gives up (``max_attempts``)
and when it must not retry at all (any other error status), and that a
call is one request, with no API probe before it.
"""

import http.server
import random
import socket
import threading
import urllib.error

import pytest

from repro.robustness import RetryPolicy
from repro.service import ServiceClient, ServiceError
from repro.service.serialize import envelope_bytes, \
    error_envelope_bytes, json_bytes, meta_dict

#: The trace id every scripted response carries.
TRACE = "0123456789abcdef"


class ScriptedServer:
    """Answers the scripted (status, headers) list, then 200s forever.

    Bodies are the service's envelopes: ``{"ok": true}`` as the result
    of a 200, the error envelope otherwise.  Every request counts in
    :attr:`hits`.
    """

    def __init__(self, script):
        self.script = list(script)
        self.hits = 0
        outer = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(
                    int(self.headers.get("Content-Length") or 0))
                index = outer.hits
                outer.hits += 1
                status, headers = (outer.script[index]
                                   if index < len(outer.script)
                                   else (200, {}))
                body = (envelope_bytes(json_bytes({"ok": True}),
                                       meta_dict(trace=TRACE))
                        if status == 200 else error_envelope_bytes(
                            status, f"scripted {status}", trace=TRACE))
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            do_GET = do_POST

            def log_message(self, *args):
                pass

        self.server = http.server.ThreadingHTTPServer(
            ("127.0.0.1", 0), Handler)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def scripted():
    servers = []

    def start(script):
        server = ScriptedServer(script)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


def recording_policy(slept, max_attempts=3):
    return RetryPolicy(max_attempts=max_attempts, base=0.0, cap=2.0,
                       rng=random.Random(0), sleep=slept.append)


class TestShedRetries:
    def test_429_then_200_succeeds_after_backoff(self, scripted):
        server = scripted([(429, {"Retry-After": "2"})])
        slept = []
        client = ServiceClient(port=server.port,
                               retry_policy=recording_policy(slept))
        assert client.predict("90").data == {"ok": True}
        assert server.hits == 2
        # base=0.0 makes the jitter zero, so the slept delay is exactly
        # the Retry-After floor the server asked for.
        assert slept == [2.0]

    def test_persistent_429_gives_up_after_max_attempts(self, scripted):
        server = scripted([(429, {"Retry-After": "1"})] * 10)
        slept = []
        client = ServiceClient(port=server.port,
                               retry_policy=recording_policy(slept))
        with pytest.raises(ServiceError) as exc:
            client.predict("90")
        assert exc.value.status == 429
        assert exc.value.retry_after == 1.0
        assert (exc.value.code, exc.value.message) == ("overloaded",
                                                       "scripted 429")
        assert server.hits == 3  # max_attempts, not one more
        assert len(slept) == 2   # a sleep between tries, not after

    def test_non_429_errors_are_never_retried(self, scripted):
        for status in (400, 404, 500, 503):
            server = scripted([(status, {})] * 5)
            slept = []
            client = ServiceClient(port=server.port,
                                   retry_policy=recording_policy(slept))
            with pytest.raises(ServiceError) as exc:
                client.predict("90")
            assert exc.value.status == status
            assert server.hits == 1
            assert slept == []

    def test_max_attempts_one_disables_retries(self, scripted):
        server = scripted([(429, {"Retry-After": "1"})])
        client = ServiceClient(port=server.port, max_attempts=1)
        with pytest.raises(ServiceError):
            client.predict("90")
        assert server.hits == 1


class TestOneRequestPerCall:
    def test_fresh_client_predict_is_one_request(self, scripted):
        server = scripted([])
        result = ServiceClient(port=server.port).predict("90")
        assert server.hits == 1  # no API probe before the call
        assert result.trace == TRACE


class TestConnectionRetries:
    @pytest.fixture()
    def dead_port(self):
        # Bind-then-close: nothing listens there for the test's lifetime.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_connection_refused_retries_then_raises(self, dead_port):
        # base > 0 so each inter-attempt wait is an observable sleep
        # (zero-duration backoffs skip the sleep call entirely).
        slept = []
        policy = RetryPolicy(max_attempts=3, base=0.001, cap=0.002,
                             rng=random.Random(1), sleep=slept.append)
        client = ServiceClient(port=dead_port, retry_policy=policy)
        with pytest.raises(urllib.error.URLError):
            client.health()
        assert len(slept) == 2  # three connection attempts, two waits

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceClient(max_attempts=0)
