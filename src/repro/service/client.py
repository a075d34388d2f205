"""A typed stdlib client for the prediction service.

Used by the test suite, the examples, and the service load generator in
:mod:`repro.engine.bench`; it is also the reference for how to talk to
``facile serve`` from any other HTTP client (see ``docs/SERVICE.md``
for the raw schemas and equivalent ``curl`` invocations).

:class:`ServiceClient` calls the ``/v1/`` routes, one request per call,
and unwraps the response envelope.  Prediction endpoints return typed
:class:`PredictionResult` / :class:`BulkResult` views that still behave
like the underlying payload dicts (``result["cycles"]`` and
``result.cycles`` are the same value).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.robustness.retry import RetryPolicy


class ServiceError(Exception):
    """An error response from the service.

    Attributes:
        status: the HTTP status code.
        message: the error message from the JSON error body (the raw
            body, or the HTTP reason, when it is not an error
            envelope).
        code: the machine-readable error code (``"overloaded"``,
            ``"deadline_exceeded"``, ...); ``None`` when the body is
            not an error envelope.
        retry_after: seconds to wait before retrying, if the response
            said (the ``Retry-After`` header, with the body's
            ``retry_after_ms`` as fallback).
    """

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None,
                 code: Optional[str] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after
        self.code = code


#: A block as the wire format accepts it: hex string or {"hex"/"asm": ...}.
BlockLike = Union[str, Dict[str, str]]


def _block_obj(block: BlockLike) -> Dict[str, str]:
    if isinstance(block, str):
        return {"hex": block}
    return block


class _PayloadView:
    """Dict-compatible wrapper over one response payload.

    Typed results delegate the mapping protocol to the raw payload, so
    code written against the plain-dict responses of earlier releases
    (``result["cycles"]``, ``"exact" in result``) keeps working.
    """

    def __init__(self, data: Dict, meta: Dict):
        self.data = data
        #: The response envelope's ``meta`` object.
        self.meta = meta

    @property
    def trace(self) -> str:
        """The request's trace id from ``meta`` — quote it when
        reporting a service problem so the operator can find the
        matching structured log lines."""
        return self.meta["trace"]

    def __getitem__(self, key: str):
        return self.data[key]

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def __iter__(self) -> Iterator[str]:
        return iter(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def get(self, key: str, default=None):
        return self.data.get(key, default)

    def keys(self):
        return self.data.keys()

    def __eq__(self, other) -> bool:
        if isinstance(other, _PayloadView):
            return self.data == other.data
        return self.data == other

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.data!r})"


class PredictionResult(_PayloadView):
    """One block's prediction, as served by ``/v1/predict``."""

    @property
    def cycles(self) -> float:
        """Predicted inverse throughput (paper rounding, 2 digits)."""
        return self.data["cycles"]

    @property
    def exact(self) -> Optional[str]:
        """The exact prediction as a fraction string (``"8/3"``)."""
        return self.data["exact"]

    @property
    def bounds(self) -> Dict[str, float]:
        return self.data["bounds"]

    @property
    def exact_bounds(self) -> Dict[str, str]:
        return self.data["exact_bounds"]

    @property
    def bottlenecks(self) -> List[str]:
        return self.data["bottlenecks"]

    @property
    def block(self) -> Dict:
        """The echoed block: ``{"hex", "instructions", "bytes"}``."""
        return self.data["block"]

    @property
    def uarch(self) -> str:
        return self.data["uarch"]

    @property
    def mode(self) -> str:
        return self.data["mode"]

    @property
    def fe_component(self) -> Optional[str]:
        return self.data["fe_component"]

    @property
    def jcc_affected(self) -> bool:
        return self.data["jcc_affected"]

    @property
    def lsd_applicable(self) -> bool:
        return self.data["lsd_applicable"]

    @property
    def critical_instructions(self) -> List[int]:
        return self.data["critical_instructions"]

    @property
    def counterfactual_speedups(self) -> Optional[Dict[str, float]]:
        """Per-component idealization speedups (requested opt-in)."""
        return self.data.get("counterfactual_speedups")


class BulkResult(_PayloadView):
    """An order-preserving bulk response (``/v1/predict/bulk``)."""

    @property
    def predictions(self) -> List[PredictionResult]:
        return [PredictionResult(entry, self.meta)
                for entry in self.data["predictions"]]

    @property
    def n_blocks(self) -> int:
        return self.data["n_blocks"]

    @property
    def uarch(self) -> str:
        return self.data["uarch"]

    @property
    def mode(self) -> str:
        return self.data["mode"]


class ServiceClient:
    """Talk to a running :class:`~repro.service.server.PredictionService`.

    All constructor arguments are keyword-only:

    Args:
        host / port: where the service listens.
        timeout: per-request socket timeout in seconds.
        max_attempts: bound on tries per request (>= 1).  Connection
            errors and 429 load-shedding responses are retried with
            full-jitter exponential backoff (a 429's ``Retry-After``
            floors the backoff); any other error response is final —
            a 400 does not become a 400 three times slower.
        retry_policy: override the backoff schedule (mostly for tests,
            which inject a recording ``sleep`` and a seeded ``rng``).

    Blocks are passed as hex strings (``"4801d8"``), or as dicts in the
    wire format (``{"asm": "add rax, rbx"}``).  Usable as a context
    manager::

        with ServiceClient(port=service.port) as client:
            result = client.predict("4801d8")
            result.cycles
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 8000,
                 timeout: float = 60.0, max_attempts: int = 3,
                 retry_policy: Optional[RetryPolicy] = None):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.base_url = f"http://{host}:{port}"
        self.timeout = timeout
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy(max_attempts=max_attempts))

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release the client (no persistent connection is held; this
        exists so the context-manager form reads naturally)."""

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc_value, trace) -> None:
        self.close()

    # -- transport -----------------------------------------------------

    @staticmethod
    def _parse_error(status: int, raw: bytes, headers,
                     reason: str) -> ServiceError:
        """Build a :class:`ServiceError` from an error envelope."""
        code = None
        retry_after_ms = None
        try:
            error = json.loads(raw.decode("utf-8"))["error"]
            message = error["message"]
            code = error.get("code")
            retry_after_ms = error.get("retry_after_ms")
        except Exception:
            message = raw.decode("utf-8", "replace") or reason
        try:
            retry_after = float(headers.get("Retry-After"))
        except (TypeError, ValueError):
            retry_after = (retry_after_ms / 1000.0
                           if retry_after_ms is not None else None)
        return ServiceError(status, message, retry_after=retry_after,
                            code=code)

    def _request_once(self, path: str,
                      body: Optional[Dict] = None) -> bytes:
        """One request attempt; returns the raw response bytes."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path, data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET")
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            raise self._parse_error(exc.code, exc.read(), exc.headers,
                                    exc.reason) from None

    def request_raw(self, path: str,
                    body: Optional[Dict] = None) -> bytes:
        """One request (with bounded retries); raw response bytes.

        GET when *body* is None, POST otherwise.  Error statuses raise
        :class:`ServiceError` with the server's message; transient
        failures (refused/dropped connections, 429 shedding) are
        retried up to the client's ``max_attempts`` before the last
        error propagates.
        """
        policy = self.retry_policy
        attempt = 0
        while True:
            try:
                return self._request_once(path, body)
            except ServiceError as exc:
                if (exc.status != 429
                        or not policy.attempts_left(attempt + 1)):
                    raise
                policy.backoff(attempt, floor=exc.retry_after)
            except urllib.error.URLError:
                # Connection-level failure (refused, reset, DNS): the
                # request never reached an application answer, so a
                # retry cannot double-apply anything.
                if not policy.attempts_left(attempt + 1):
                    raise
                policy.backoff(attempt)
            attempt += 1

    def request(self, path: str, body: Optional[Dict] = None) -> Dict:
        """Like :meth:`request_raw`, but decodes the JSON payload."""
        return json.loads(self.request_raw(path, body).decode("utf-8"))

    def _call(self, path: str, body: Optional[Dict] = None):
        """One endpoint round trip: the envelope's ``(result, meta)``."""
        envelope = self.request(path, body)
        return envelope["result"], envelope["meta"]

    # -- endpoints -----------------------------------------------------

    def health(self) -> Dict:
        """``GET /v1/health`` (the health payload, unwrapped)."""
        return self._call("/v1/health")[0]

    def stats(self) -> Dict:
        """``GET /v1/stats`` (the stats payload, unwrapped)."""
        return self._call("/v1/stats")[0]

    def predict(self, block: BlockLike, *, mode: str = "loop",
                uarch: Optional[str] = None,
                counterfactuals: bool = False,
                timeout_ms: Optional[float] = None) -> PredictionResult:
        """``POST /v1/predict`` — one block, full interpretable output."""
        body: Dict = {**_block_obj(block), "mode": mode}
        if uarch is not None:
            body["uarch"] = uarch
        if counterfactuals:
            body["counterfactuals"] = True
        if timeout_ms is not None:
            body["timeout_ms"] = timeout_ms
        result, meta = self._call("/v1/predict", body)
        return PredictionResult(result, meta)

    def predict_bulk(self, blocks: Sequence[BlockLike], *,
                     mode: str = "loop",
                     uarch: Optional[str] = None,
                     timeout_ms: Optional[float] = None) -> BulkResult:
        """``POST /v1/predict/bulk`` — many blocks, order-preserving."""
        body: Dict = {"blocks": [_block_obj(b) for b in blocks],
                      "mode": mode}
        if uarch is not None:
            body["uarch"] = uarch
        if timeout_ms is not None:
            body["timeout_ms"] = timeout_ms
        result, meta = self._call("/v1/predict/bulk", body)
        return BulkResult(result, meta)

    def compare(self, block: BlockLike, *, mode: str = "loop",
                uarch: Optional[str] = None,
                predictors: Optional[List[str]] = None) -> Dict:
        """``POST /v1/compare`` — Facile vs. the baseline analogs."""
        body: Dict = {**_block_obj(block), "mode": mode}
        if uarch is not None:
            body["uarch"] = uarch
        if predictors is not None:
            body["predictors"] = predictors
        return self._call("/v1/compare", body)[0]
