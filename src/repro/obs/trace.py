"""Request tracing: trace ids and timed spans.

A **trace id** is minted once per request at the service front end
(16 hex characters), echoed back in the ``/v1/`` response ``meta`` and
in every error envelope, carried in the ``X-Trace-Id`` response header
on all routes, and threaded explicitly through the hop chain —
response cache, ``MicroBatcher`` entry, shard IPC payload — so a
worker-side structured log line can be joined with the client-visible
response (``docs/OBSERVABILITY.md``).

A **span** measures one hop's wall time into the shared
``facile_span_duration_ms`` histogram:

    from repro.obs.trace import Span
    with Span("shard.roundtrip"):
        ...

Trace ids are random (``os.urandom``), not deterministic: they exist
to join log lines with responses, and nothing byte-compared in CI
embeds them.
"""
from __future__ import annotations

import contextvars
import os
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from . import metrics

__all__ = ["TRACE_HEADER", "new_trace_id", "Span",
           "current_trace", "tracing"]

TRACE_HEADER = "X-Trace-Id"


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return os.urandom(8).hex()


def _span_histogram() -> metrics.Histogram:
    return metrics.catalogued("facile_span_duration_ms")


class Span:
    """Context manager timing one named hop into the span histogram."""

    __slots__ = ("name", "trace", "duration_ms", "_start")

    def __init__(self, name: str, trace: Optional[str] = None) -> None:
        self.name = name
        self.trace = trace
        self.duration_ms: Optional[float] = None
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_ms = (time.perf_counter() - self._start) * 1000.0
        _span_histogram().observe(self.duration_ms, span=self.name)


_current: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_trace", default=None)


def current_trace() -> Optional[str]:
    """The trace id bound to the current context, if any."""
    return _current.get()


@contextmanager
def tracing(trace: Optional[str]) -> Iterator[Optional[str]]:
    """Bind ``trace`` as the current trace id for the ``with`` body."""
    token = _current.set(trace)
    try:
        yield trace
    finally:
        _current.reset(token)
