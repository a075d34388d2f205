"""Typed failure vocabulary of the fault-tolerance layer.

Every mechanism in :mod:`repro.robustness` reports failures through
these types instead of letting raw exceptions escape:

* :class:`CircuitOpenError` — raised when a circuit breaker refuses a
  call; carries the breaker name and remaining cooldown so callers can
  record a typed skip;
* :class:`DeadlineExceeded` — a request outlived its deadline while
  queued (the service answers it with 504);
* :class:`QueueFullError` — the admission queue is at capacity (the
  service answers it with 429 + ``Retry-After``);
* :class:`FaultInjected` — the marker exception raised by the
  fault-injection harness (:mod:`repro.robustness.faults`), so tests
  can tell injected failures from real ones.
"""

from __future__ import annotations


class CircuitOpenError(Exception):
    """A circuit breaker refused the call (it is open or saturated)."""

    def __init__(self, name: str, retry_after: float):
        super().__init__(
            f"circuit breaker {name!r} is open "
            f"(retry in {retry_after:.1f}s)")
        self.name = name
        self.retry_after = retry_after


class DeadlineExceeded(Exception):
    """The request's deadline passed before it could be served."""


class QueueFullError(Exception):
    """The bounded admission queue is at capacity; retry later."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class FaultInjected(Exception):
    """An exception deliberately raised by the fault-injection harness."""
