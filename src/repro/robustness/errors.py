"""Typed failure vocabulary of the fault-tolerance layer.

Every mechanism in :mod:`repro.robustness` reports failures through
these types instead of letting raw exceptions escape:

* :class:`PredictorError` — a *result slot*: what
  ``Engine.predict_many(..., on_error="record")`` puts in place of a
  block whose prediction raised, so a single failing block degrades
  one entry instead of aborting the batch;
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

from dataclasses import dataclass
from typing import Optional

#: The failure kinds a :class:`PredictorError` can carry.
ERROR_KINDS = ("exception", "circuit_open", "injected")


@dataclass(frozen=True)
class PredictorError:
    """A typed per-task failure, merged into batch results by index.

    Attributes:
        kind: one of :data:`ERROR_KINDS`.
        detail: human-readable failure description (exception text,
            breaker state, ...).  Never a traceback.
        attempts: how many times the task was tried before giving up.
        index: the task's index within its batch, when known.
    """

    kind: str
    detail: str
    attempts: int = 1
    index: Optional[int] = None

    def to_dict(self) -> dict:
        """A JSON-ready rendering (used by reports and responses)."""
        return {"error": self.kind, "detail": self.detail,
                "attempts": self.attempts}


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
