"""Fault tolerance: typed failures, breakers, retries, fault injection.

The robustness layer hardens every execution path of the repo — the
oracle's measurement pool, the baseline predictors, the HTTP service,
and the discovery campaigns — and ships the deterministic chaos harness
that proves the hardening works:

* :mod:`repro.robustness.errors` — the typed failure vocabulary
  (:class:`CircuitOpenError`, :class:`DeadlineExceeded`,
  :class:`QueueFullError`);
* :mod:`repro.robustness.breaker` — :class:`CircuitBreaker`
  (closed / open / half-open, cooldown, probes);
* :mod:`repro.robustness.retry` — :class:`RetryPolicy` (bounded
  exponential backoff with full jitter);
* :mod:`repro.robustness.faults` — :class:`FaultPlan`, the seeded
  deterministic fault-injection harness behind ``REPRO_FAULTS``.

Reference: ``docs/ROBUSTNESS.md``.
"""

from repro.robustness.breaker import (
    CLOSED,
    DEFAULT_COOLDOWN,
    DEFAULT_FAILURE_THRESHOLD,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)
from repro.robustness.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    FaultInjected,
    QueueFullError,
)
from repro.robustness.faults import (
    Fault,
    FaultPlan,
    FaultSpecError,
    active_plan,
    injected,
    maybe_inject,
    set_fault_plan,
)
from repro.robustness.retry import RetryPolicy

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "CircuitOpenError",
    "DEFAULT_COOLDOWN",
    "DEFAULT_FAILURE_THRESHOLD",
    "DeadlineExceeded",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "FaultSpecError",
    "HALF_OPEN",
    "OPEN",
    "QueueFullError",
    "RetryPolicy",
    "active_plan",
    "injected",
    "maybe_inject",
    "set_fault_plan",
]
