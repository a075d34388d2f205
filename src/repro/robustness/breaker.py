"""Per-dependency circuit breakers.

A :class:`CircuitBreaker` guards calls into one fallible dependency (a
baseline predictor, in this repo) with the classic three-state machine:

* **closed** — calls flow; consecutive failures are counted, and
  reaching ``failure_threshold`` trips the breaker open;
* **open** — calls are refused instantly (:class:`CircuitOpenError`)
  until ``cooldown`` seconds have passed, so a broken tool costs a
  skipped entry instead of a stalled campaign or request;
* **half-open** — after the cooldown, up to ``probe_limit`` trial calls
  are let through: one success closes the breaker, one failure re-opens
  it (restarting the cooldown).

The clock is injectable so tests drive the state machine
deterministically; the default is ``time.monotonic``.  All transitions
are lock-protected — service request threads share breakers.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.obs import metrics
from repro.robustness.errors import CircuitOpenError

#: State names (also the wire/report vocabulary).
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

#: Closed→open and half-open→open transitions both land in
#: _trip_locked, so this counter sees every trip exactly once.
_BREAKER_OPENS = metrics.catalogued("facile_breaker_open_total")

#: Defaults: open after 3 consecutive failures, probe again after 30 s.
DEFAULT_FAILURE_THRESHOLD = 3
DEFAULT_COOLDOWN = 30.0


class CircuitBreaker:
    """One breaker guarding one named dependency.

    Args:
        name: the guarded dependency (predictor name, ...).
        failure_threshold: consecutive failures that trip the breaker.
        cooldown: seconds the breaker stays open before probing.
        probe_limit: concurrent trial calls allowed while half-open.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, name: str, *,
                 failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
                 cooldown: float = DEFAULT_COOLDOWN,
                 probe_limit: int = 1,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if probe_limit < 1:
            raise ValueError("probe_limit must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.probe_limit = probe_limit
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probes_in_flight = 0
        # Lifetime counters (surfaced by /health and campaign notes).
        self.failures = 0
        self.successes = 0
        self.rejections = 0
        self.times_opened = 0

    # -- state ---------------------------------------------------------

    @property
    def state(self) -> str:
        """The current state, advancing open → half-open on cooldown."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if (self._state == OPEN and self._opened_at is not None
                and self._clock() - self._opened_at >= self.cooldown):
            self._state = HALF_OPEN
            self._probes_in_flight = 0
        return self._state

    def retry_after(self) -> float:
        """Seconds until the breaker will next admit a probe (0 = now)."""
        with self._lock:
            if self._state_locked() != OPEN or self._opened_at is None:
                return 0.0
            return max(
                0.0, self.cooldown - (self._clock() - self._opened_at))

    # -- the call protocol ---------------------------------------------

    def before_call(self) -> None:
        """Gate one call; raises :class:`CircuitOpenError` if refused.

        Every admitted call must be answered with exactly one
        :meth:`record_success` or :meth:`record_failure`.
        """
        with self._lock:
            state = self._state_locked()
            if state == CLOSED:
                return
            if state == HALF_OPEN:
                if self._probes_in_flight < self.probe_limit:
                    self._probes_in_flight += 1
                    return
            self.rejections += 1
        raise CircuitOpenError(self.name, self.retry_after())

    def record_success(self) -> None:
        with self._lock:
            self.successes += 1
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(
                    0, self._probes_in_flight - 1)
            self._state = CLOSED
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                # A failed probe re-opens immediately.
                self._probes_in_flight = max(
                    0, self._probes_in_flight - 1)
                self._trip_locked()
            elif (self._state == CLOSED and self._consecutive_failures
                    >= self.failure_threshold):
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self.times_opened += 1
        _BREAKER_OPENS.inc(breaker=self.name)

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """A JSON-ready snapshot (state + lifetime counters)."""
        return {
            "state": self.state,
            "failures": self.failures,
            "successes": self.successes,
            "rejections": self.rejections,
            "times_opened": self.times_opened,
            "failure_threshold": self.failure_threshold,
            "cooldown_sec": self.cooldown,
        }
