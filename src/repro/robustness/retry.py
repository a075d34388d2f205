"""Bounded retries with exponential backoff and full jitter.

:class:`RetryPolicy` is the one retry shape shared across the repo —
the service client's transport, the guarded predictors, anything that
wants "try again, politely".  Delays follow the *full jitter* scheme
(AWS architecture blog): attempt *k* sleeps a uniform random value in
``[0, min(cap, base * 2**k)]``, which decorrelates competing retriers
without the complexity of tracking peers.

The random source and sleep function are injectable so tests can pin
the jitter and assert exact schedules without waiting on wall-clock.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional

from repro.obs import metrics

#: Defaults: 3 attempts total, 100 ms base, 2 s cap.
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BASE = 0.1
DEFAULT_CAP = 2.0

#: Every backoff across the repo funnels through RetryPolicy.backoff,
#: which makes it the one choke point for the global retry counter.
_RETRIES = metrics.catalogued("facile_retries_total")


class RetryPolicy:
    """Bounded exponential backoff with full jitter.

    Args:
        max_attempts: total tries, the first one included (>= 1; 1
            disables retrying).
        base: backoff base in seconds (delay grows as ``base * 2**k``).
        cap: upper bound on any single delay.
        rng: random source for the jitter (injectable; seeded tests).
        sleep: the sleep function (injectable; tests pass a recorder).
    """

    def __init__(self, max_attempts: int = DEFAULT_MAX_ATTEMPTS, *,
                 base: float = DEFAULT_BASE, cap: float = DEFAULT_CAP,
                 rng: Optional[random.Random] = None,
                 sleep: Callable[[float], None] = time.sleep):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base < 0 or cap < 0:
            raise ValueError("base and cap must be >= 0")
        self.max_attempts = max_attempts
        self.base = base
        self.cap = cap
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep

    def delay(self, attempt: int) -> float:
        """The jittered delay before retry number *attempt* (0-based)."""
        bound = min(self.cap, self.base * (2.0 ** attempt))
        return self._rng.uniform(0.0, bound) if bound > 0 else 0.0

    def backoff(self, attempt: int,
                floor: Optional[float] = None) -> float:
        """Sleep before retry *attempt*; returns the slept duration.

        Args:
            attempt: 0-based retry number (first retry = 0).
            floor: minimum delay regardless of jitter — used to honor a
                server's ``Retry-After`` (never sleep less than asked,
                but still cap at :attr:`cap` ∨ floor).
        """
        duration = self.delay(attempt)
        if floor is not None:
            duration = max(duration, min(floor, max(self.cap, floor)))
        _RETRIES.inc()
        if duration > 0:
            self._sleep(duration)
        return duration

    def attempts_left(self, attempt: int) -> bool:
        """Whether attempt number *attempt* (0-based) may still run."""
        return attempt < self.max_attempts
