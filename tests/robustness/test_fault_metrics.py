"""Metrics under deterministic fault injection.

A seeded :class:`FaultPlan` (the same object ``REPRO_FAULTS`` parses
into) injects an exactly-known fault sequence; the observability
counters must match that plan *exactly* — one retry backoff per
absorbed fault, one breaker-open per trip.  Anything else means the
counters double-count or miss recovery paths.
"""

import random

import pytest

from repro.core.components import ThroughputMode
from repro.baselines.base import GuardedPredictor
from repro.obs import metrics
from repro.robustness import FaultPlan, injected
from repro.robustness.breaker import CircuitBreaker
from repro.robustness.errors import FaultInjected
from repro.robustness.retry import RetryPolicy

MODE = ThroughputMode.LOOP


class _StubPredictor:
    """A minimal inner predictor: always succeeds, never sleeps."""

    def __init__(self, name="stub"):
        self.name = name
        self.cfg = None
        self.db = None
        self.native_mode = MODE

    def prepare(self):
        pass

    def predict(self, block, mode):
        return 1.0

    def databases(self):
        return []


def _guarded(max_attempts=3, failure_threshold=3):
    """A guarded stub with no real sleeping and pinned jitter."""
    return GuardedPredictor(
        _StubPredictor(),
        retry=RetryPolicy(max_attempts=max_attempts, base=0.0, cap=0.0,
                          rng=random.Random(0), sleep=lambda _s: None),
        breaker=CircuitBreaker("stub",
                               failure_threshold=failure_threshold))


def _retries():
    return metrics.counter_value("facile_retries_total")


def _breaker_opens(name):
    return metrics.counter_value("facile_breaker_open_total",
                                 breaker=name)


class TestRetryCounter:
    def test_one_backoff_per_absorbed_fault(self):
        # Faults at site-call indices 0 and 2: call #1 draws index 0
        # (fault -> one retry -> index 1, clean), call #2 draws index 2
        # (fault -> one retry -> index 3, clean).  Exactly two backoffs.
        plan = FaultPlan.from_spec(
            "seed=0; predictor_error@predictor.stub:0,2")
        guarded = _guarded()
        before = _retries()
        with injected(plan):
            assert guarded.predict(None, MODE) == 1.0
            assert guarded.predict(None, MODE) == 1.0
        assert _retries() - before == 2
        # Fully absorbed: the breaker never moved.
        assert guarded.breaker.times_opened == 0

    def test_no_faults_no_retries(self):
        guarded = _guarded()
        before = _retries()
        with injected(None):
            guarded.predict(None, MODE)
        assert _retries() == before


class TestBreakerCounter:
    def test_one_trip_per_threshold_crossing(self):
        # Retrying disabled (max_attempts=1): three consecutive failed
        # calls trip a threshold-3 breaker exactly once, and no backoff
        # ever runs.
        plan = FaultPlan.from_spec(
            "seed=0; predictor_error@predictor.stub:0,1,2")
        guarded = _guarded(max_attempts=1, failure_threshold=3)
        retries_before = _retries()
        opens_before = _breaker_opens("stub")
        with injected(plan):
            for _ in range(3):
                with pytest.raises(FaultInjected):
                    guarded.predict(None, MODE)
        assert _breaker_opens("stub") - opens_before == 1
        assert _retries() == retries_before
        assert guarded.breaker.times_opened == 1

    def test_counter_matches_times_opened_exactly(self):
        breaker = CircuitBreaker("probe", failure_threshold=1,
                                 cooldown=0.0)
        before = _breaker_opens("probe")
        breaker.record_failure()          # closed -> open
        assert breaker.state == "half_open"  # cooldown 0: probe allowed
        breaker.before_call()
        breaker.record_failure()          # failed probe -> open again
        assert _breaker_opens("probe") - before == 2
        assert breaker.times_opened == 2

