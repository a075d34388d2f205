"""Deterministic fault injection (the chaos half of the robustness layer).

A :class:`FaultPlan` decides, purely as a function of its seed and its
fault clauses, which *calls* at which *sites* fail and how.  A site is a
dotted name for one instrumented call point (``engine.measure``,
``predictor.llvm-mca-15``, ``service.predict``); every site keeps its own
monotonic call counter, and a clause either names explicit call indices
or a probability that is resolved by hashing ``(seed, kind, site,
index)`` — so two plans built from the same spec always inject the
*identical* fault sequence, which is what makes chaos tests reproducible
rather than flaky.

Plans are activated three ways:

* the ``REPRO_FAULTS`` environment variable (parsed lazily, once);
* :func:`set_fault_plan` (test fixtures);
* the :func:`injected` context manager (scoped activation).

Spec syntax (clauses separated by ``;``, see ``docs/ROBUSTNESS.md``)::

    REPRO_FAULTS="seed=7; worker_kill@engine.measure:2,5; \
                  predictor_error@predictor.*:p=0.1; \
                  timeout@engine.measure:3; slow@service./v1/predict:0:ms=20"

Fault kinds:

=================  =====================================================
``worker_kill``    the worker process executing the task calls
                   ``os._exit`` (SIGKILL-grade crash, no cleanup)
``predictor_error``the call raises :class:`FaultInjected`
``timeout``        the call sleeps past any reasonable per-task timeout
``slow``           the call sleeps ``ms`` milliseconds, then succeeds
=================  =====================================================

Instrumented code draws faults with :meth:`FaultPlan.check` (measurement
pool and shard dispatch, which forward the fault to the worker as part
of the task payload) or acts them out in-process with :func:`maybe_inject`
(predictor and service sites).  A drawn fault is consumed: the
in-process fallback that recovers a lost task runs without it, so
recovery always converges.
"""

from __future__ import annotations

import fnmatch
import hashlib
import multiprocessing
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.robustness.errors import FaultInjected

#: Recognized fault kinds (see module docstring).
FAULT_KINDS = ("worker_kill", "predictor_error", "timeout", "slow")

#: How long a ``timeout`` fault sleeps: far past any sane per-task
#: timeout, short enough that a leaked sleeper cannot wedge a test run.
HANG_SECONDS = 300.0

#: Default extra latency of a ``slow`` fault.
DEFAULT_SLOW_MS = 25.0

#: Per-task deadline of worker processes (the measurement pool, the
#: service shards) when a fault plan is active but no explicit timeout
#: was configured: injection without a deadline could hang forever,
#: which is exactly what the harness exists to rule out.
DEFAULT_FAULTED_TIMEOUT = 10.0


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec that cannot be parsed."""


@dataclass(frozen=True)
class Fault:
    """One concrete injected fault: *kind* at call *index* of *site*."""

    kind: str
    site: str
    index: int
    delay_ms: float = 0.0

    def encode(self) -> Tuple[str, float]:
        """The compact picklable form shipped inside task payloads."""
        return (self.kind, self.delay_ms)


@dataclass(frozen=True)
class FaultClause:
    """One parsed spec clause: *kind* at sites matching *pattern*,
    firing at explicit *indices* or with probability *rate*."""

    kind: str
    pattern: str
    indices: Tuple[int, ...] = ()
    rate: float = 0.0
    delay_ms: float = DEFAULT_SLOW_MS

    def fires(self, seed: int, site: str, index: int) -> bool:
        if not fnmatch.fnmatchcase(site, self.pattern):
            return False
        if self.indices:
            return index in self.indices
        if self.rate <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{seed}:{self.kind}:{site}:{index}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return draw < self.rate


def _parse_clause(text: str) -> FaultClause:
    head, _, tail = text.partition("@")
    kind = head.strip()
    if kind not in FAULT_KINDS:
        raise FaultSpecError(
            f"unknown fault kind {kind!r} "
            f"(expected one of {', '.join(FAULT_KINDS)})")
    if not tail:
        raise FaultSpecError(
            f"fault clause {text!r} needs a site: kind@site[:indices]")
    parts = tail.split(":")
    pattern = parts[0].strip()
    if not pattern:
        raise FaultSpecError(f"fault clause {text!r} has an empty site")
    indices: Tuple[int, ...] = ()
    rate = 0.0
    delay_ms = DEFAULT_SLOW_MS
    for part in parts[1:]:
        part = part.strip()
        if not part:
            continue
        if part.startswith("p="):
            try:
                rate = float(part[2:])
            except ValueError:
                raise FaultSpecError(f"bad probability in {text!r}")
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(
                    f"probability out of [0, 1] in {text!r}")
        elif part.startswith("ms="):
            try:
                delay_ms = float(part[3:])
            except ValueError:
                raise FaultSpecError(f"bad ms= delay in {text!r}")
            if delay_ms < 0:
                raise FaultSpecError(f"negative ms= delay in {text!r}")
        else:
            try:
                indices = tuple(sorted(
                    int(i) for i in part.split(",") if i.strip()))
            except ValueError:
                raise FaultSpecError(
                    f"bad call-index list in {text!r} "
                    "(expected e.g. '0,3,7', 'p=0.1', or 'ms=20')")
    if indices and rate:
        raise FaultSpecError(
            f"clause {text!r} mixes explicit indices and p=; pick one")
    if not indices and not rate:
        raise FaultSpecError(
            f"clause {text!r} never fires: give indices or p=")
    return FaultClause(kind=kind, pattern=pattern, indices=indices,
                       rate=rate, delay_ms=delay_ms)


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Call counters are per-site and owned by the plan instance; two
    plans parsed from the same spec traverse identical sequences.  The
    counters are guarded by a lock because service request threads and
    the batcher's dispatcher may draw concurrently.
    """

    seed: int = 0
    clauses: Tuple[FaultClause, ...] = ()
    _counters: Dict[str, int] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` syntax (see module docstring)."""
        seed = 0
        clauses: List[FaultClause] = []
        for token in spec.split(";"):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                try:
                    seed = int(token[5:])
                except ValueError:
                    raise FaultSpecError(f"bad seed in {token!r}")
                continue
            clauses.append(_parse_clause(token))
        if not clauses:
            raise FaultSpecError(
                f"fault spec {spec!r} contains no fault clauses")
        return cls(seed=seed, clauses=tuple(clauses))

    def check(self, site: str) -> Optional[Fault]:
        """Draw the next call at *site*; the matching fault, if any.

        Advances the site's call counter exactly once per call; the
        first matching clause wins.
        """
        with self._lock:
            index = self._counters.get(site, 0)
            self._counters[site] = index + 1
        for clause in self.clauses:
            if clause.fires(self.seed, site, index):
                return Fault(kind=clause.kind, site=site, index=index,
                             delay_ms=clause.delay_ms)
        return None

    def sequence(self, site: str, n_calls: int) -> List[Optional[Fault]]:
        """The fault drawn at each of the next *n_calls* to *site*
        (advances the counters, like *n_calls* real calls would)."""
        return [self.check(site) for _ in range(n_calls)]

    def reset(self) -> None:
        """Rewind every site counter (a fresh, identical schedule)."""
        with self._lock:
            self._counters.clear()


# ---------------------------------------------------------------------------
# Plan activation
# ---------------------------------------------------------------------------

_ENV_VAR = "REPRO_FAULTS"
_active_lock = threading.Lock()
_active: Optional[FaultPlan] = None
_env_parsed = False


def _plan_from_env() -> Optional[FaultPlan]:
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        return FaultPlan.from_spec(raw)
    except FaultSpecError as exc:
        # An unusable plan must not take every command down with it.
        import warnings
        warnings.warn(f"ignoring invalid {_ENV_VAR}: {exc}")
        return None


def active_plan() -> Optional[FaultPlan]:
    """The currently active fault plan (None = no injection).

    The ``REPRO_FAULTS`` environment variable is consulted once, on
    first use; :func:`set_fault_plan` overrides it.
    """
    global _active, _env_parsed
    with _active_lock:
        if not _env_parsed:
            _env_parsed = True
            if _active is None:
                _active = _plan_from_env()
        return _active


def set_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install *plan* as the active plan; returns the previous one."""
    global _active, _env_parsed
    with _active_lock:
        previous = _active
        _active = plan
        _env_parsed = True  # an explicit plan always beats the env
        return previous


@contextmanager
def injected(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Activate *plan* for the duration of the ``with`` block."""
    previous = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)


# ---------------------------------------------------------------------------
# In-process injection points
# ---------------------------------------------------------------------------

def maybe_inject(site: str) -> None:
    """Draw and act out a fault at *site*, in-process.

    ``slow`` sleeps and returns; ``predictor_error`` raises
    :class:`FaultInjected`; ``timeout`` sleeps :data:`HANG_SECONDS` (the
    caller's timeout machinery is expected to fire first);
    ``worker_kill`` is treated as ``predictor_error`` in-process —
    killing the calling process would take the test runner down.
    """
    plan = active_plan()
    if plan is None:
        return
    fault = plan.check(site)
    if fault is None:
        return
    act_in_process(fault.encode(), site)


def act_in_process(encoded: Tuple[str, float], site: str) -> None:
    """Act out an encoded fault without the option of killing anyone."""
    kind, delay_ms = encoded
    if kind == "slow":
        time.sleep(delay_ms / 1000.0)
        return
    if kind == "timeout":
        time.sleep(HANG_SECONDS)
        return
    raise FaultInjected(f"injected {kind} at {site}")


def _pool_context():
    """The start method of worker processes: fork (cheap, shares the
    imported package) where available, else the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def act_in_worker(encoded: Tuple[str, float], site: str) -> None:
    """Act out an encoded fault inside a pool worker process.

    ``worker_kill`` exits the process without cleanup (what a crash or
    OOM kill looks like from the parent); everything else behaves as in
    :func:`act_in_process`.
    """
    kind, _ = encoded
    if kind == "worker_kill":
        os._exit(70)
    act_in_process(encoded, site)
